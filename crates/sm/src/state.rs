//! Program states (§3.2): threads, heap, ghost state, observable log, and
//! termination status.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use crate::heap::{Heap, Location, MemNode, ObjectId, RootKind};
use crate::program::{Pc, Program};
use crate::value::{UbReason, Value};

/// A thread identifier. The main thread is tid 1; `create_thread` hands out
/// 2, 3, … in order, keeping the semantics deterministic per step sequence.
pub type Tid = u64;

/// The tid of the initial (main) thread.
pub const MAIN_TID: Tid = 1;

/// How (and whether) the program has terminated (§3.2.3). Undefined behavior
/// is a terminating state, which removes enormous amounts of nondeterminism
/// from the semantics and lets refinement relations talk about it directly.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Termination {
    /// Still running.
    #[default]
    Running,
    /// `main` returned normally.
    Exited,
    /// An `assert` failed at the given PC.
    AssertFailed(Pc),
    /// The program invoked undefined behavior.
    UndefinedBehavior(UbReason),
}

impl Termination {
    /// True unless the program is still running.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Termination::Running)
    }
}

/// Storage for one routine-local variable slot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LocalCell {
    /// A thread-private value tree (the common case).
    Val(MemNode),
    /// Backing heap object, for address-taken locals (§3.2.4: such locals
    /// are roots of the heap forest, freed at frame exit).
    Obj(ObjectId),
}

/// One stack frame.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frame {
    /// Which routine this frame runs.
    pub routine: u32,
    /// Local storage, parameters first.
    pub locals: Vec<LocalCell>,
    /// PC of the `Call` instruction in the caller (the caller resumes at
    /// `call_pc.next()`, and the call's `into` lvalue is read back from the
    /// program there). `None` for a thread's bottom frame.
    pub call_pc: Option<Pc>,
}

/// Whether a thread can still step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ThreadStatus {
    /// Live.
    Active,
    /// Returned from its bottom frame; `join` on it is enabled.
    Exited,
}

/// One entry of an x86-TSO store buffer: a pending write of a primitive
/// value to a shared location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferedWrite {
    /// Destination.
    pub loc: Location,
    /// Value to store.
    pub value: Value,
}

/// The state of one thread: program counter, call stack, store buffer, and
/// atomic-region depth.
///
/// A [`ProgState`] holds each thread behind an `Arc`, so a successor shares
/// every thread its step does not touch; the stepping thread is unshared
/// once through [`ProgState::thread_mut`], and within it only the frames
/// the step writes are copied.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadState {
    /// Current program counter (top frame).
    pub pc: Pc,
    /// Call stack, bottom first. Frames are individually `Arc`-shared so a
    /// state clone shares every frame the step does not write (steps that
    /// only move the pc — jumps, guards, prints — copy no locals at all);
    /// mutate through [`ThreadState::top_frame_mut`] / [`Arc::make_mut`].
    pub frames: Vec<Arc<Frame>>,
    /// x86-TSO store buffer, oldest write first.
    pub buffer: VecDeque<BufferedWrite>,
    /// Nesting depth of `atomic` / `explicit_yield` regions.
    pub atomic_depth: u32,
    /// Live or exited.
    pub status: ThreadStatus,
}

impl ThreadState {
    /// The top frame.
    ///
    /// # Panics
    ///
    /// Panics on an exited thread (no frames).
    pub fn top_frame(&self) -> &Frame {
        &**self.frames.last().expect("active thread has a frame")
    }

    /// The top frame, mutably (copy-on-write: unshares the frame if other
    /// states still hold it).
    ///
    /// # Panics
    ///
    /// Panics on an exited thread (no frames).
    pub fn top_frame_mut(&mut self) -> &mut Frame {
        Arc::make_mut(self.frames.last_mut().expect("active thread has a frame"))
    }
}

/// A complete program state.
///
/// Every component a step may leave alone is a copy-on-write spine: each
/// thread, the heap's object table (and each object in it), the ghosts and
/// the log sit behind `Arc`s. Cloning a state for one step therefore
/// allocates once — the thread map's node — and bumps refcounts; the step
/// unshares only what it writes, through [`ProgState::thread_mut`] and
/// [`Arc::make_mut`]. The derived `Hash`, `Eq`, `Ord` and `Debug` read
/// through the `Arc`s, so they see exactly the unshared layout.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProgState {
    /// All threads ever created (exited ones stay, for `join`). Write one
    /// through [`ProgState::thread_mut`].
    pub threads: BTreeMap<Tid, Arc<ThreadState>>,
    /// The heap forest; objects `0..globals.len()` back the globals.
    pub heap: Heap,
    /// Ghost global values, by slot (write through [`Arc::make_mut`]).
    pub ghosts: Arc<Vec<Value>>,
    /// The observable event log written by `print` (write through
    /// [`Arc::make_mut`]).
    pub log: Arc<Vec<Value>>,
    /// Termination status.
    pub termination: Termination,
    /// Next tid `create_thread` will hand out. Because threads are never
    /// removed and tids are handed out sequentially from 2, reachable
    /// states always satisfy `next_tid == threads.len() + 1` with
    /// contiguous tids `1..=threads.len()` — symmetry canonicalization
    /// (`crate::canon`) relies on this to renumber threads safely.
    pub next_tid: Tid,
}

impl ProgState {
    /// True if the whole program can take no more instruction steps.
    pub fn is_terminal(&self) -> bool {
        self.termination.is_terminal()
    }

    /// The thread with the given id.
    pub fn thread(&self, tid: Tid) -> Option<&ThreadState> {
        self.threads.get(&tid).map(Arc::as_ref)
    }

    /// The thread with the given id, mutably (copy-on-write: unshares the
    /// thread if other states still hold it; its frames stay shared).
    ///
    /// # Panics
    ///
    /// Panics if no thread has id `tid`.
    pub fn thread_mut(&mut self, tid: Tid) -> &mut ThreadState {
        Arc::make_mut(self.threads.get_mut(&tid).expect("thread exists"))
    }

    /// Reads a leaf location as seen by `tid` under x86-TSO: the newest
    /// matching entry of the thread's store buffer wins over global memory.
    pub fn read_leaf(&self, tid: Tid, loc: &Location) -> Result<Value, UbReason> {
        if let Some(thread) = self.threads.get(&tid) {
            for entry in thread.buffer.iter().rev() {
                if entry.loc == *loc {
                    return Ok(entry.value.clone());
                }
            }
        }
        match self.heap.read(loc)? {
            MemNode::Leaf(value) => Ok(value.clone()),
            _ => Err(UbReason::OutOfBounds),
        }
    }

    /// Reads the memory subtree at `loc` as seen by `tid`, overlaying any
    /// buffered leaf writes that fall inside it.
    pub fn read_node(&self, tid: Tid, loc: &Location) -> Result<MemNode, UbReason> {
        let mut node = self.heap.read(loc)?.clone();
        if let Some(thread) = self.threads.get(&tid) {
            for entry in &thread.buffer {
                if entry.loc.object == loc.object && entry.loc.path.starts_with(&loc.path) {
                    let rel = &entry.loc.path[loc.path.len()..];
                    if let Ok(target) = node.descend_mut(rel) {
                        *target = MemNode::Leaf(entry.value.clone());
                    }
                }
            }
        }
        Ok(node)
    }

    /// Applies the oldest buffered write of `tid` to global memory.
    /// Returns `false` if the buffer was empty.
    pub fn drain_one(&mut self, tid: Tid) -> Result<bool, UbReason> {
        if self.thread(tid).is_none_or(|t| t.buffer.is_empty()) {
            return Ok(false);
        }
        let entry = self
            .thread_mut(tid)
            .buffer
            .pop_front()
            .expect("buffer checked non-empty");
        // A drain of a write to since-freed memory is benign in hardware; we
        // model it as dropping the write rather than UB (the *access* UB was
        // already attributable to the dealloc/write race if any).
        let _ = self.heap.write_leaf(&entry.loc, entry.value);
        Ok(true)
    }
}

impl fmt::Display for ProgState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "state ({:?})", self.termination)?;
        for (tid, thread) in &self.threads {
            writeln!(
                f,
                "  t{tid} pc={} frames={} buf={} {:?}",
                thread.pc,
                thread.frames.len(),
                thread.buffer.len(),
                thread.status
            )?;
        }
        writeln!(
            f,
            "  log: {:?}",
            self.log.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        )
    }
}

/// Builds the initial state of `program`: globals allocated (object *i* backs
/// global *i*) and initialized, ghosts initialized, and the main thread
/// poised at `main`'s first instruction.
///
/// # Errors
///
/// Returns an error if a global initializer is not a compile-time constant.
pub fn initial_state(program: &Program) -> Result<ProgState, String> {
    let mut heap = Heap::new();
    let mut ghosts = Vec::new();
    for global in &program.globals {
        let mut node = MemNode::zero(&global.ty, &program.structs);
        if let Some(init) = &global.init {
            let value = crate::eval::eval_const(init)
                .map_err(|err| format!("initializer of `{}`: {err}", global.name))?;
            node = MemNode::Leaf(value.coerce_to(&global.ty));
        }
        heap.alloc(node, RootKind::Static);
    }
    for ghost in &program.ghosts {
        let value = match &ghost.init {
            Some(init) => crate::eval::eval_const(init)
                .map_err(|err| format!("initializer of `{}`: {err}", ghost.name))?
                .coerce_to(&ghost.ty),
            None => Value::zero_of(&ghost.ty)
                .ok_or_else(|| format!("ghost `{}` has no zero value", ghost.name))?,
        };
        ghosts.push(value);
    }

    let mut state = ProgState {
        threads: BTreeMap::new(),
        heap,
        ghosts: Arc::new(ghosts),
        log: Arc::default(),
        termination: Termination::Running,
        next_tid: MAIN_TID + 1,
    };
    let main = program.main;
    let frame = crate::step::build_frame(program, &mut state, main, &[])
        .map_err(|err| format!("building main frame: {err}"))?;
    state.threads.insert(
        MAIN_TID,
        Arc::new(ThreadState {
            pc: Pc::new(main, 0),
            frames: vec![Arc::new(frame)],
            buffer: VecDeque::new(),
            atomic_depth: 0,
            status: ThreadStatus::Active,
        }),
    );
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::ast::IntType;

    #[test]
    fn termination_flags() {
        assert!(!Termination::Running.is_terminal());
        assert!(Termination::Exited.is_terminal());
        assert!(Termination::UndefinedBehavior(UbReason::NullDereference).is_terminal());
    }

    #[test]
    fn tso_read_sees_own_buffer_newest_first() {
        let mut heap = Heap::new();
        let obj = heap.alloc(MemNode::Leaf(Value::int(IntType::U32, 0)), RootKind::Static);
        let loc = Location {
            object: obj,
            path: vec![],
        };
        let mut state = ProgState {
            threads: BTreeMap::new(),
            heap,
            ghosts: Arc::default(),
            log: Arc::default(),
            termination: Termination::Running,
            next_tid: 2,
        };
        let mut thread = ThreadState {
            pc: Pc::default(),
            frames: vec![],
            buffer: VecDeque::new(),
            atomic_depth: 0,
            status: ThreadStatus::Active,
        };
        thread.buffer.push_back(BufferedWrite {
            loc: loc.clone(),
            value: Value::int(IntType::U32, 1),
        });
        thread.buffer.push_back(BufferedWrite {
            loc: loc.clone(),
            value: Value::int(IntType::U32, 2),
        });
        state.threads.insert(1, Arc::new(thread));

        // Own view: newest buffered write.
        assert_eq!(
            state.read_leaf(1, &loc).unwrap(),
            Value::int(IntType::U32, 2)
        );
        // Another thread: global memory.
        assert_eq!(
            state.read_leaf(9, &loc).unwrap(),
            Value::int(IntType::U32, 0)
        );

        // Drain applies FIFO: after one drain, memory holds the *older* write.
        assert!(state.drain_one(1).unwrap());
        assert_eq!(
            state.read_leaf(9, &loc).unwrap(),
            Value::int(IntType::U32, 1)
        );
        assert!(state.drain_one(1).unwrap());
        assert_eq!(
            state.read_leaf(9, &loc).unwrap(),
            Value::int(IntType::U32, 2)
        );
        assert!(!state.drain_one(1).unwrap());
    }
}
