//! Program states (§3.2): threads, heap, ghost state, observable log, and
//! termination status.

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
///
/// `locals` is a shared slice: cloning a frame is a refcount bump, and a
/// write unshares the slice once through [`Frame::local_mut`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frame {
    /// Which routine this frame runs.
    pub routine: u32,
    /// Local storage, parameters first.
    pub locals: Arc<[LocalCell]>,
    /// PC of the `Call` instruction in the caller (the caller resumes at
    /// `call_pc.next()`, and the call's `into` lvalue is read back from the
    /// program there). `None` for a thread's bottom frame.
    pub call_pc: Option<Pc>,
}

impl Frame {
    /// The local in `slot`, mutably (copy-on-write: unshares the locals
    /// slice if other frames still hold it).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn local_mut(&mut self, slot: usize) -> &mut LocalCell {
        &mut Arc::make_mut(&mut self.locals)[slot]
    }
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
/// A thread is stored inline in its [`Threads`] slot. The call stack and
/// the store buffer are shared slices, so cloning a thread is two refcount
/// bumps, and a step that only moves the pc or the atomic depth copies
/// neither. A push or pop builds the new slice in one allocation; a write
/// to the top frame unshares the frame slice and then that frame's locals.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadState {
    /// Current program counter (top frame).
    pub pc: Pc,
    /// Call stack, bottom first. Write the top frame through
    /// [`ThreadState::top_frame_mut`]; grow and shrink it with
    /// [`ThreadState::push_frame`] and [`ThreadState::pop_frame`].
    pub frames: Arc<[Frame]>,
    /// x86-TSO store buffer, oldest write first. Append with
    /// [`ThreadState::push_write`]; drain with [`ThreadState::pop_write`].
    pub buffer: Arc<[BufferedWrite]>,
    /// Nesting depth of `atomic` / `explicit_yield` regions.
    pub atomic_depth: u32,
    /// Live or exited.
    pub status: ThreadStatus,
}

/// `items` with `extra` appended, built in one allocation: the chain has
/// a known length, so `Arc::from_iter` sizes the slice exactly.
fn appended<T: Clone>(items: &[T], extra: impl IntoIterator<Item = T>) -> Arc<[T]> {
    items.iter().cloned().chain(extra).collect()
}

impl ThreadState {
    /// A fresh active thread poised at `pc` with `frame` as its only frame
    /// and an empty store buffer.
    pub fn new(pc: Pc, frame: Frame) -> ThreadState {
        ThreadState {
            pc,
            frames: Arc::from([frame]),
            buffer: Arc::default(),
            atomic_depth: 0,
            status: ThreadStatus::Active,
        }
    }

    /// The top frame.
    ///
    /// # Panics
    ///
    /// Panics on an exited thread (no frames).
    pub fn top_frame(&self) -> &Frame {
        self.frames.last().expect("active thread has a frame")
    }

    /// The top frame, mutably (copy-on-write: unshares the frame slice if
    /// other states still hold it; the frames' locals stay shared).
    ///
    /// # Panics
    ///
    /// Panics on an exited thread (no frames).
    pub fn top_frame_mut(&mut self) -> &mut Frame {
        Arc::make_mut(&mut self.frames)
            .last_mut()
            .expect("active thread has a frame")
    }

    /// Pushes `frame` on the call stack.
    pub fn push_frame(&mut self, frame: Frame) {
        self.frames = appended(&self.frames, [frame]);
    }

    /// Pops the top frame.
    ///
    /// # Panics
    ///
    /// Panics on an exited thread (no frames).
    pub fn pop_frame(&mut self) -> Frame {
        let (top, rest) = self.frames.split_last().expect("active thread has a frame");
        let top = top.clone();
        self.frames = shrunk(rest);
        top
    }

    /// Appends `write` to the store buffer (newest last).
    pub fn push_write(&mut self, write: BufferedWrite) {
        self.buffer = appended(&self.buffer, [write]);
    }

    /// Removes and returns the oldest buffered write, if any.
    pub fn pop_write(&mut self) -> Option<BufferedWrite> {
        let (oldest, rest) = self.buffer.split_first()?;
        let oldest = oldest.clone();
        self.buffer = shrunk(rest);
        Some(oldest)
    }
}

/// A copy of `rest` in one allocation, or the shared empty slice.
fn shrunk<T: Clone>(rest: &[T]) -> Arc<[T]> {
    if rest.is_empty() {
        Arc::default()
    } else {
        rest.iter().cloned().collect()
    }
}

/// The thread table: every thread of a state, sorted by tid, in one shared
/// slice.
///
/// Cloning the table is a refcount bump. A step that writes one thread
/// unshares the table once through [`Threads::get_mut`] (one allocation;
/// every other slot's frames and buffer stay shared), and its pc, atomic
/// depth and status live inline in the slot, so a guard, jump, assume or
/// yield copies nothing else. The table offers the `BTreeMap` calls its
/// callers need, and its derived `Hash`, `Eq` and `Ord` see the same
/// sequence of `(tid, thread)` pairs as a `BTreeMap<Tid, ThreadState>`;
/// `Debug` prints it as a map.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Threads(Arc<[(Tid, ThreadState)]>);

/// Iterator over a [`Threads`] table's `(tid, thread)` pairs in tid order.
pub type ThreadsIter<'a> = std::iter::Map<
    std::slice::Iter<'a, (Tid, ThreadState)>,
    fn(&'a (Tid, ThreadState)) -> (&'a Tid, &'a ThreadState),
>;

impl Threads {
    fn position(&self, tid: &Tid) -> Result<usize, usize> {
        self.0.binary_search_by_key(tid, |(t, _)| *t)
    }

    /// The thread with id `tid`.
    pub fn get(&self, tid: &Tid) -> Option<&ThreadState> {
        self.position(tid).ok().map(|i| &self.0[i].1)
    }

    /// The thread with id `tid`, mutably (copy-on-write: unshares the
    /// table if other states still hold it). The lookup runs on the shared
    /// table, so a missing tid copies nothing.
    pub fn get_mut(&mut self, tid: &Tid) -> Option<&mut ThreadState> {
        let index = self.position(tid).ok()?;
        Some(&mut Arc::make_mut(&mut self.0)[index].1)
    }

    /// Whether a thread has id `tid`.
    pub fn contains_key(&self, tid: &Tid) -> bool {
        self.position(tid).is_ok()
    }

    /// `(tid, thread)` pairs in tid order.
    pub fn iter(&self) -> ThreadsIter<'_> {
        self.0.iter().map(|(tid, thread)| (tid, thread))
    }

    /// Tids in increasing order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &Tid> + ExactSizeIterator {
        self.0.iter().map(|(tid, _)| tid)
    }

    /// Threads in tid order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &ThreadState> + ExactSizeIterator {
        self.0.iter().map(|(_, thread)| thread)
    }

    /// Number of threads.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if there are no threads.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Inserts `thread` under `tid`, replacing and returning any thread
    /// already there. A new tid builds the grown table in one allocation.
    pub fn insert(&mut self, tid: Tid, thread: ThreadState) -> Option<ThreadState> {
        match self.position(&tid) {
            Ok(index) => Some(std::mem::replace(
                &mut Arc::make_mut(&mut self.0)[index].1,
                thread,
            )),
            Err(index) => {
                let slots = &self.0;
                self.0 = slots[..index]
                    .iter()
                    .cloned()
                    .chain(std::iter::once((tid, thread)))
                    .chain(slots[index..].iter().cloned())
                    .collect();
                None
            }
        }
    }

    /// The slots in tid order.
    pub fn slots(&self) -> &[(Tid, ThreadState)] {
        &self.0
    }

    /// Every slot's thread in tid order, mutably (copy-on-write: unshares
    /// the table). Symmetry canonicalization rewrites threads in place
    /// through this; the tids stay out of reach, so the table stays
    /// sorted.
    pub(crate) fn slots_mut(&mut self) -> impl Iterator<Item = &mut ThreadState> {
        Arc::make_mut(&mut self.0)
            .iter_mut()
            .map(|(_, thread)| thread)
    }
}

impl FromIterator<(Tid, ThreadState)> for Threads {
    /// Collects slots given in strictly increasing tid order (one
    /// allocation when the iterator's length is known).
    ///
    /// # Panics
    ///
    /// Panics if the tids are not strictly increasing.
    fn from_iter<I: IntoIterator<Item = (Tid, ThreadState)>>(iter: I) -> Threads {
        let slots: Arc<[(Tid, ThreadState)]> = iter.into_iter().collect();
        assert!(
            slots.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "thread table tids must be strictly increasing"
        );
        Threads(slots)
    }
}

impl<'a> IntoIterator for &'a Threads {
    type Item = (&'a Tid, &'a ThreadState);
    type IntoIter = ThreadsIter<'a>;

    fn into_iter(self) -> ThreadsIter<'a> {
        self.iter()
    }
}

impl std::ops::Index<&Tid> for Threads {
    type Output = ThreadState;

    /// # Panics
    ///
    /// Panics if no thread has id `tid`.
    fn index(&self, tid: &Tid) -> &ThreadState {
        self.get(tid).expect("thread exists")
    }
}

impl fmt::Debug for Threads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A complete program state.
///
/// Cloning a state allocates nothing: the thread table, the heap's object
/// table (and each object in it), the ghosts and the log are shared
/// slices, so a clone bumps four refcounts. A step unshares only the
/// slices it writes, once each — the thread table through
/// [`ProgState::thread_mut`], then within the stepping thread its frame
/// slice, its top frame's locals or its store buffer — and the ghosts or
/// the log through [`Arc::make_mut`] or a rebuilt slice. The derived
/// `Hash`, `Eq`, `Ord` and `Debug` read through the `Arc`s and see the
/// same sequences as a `BTreeMap` of threads with `Vec` frames, a
/// `VecDeque` buffer and `Vec` spines, so fingerprints and renderings do
/// not depend on the sharing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProgState {
    /// All threads ever created (exited ones stay, for `join`). Write one
    /// through [`ProgState::thread_mut`].
    pub threads: Threads,
    /// The heap forest; objects `0..globals.len()` back the globals.
    pub heap: Heap,
    /// Ghost global values, by slot (write through [`Arc::make_mut`]).
    pub ghosts: Arc<[Value]>,
    /// The observable event log written by `print` (append with
    /// [`ProgState::append_log`]).
    pub log: Arc<[Value]>,
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
        self.threads.get(&tid)
    }

    /// The thread with the given id, mutably (copy-on-write: unshares the
    /// thread table if other states still hold it; the thread's frames and
    /// buffer stay shared).
    ///
    /// # Panics
    ///
    /// Panics if no thread has id `tid`.
    pub fn thread_mut(&mut self, tid: Tid) -> &mut ThreadState {
        self.threads.get_mut(&tid).expect("thread exists")
    }

    /// Appends `events` to the log, building the grown log in one
    /// allocation.
    pub fn append_log(&mut self, events: impl IntoIterator<Item = Value>) {
        self.log = appended(&self.log, events);
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
            for entry in thread.buffer.iter() {
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
            .pop_write()
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
        threads: Threads::default(),
        heap,
        ghosts: ghosts.into(),
        log: Arc::default(),
        termination: Termination::Running,
        next_tid: MAIN_TID + 1,
    };
    let main = program.main;
    let frame = crate::step::build_frame(program, &mut state, main, &[])
        .map_err(|err| format!("building main frame: {err}"))?;
    state
        .threads
        .insert(MAIN_TID, ThreadState::new(Pc::new(main, 0), frame));
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
            threads: Threads::default(),
            heap,
            ghosts: Arc::default(),
            log: Arc::default(),
            termination: Termination::Running,
            next_tid: 2,
        };
        let mut thread = ThreadState {
            pc: Pc::default(),
            frames: Arc::default(),
            buffer: Arc::default(),
            atomic_depth: 0,
            status: ThreadStatus::Active,
        };
        thread.push_write(BufferedWrite {
            loc: loc.clone(),
            value: Value::int(IntType::U32, 1),
        });
        thread.push_write(BufferedWrite {
            loc: loc.clone(),
            value: Value::int(IntType::U32, 2),
        });
        state.threads.insert(1, thread);

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
