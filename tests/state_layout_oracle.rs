//! The state layout's byte streams, checked against an oracle over a whole
//! corpus. `old` mirrors the layout fingerprints were first persisted
//! under: a `BTreeMap` thread table, `Vec` frames and locals, a `VecDeque`
//! store buffer and `Vec` spines. Every state reachable in `specs/*.arm`
//! and in the queue case study's `Weak` level is converted to the mirror;
//! the two must agree on the `StateArena` fingerprint, on `Debug` text and
//! on `Ord` against the next state in the arena. Witnesses persist those
//! fingerprints, so a layout change that moved the `Hash` stream would
//! orphan every stored cert.

use std::hash::{Hash, Hasher};
use std::path::Path;

use armada_sm::arena::FpHasher;
use armada_sm::{explore, lower, Bounds, ProgState, Program, StateArena};

/// The mirror. Type names match the real ones, so derived `Debug` prints
/// the same text when the streams agree.
mod old {
    use std::collections::{BTreeMap, VecDeque};

    use armada_sm::heap::HeapObject;
    use armada_sm::state::{BufferedWrite, LocalCell, ThreadStatus};
    use armada_sm::{Pc, Termination, Tid, Value};

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Frame {
        pub routine: u32,
        pub locals: Vec<LocalCell>,
        pub call_pc: Option<Pc>,
    }

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct ThreadState {
        pub pc: Pc,
        pub frames: Vec<Frame>,
        pub buffer: VecDeque<BufferedWrite>,
        pub atomic_depth: u32,
        pub status: ThreadStatus,
    }

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct Heap {
        pub objects: Vec<HeapObject>,
    }

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct ProgState {
        pub threads: BTreeMap<Tid, ThreadState>,
        pub heap: Heap,
        pub ghosts: Vec<Value>,
        pub log: Vec<Value>,
        pub termination: Termination,
        pub next_tid: Tid,
    }

    /// `state` in the mirror layout.
    pub fn convert(state: &armada_sm::ProgState) -> ProgState {
        let threads = state
            .threads
            .iter()
            .map(|(&tid, thread)| {
                let frames = thread
                    .frames
                    .iter()
                    .map(|frame| Frame {
                        routine: frame.routine,
                        locals: frame.locals.to_vec(),
                        call_pc: frame.call_pc,
                    })
                    .collect();
                let thread = ThreadState {
                    pc: thread.pc,
                    frames,
                    buffer: thread.buffer.iter().cloned().collect(),
                    atomic_depth: thread.atomic_depth,
                    status: thread.status,
                };
                (tid, thread)
            })
            .collect();
        ProgState {
            threads,
            heap: Heap {
                objects: state.heap.objects().iter().map(|o| (**o).clone()).collect(),
            },
            ghosts: state.ghosts.to_vec(),
            log: state.log.to_vec(),
            termination: state.termination.clone(),
            next_tid: state.next_tid,
        }
    }
}

fn old_fingerprint(state: &old::ProgState) -> u64 {
    let mut hasher = FpHasher::default();
    state.hash(&mut hasher);
    hasher.finish()
}

/// Explores `program` exhaustively (no reduction, no symmetry, so the
/// intermediate local states are reachable too) and checks every state
/// against the mirror. Returns the number of states checked.
fn check_level(what: &str, program: &Program) -> usize {
    let bounds = Bounds::small().with_reduction(false).with_symmetry(false);
    let exploration = explore(program, &bounds);
    let states: Vec<&ProgState> = exploration.arena.iter().collect();
    let mirrors: Vec<old::ProgState> = states.iter().map(|s| old::convert(s)).collect();
    for (index, (state, mirror)) in states.iter().zip(&mirrors).enumerate() {
        assert_eq!(
            StateArena::fingerprint(state),
            old_fingerprint(mirror),
            "{what}: state {index} fingerprint"
        );
        assert_eq!(
            format!("{state:?}"),
            format!("{mirror:?}"),
            "{what}: state {index} Debug text"
        );
        if let (Some(next), Some(next_mirror)) = (states.get(index + 1), mirrors.get(index + 1)) {
            assert_eq!(
                state.cmp(next),
                mirror.cmp(next_mirror),
                "{what}: state {index} Ord against its neighbour"
            );
        }
    }
    states.len()
}

#[test]
fn every_spec_state_hashes_prints_and_orders_as_the_mirror() {
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut paths: Vec<_> = std::fs::read_dir(&specs)
        .expect("specs directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "arm"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no specs found");
    let mut checked = 0;
    for path in &paths {
        let source = std::fs::read_to_string(path).expect("spec readable");
        let module = armada_lang::parse_module(&source).expect("parse");
        let typed = armada_lang::check_module(&module).expect("typecheck");
        for level in &module.levels {
            let program = lower(&typed, &level.name).expect("lower");
            let what = format!("{} level {}", path.display(), level.name);
            checked += check_level(&what, &program);
        }
    }
    assert!(checked > 100, "only {checked} spec states checked");
}

#[test]
fn every_queue_weak_state_hashes_prints_and_orders_as_the_mirror() {
    let module = armada_lang::parse_module(armada_cases::queue::MODEL).expect("parse");
    let typed = armada_lang::check_module(&module).expect("typecheck");
    let program = lower(&typed, "Weak").expect("lower");
    let checked = check_level("queue level Weak", &program);
    assert!(checked > 20_000, "only {checked} Weak states checked");
}
