//! Copy-on-write sharing of program states, measured with a counting
//! allocator: cloning a state is one allocation, a step unshares only what
//! it writes, and canonicalizing a state with nothing to rename unshares
//! nothing.
//!
//! The binary holds a single test so that its allocation counts are not
//! disturbed by other tests; the counter is a `const` thread-local, so the
//! harness's own threads cannot disturb it either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use armada_lang::{check_module, parse_module};
use armada_sm::{initial_state, lower, try_step, Canonicalizer, ProgState, Step};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local without a destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SUBJECT: &str = r#"level L {
    var x: uint32;
    ghost var g: int := 7;
    void w() { x := 1; }
    void main() {
        var p: ptr<uint32> := malloc(uint32);
        var t: uint64 := create_thread w();
        print(1);
        x := 3;
        var a: uint32 := 5;
        join t;
    }
}"#;

fn same_thread(a: &ProgState, b: &ProgState, tid: u64) -> bool {
    Arc::ptr_eq(&a.threads[&tid], &b.threads[&tid])
}

#[test]
fn states_share_every_spine_their_step_does_not_write() {
    let module = parse_module(SUBJECT).expect("parse");
    let typed = check_module(&module).expect("typecheck");
    let program = lower(&typed, "L").expect("lower");

    // Run main alone until the worker exists, the log is non-empty and
    // main holds a buffered write: every spine is then worth sharing.
    let mut state = initial_state(&program).expect("initial state");
    let mut steps = 0;
    while state.threads.len() < 2 || state.log.is_empty() || state.threads[&1].buffer.is_empty() {
        state = try_step(&program, &state, &Step::instr(1), usize::MAX).expect("main steps");
        steps += 1;
        assert!(steps < 16, "main never reached the shared-spine state");
    }
    assert!(state.heap.len() >= 2, "the global and the malloc'd object");
    assert!(!state.ghosts.is_empty());

    // A clone is one allocation: the thread map's node. Everything else is
    // a refcount bump.
    let before = allocations();
    let copy = state.clone();
    let after = allocations();
    assert_eq!(after - before, 1, "ProgState::clone allocations");
    assert_eq!(copy, state);
    drop(copy);

    // `var a := 5` writes only main's top frame.
    let next = try_step(&program, &state, &Step::instr(1), usize::MAX).expect("local step");
    assert_eq!(next.threads[&1].buffer, state.threads[&1].buffer);
    assert!(!same_thread(&next, &state, 1), "main's thread was written");
    assert!(same_thread(&next, &state, 2), "the worker is shared");
    assert!(
        std::ptr::eq(next.heap.objects(), state.heap.objects()),
        "the heap table is shared"
    );
    assert!(
        Arc::ptr_eq(&next.ghosts, &state.ghosts),
        "ghosts are shared"
    );
    assert!(Arc::ptr_eq(&next.log, &state.log), "the log is shared");

    // Nothing to rename: two threads cannot be permuted, the handle `t` is
    // joined (not erased), and the malloc'd object already has its
    // canonical id. Canonicalization must not unshare anything.
    let canon = Canonicalizer::new(&program);
    assert!(canon.thread_symmetry_enabled() && canon.heap_symmetry_enabled());
    let (canonical, inverse) = canon.canonicalize(next.clone());
    assert!(inverse.is_none());
    assert_eq!(canonical, next);
    for tid in next.threads.keys() {
        assert!(
            same_thread(&canonical, &next, *tid),
            "thread {tid} unshared"
        );
    }
    assert!(Arc::ptr_eq(&canonical.ghosts, &next.ghosts));
    assert!(Arc::ptr_eq(&canonical.log, &next.log));
}
