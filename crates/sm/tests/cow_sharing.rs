//! Copy-on-write sharing of program states, measured with a counting
//! allocator: cloning a state allocates nothing, each step kind allocates
//! at most its pinned count, a step shares every slice it does not write,
//! and canonicalizing a state with nothing to rename unshares nothing.
//!
//! The binary holds a single test so that its allocation counts are not
//! disturbed by other tests; the counter is a `const` thread-local, so the
//! harness's own threads cannot disturb it either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use armada_lang::ast::ExprKind;
use armada_lang::{check_module, parse_module};
use armada_sm::{initial_state, lower, try_step, Canonicalizer, Instr, ProgState, Program, Step};

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
        g := 8;
        if (a < 9) { a := 6; }
        join t;
    }
}"#;

/// The most allocations one step of each kind may make: a guard copies the
/// thread table; a local store also copies the frame slice and the top
/// frame's locals; a buffered store the table and the grown buffer; a
/// ghost store the table and the ghosts; a print the table, the grown log
/// and its evaluated arguments.
const STEP_BUDGET: [(&str, u64); 5] = [
    ("guard", 1),
    ("local store", 3),
    ("buffered store", 2),
    ("ghost store", 2),
    ("print", 3),
];

/// The step kind of main's next instruction, if it is one the budget pins.
fn step_kind(program: &Program, state: &ProgState) -> Option<&'static str> {
    let instr = program.instr_at(state.threads[&1].pc)?;
    match instr {
        Instr::Guard { .. } => Some("guard"),
        Instr::Print(_) => Some("print"),
        Instr::Assign { lhs, .. } => match &lhs[0].kind {
            ExprKind::Var(name) if name == "x" => Some("buffered store"),
            ExprKind::Var(name) if name == "g" => Some("ghost store"),
            ExprKind::Var(name) if name == "a" => Some("local store"),
            _ => None,
        },
        _ => None,
    }
}

fn same_slots(a: &ProgState, b: &ProgState) -> bool {
    std::ptr::eq(a.threads.slots(), b.threads.slots())
}

#[test]
fn states_share_every_spine_their_step_does_not_write() {
    let module = parse_module(SUBJECT).expect("parse");
    let typed = check_module(&module).expect("typecheck");
    let program = lower(&typed, "L").expect("lower");

    // Run main alone to the end, counting each step's allocations by kind.
    // The worker never runs, so its thread is never written.
    let mut state = initial_state(&program).expect("initial state");
    let mut worst: BTreeMap<&str, u64> = BTreeMap::new();
    let mut local_step = None;
    loop {
        let kind = step_kind(&program, &state);
        let before = allocations();
        let Some(next) = try_step(&program, &state, &Step::instr(1), usize::MAX) else {
            break; // `join t` waits for the worker.
        };
        let spent = allocations() - before;
        if let Some(kind) = kind {
            let entry = worst.entry(kind).or_default();
            *entry = (*entry).max(spent);
            if kind == "local store" && local_step.is_none() && state.threads.len() == 2 {
                local_step = Some((state.clone(), next.clone()));
            }
        }
        state = next;
    }
    for (kind, budget) in STEP_BUDGET {
        let spent = worst.get(kind).copied();
        assert!(spent.is_some(), "the subject never took a {kind} step");
        assert!(
            spent <= Some(budget),
            "a {kind} step allocated {spent:?} times, budget {budget}"
        );
    }

    // A clone allocates nothing: every slice is a refcount bump.
    let (parent, next) = local_step.expect("a local store after the spawn");
    assert!(parent.threads[&1].buffer.len() == 1 && parent.log.len() == 1);
    let before = allocations();
    let copy = parent.clone();
    let after = allocations();
    assert_eq!(after - before, 0, "ProgState::clone allocations");
    assert_eq!(copy, parent);
    drop(copy);

    // `var a := 5` writes only main's top frame: the worker's frames and
    // buffer, main's buffer, the heap table, the ghosts and the log are the
    // parent's own slices.
    let (worker, parent_worker) = (&next.threads[&2], &parent.threads[&2]);
    assert!(!same_slots(&next, &parent), "main's slot was written");
    assert!(Arc::ptr_eq(&worker.frames, &parent_worker.frames));
    assert!(Arc::ptr_eq(&worker.buffer, &parent_worker.buffer));
    assert!(Arc::ptr_eq(
        &next.threads[&1].buffer,
        &parent.threads[&1].buffer
    ));
    assert!(
        std::ptr::eq(next.heap.objects(), parent.heap.objects()),
        "the heap table is shared"
    );
    assert!(Arc::ptr_eq(&next.ghosts, &parent.ghosts), "ghosts shared");
    assert!(Arc::ptr_eq(&next.log, &parent.log), "the log is shared");

    // Nothing to rename: two threads cannot be permuted, the handle `t` is
    // joined (not erased), and the malloc'd object already has its
    // canonical id. Canonicalization must not unshare anything.
    let canon = Canonicalizer::new(&program);
    assert!(canon.thread_symmetry_enabled() && canon.heap_symmetry_enabled());
    let (canonical, inverse) = canon.canonicalize(next.clone());
    assert!(inverse.is_none());
    assert_eq!(canonical, next);
    assert!(same_slots(&canonical, &next), "the thread table unshared");
    assert!(std::ptr::eq(canonical.heap.objects(), next.heap.objects()));
    assert!(Arc::ptr_eq(&canonical.ghosts, &next.ghosts));
    assert!(Arc::ptr_eq(&canonical.log, &next.log));
}
