//! Symmetry reduction: canonical representatives for [`ProgState`]s.
//!
//! States that differ only by a permutation of symmetric thread ids, or by
//! the allocation order of heap objects, are behaviorally identical: the
//! permutation is an automorphism of the step relation, so the subtrees
//! rooted at the two states produce the same observable terminal classes
//! and the same refinement verdicts. The engines still intern every
//! symmetric copy as a distinct state, paying up to k! (for k symmetric
//! threads) and m! (for m interchangeable allocations) blowup. This module
//! maps each state to a *canonical representative* of its orbit before
//! interning, collapsing those copies.
//!
//! # Soundness argument (mirrors `reduce.rs`)
//!
//! Replacing a state `s` by `c = canonicalize(s)` is sound iff `c = π(s)`
//! for some automorphism `π` of the program's transition system that also
//! preserves the observables (log, termination). Then every behavior of
//! `s` maps step-for-step onto a behavior of `c` and vice versa, so
//! exploring only `c` loses nothing observable, and the refinement
//! relations — all functions of `(log, termination)` — cannot tell the
//! difference. Two distinct consequences:
//!
//! * **Soundness never depends on canonical invariance.** If two states of
//!   one orbit canonicalize to different representatives (the sort key
//!   below is not a perfect orbit invariant when threads hold tids of
//!   *other* threads), we only lose collapse, never correctness: each
//!   representative is still automorphic to its preimage.
//! * **The gate must be conservative.** A renaming is only an automorphism
//!   if the program cannot *observe* the renamed quantity. The
//!   `Canonicalizer` therefore performs a program-wide invisibility
//!   analysis and disables each symmetry dimension entirely when any
//!   observation channel exists.
//!
//! ## Thread symmetry gate
//!
//! Tid renaming is enabled only when tid values are provably confined to
//! opaque join handles:
//!
//! * no `$me` anywhere (a thread printing or storing its own id observes
//!   the numbering);
//! * every `create_thread` either discards the new tid or writes it to a
//!   plain (non-address-taken, non-duplicated) local — a *handle slot*;
//! * every `join` operand is a bare read of a handle slot;
//! * handle slots occur nowhere else in the program text (no arithmetic,
//!   no copies, no prints, no spec formulas).
//!
//! Under the gate, tids live only in handle slots, so renaming thread map
//! keys together with handle values is an automorphism: `join` sees the
//! same thread, everything else never looks. Handle slots that are *never
//! joined* are semantically dead (write-only) and are erased to 0 before
//! sorting — otherwise `var t := create_thread w()` would pin the spawn
//! order into `main`'s locals and defeat the collapse.
//!
//! The main thread keeps tid 1 (it is distinguished: it runs `main`).
//! Candidate threads 2..=n are sorted by their full [`ThreadState`]
//! footprint (pc, frames, buffer, atomic depth, status — after dead-handle
//! erasure), ties broken by original tid, and renumbered in sorted order.
//! Freshly spawned threads receive `next_tid = threads.len() + 1` in both
//! the original and the canonical state (threads are never removed), so
//! the renaming extends over a step with the identity on fresh tids.
//!
//! ## Heap symmetry gate
//!
//! Object ids are observable only through `print` (all pointer comparisons
//! across objects are UB by the §3.2.4 heap model, and ghost set/map
//! builtins are element-wise). Renumbering is enabled unless some `print`
//! argument may evaluate to a pointer-containing value, judged by a
//! conservative syntactic type analysis.
//!
//! Objects `0..globals.len()` back the globals by fixed index and keep
//! their ids. The remaining objects are renumbered by a deterministic
//! pre-order DFS from the roots — statics in id order, then ghosts, then
//! threads in canonical tid order (frames bottom-up, locals in slot
//! order), then store buffers oldest-first — with unreachable (leaked)
//! objects appended in old relative order. Two interleavings that perform
//! the same allocations in different orders thus meet in one canonical
//! heap.
//!
//! Both dimensions compose with local-step reduction (`reduce.rs`):
//! reduction shrinks the set of *edges*, canonicalization merges the
//! *endpoints*; each preserves observables independently, so any
//! combination does.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use armada_lang::ast::{BinOp, Expr, ExprKind, Type, UnOp};

use crate::heap::{Heap, HeapObject, MemNode, ObjectId, PtrVal};
use crate::program::{Instr, Program, Routine};
use crate::state::{
    BufferedWrite, Frame, LocalCell, ProgState, ThreadState, Threads, Tid, MAIN_TID,
};
use crate::value::Value;

/// How a routine-local slot participates in thread-handle flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HandleKind {
    /// Not a handle; must not hold a tid (guaranteed by the gate).
    None,
    /// Written by `create_thread`, never joined: write-only, erased to 0.
    Dead,
    /// Written by `create_thread` and read only by `join`: renamed.
    Joined,
}

/// Precomputed symmetry analysis for one program, applied per state.
///
/// Construction runs the invisibility gates once; [`Canonicalizer::canonicalize`]
/// is then called on every generated state, so its fast paths matter: a
/// program failing both gates costs one boolean test per state.
#[derive(Debug, Clone)]
pub struct Canonicalizer {
    /// Thread symmetry gate verdict.
    tid_ok: bool,
    /// Heap symmetry gate verdict.
    heap_ok: bool,
    /// `program.globals.len()`: objects below this back globals by index
    /// and keep their ids.
    globals: usize,
    /// Per routine, per local slot: handle classification.
    handles: Vec<Vec<HandleKind>>,
}

impl Canonicalizer {
    /// Analyzes `program` and fixes which symmetry dimensions are sound.
    pub fn new(program: &Program) -> Canonicalizer {
        let mut canon = Canonicalizer {
            tid_ok: true,
            heap_ok: true,
            globals: program.globals.len(),
            handles: program
                .routines
                .iter()
                .map(|r| vec![HandleKind::None; r.locals.len()])
                .collect(),
        };
        canon.scan_handles(program);
        if canon.tid_ok {
            canon.scan_occurrences(program);
        }
        canon.scan_prints(program);
        canon
    }

    /// Whether thread-id renaming passed the invisibility gate.
    pub fn thread_symmetry_enabled(&self) -> bool {
        self.tid_ok
    }

    /// Whether heap-object renumbering passed the invisibility gate.
    pub fn heap_symmetry_enabled(&self) -> bool {
        self.heap_ok
    }

    /// Whether canonicalization can do anything at all for this program.
    pub fn enabled(&self) -> bool {
        self.tid_ok || self.heap_ok
    }

    /// Pass 1: find handle slots (targets of `create_thread ... into`) and
    /// which of them are joined. Any `create_thread` or `join` shape the
    /// analysis cannot prove opaque disables thread symmetry program-wide.
    fn scan_handles(&mut self, program: &Program) {
        for (ri, routine) in program.routines.iter().enumerate() {
            for instr in &routine.instrs {
                match instr {
                    Instr::CreateThread {
                        into: Some(into), ..
                    } => match self.handle_slot(routine, into) {
                        Some(slot) => {
                            if self.handles[ri][slot] == HandleKind::None {
                                self.handles[ri][slot] = HandleKind::Dead;
                            }
                        }
                        None => self.tid_ok = false,
                    },
                    Instr::Join(handle) => match self.handle_slot(routine, handle) {
                        Some(slot) => self.handles[ri][slot] = HandleKind::Joined,
                        None => self.tid_ok = false,
                    },
                    _ => {}
                }
            }
        }
        // A join of a slot no create_thread writes reads the zero value —
        // not a handle at all; it stays `Joined` harmlessly (renaming only
        // touches values in 2..=n, and such a slot always holds 0).
    }

    /// Resolves an expression to a usable handle slot: a bare `Var` naming
    /// a unique, non-address-taken, non-ghost local of the routine.
    fn handle_slot(&self, routine: &Routine, expr: &Expr) -> Option<usize> {
        let name = match &expr.kind {
            ExprKind::Var(name) => name,
            _ => return None,
        };
        let slot = routine.local_slot(name)?;
        let local = &routine.locals[slot];
        let unique = routine.locals.iter().filter(|l| l.name == *name).count() == 1;
        (unique && !local.addr_taken && !local.ghost).then_some(slot)
    }

    /// Pass 2: `$me` anywhere, or any occurrence of a handle slot outside
    /// its `create_thread` target / `join` operand positions, disables
    /// thread symmetry.
    fn scan_occurrences(&mut self, program: &Program) {
        for function in program.functions.values() {
            let mut ok = true;
            scan_expr(&function.body, &mut |kind| {
                if matches!(kind, ExprKind::Me) {
                    ok = false;
                }
            });
            if !ok {
                self.tid_ok = false;
                return;
            }
        }
        for (ri, routine) in program.routines.iter().enumerate() {
            for instr in &routine.instrs {
                let mut exprs: Vec<&Expr> = Vec::new();
                match instr {
                    // The blessed positions: check args but skip the
                    // handle-typed operand itself.
                    Instr::CreateThread { args, .. } => exprs.extend(args),
                    Instr::Join(_) => {}
                    _ => collect_instr_exprs(instr, &mut exprs),
                }
                for expr in exprs {
                    let mut ok = true;
                    scan_expr(expr, &mut |kind| match kind {
                        ExprKind::Me => ok = false,
                        ExprKind::Var(name) => {
                            if let Some(slot) = routine.local_slot(name) {
                                if self.handles[ri][slot] != HandleKind::None {
                                    ok = false;
                                }
                            }
                        }
                        _ => {}
                    });
                    if !ok {
                        self.tid_ok = false;
                        return;
                    }
                }
            }
        }
    }

    /// Heap gate: disable renumbering if any `print` argument may evaluate
    /// to a value containing a pointer (the one channel through which
    /// object-id numbering reaches the observable log).
    fn scan_prints(&mut self, program: &Program) {
        for routine in &program.routines {
            for instr in &routine.instrs {
                if let Instr::Print(args) = instr {
                    if args
                        .iter()
                        .any(|arg| expr_may_yield_ptr(program, routine, arg))
                    {
                        self.heap_ok = false;
                        return;
                    }
                }
            }
        }
    }

    /// Maps `state` to its canonical representative. Returns the new state
    /// and, when thread renaming happened, the *inverse* tid map: index
    /// `canonical_tid - 1` holds the tid the thread carried on entry
    /// (`None` means the renaming was the identity).
    pub fn canonicalize(&self, state: ProgState) -> (ProgState, Option<Vec<Tid>>) {
        let mut state = state;
        let mut inverse = None;
        if self.tid_ok {
            // Dead (never-joined) handle slots are write-only, so zeroing
            // them is automorphic, and keeping them would pin spawn order
            // into the spawner's locals.
            self.rewrite_handles(&mut state.threads, HandleKind::Dead, |val| {
                (val != 0).then_some(0)
            });
            inverse = self.sort_threads(&mut state);
        }
        if self.heap_ok && state.heap.len() > self.globals {
            self.renumber_heap(&mut state);
        }
        (state, inverse)
    }

    /// Rewrites every `kind` handle slot whose value `f` maps to a new one.
    /// The check runs on the shared table: the table, a thread's frame
    /// slice and a frame's locals are unshared only if one of their slots
    /// changes.
    fn rewrite_handles(
        &self,
        threads: &mut Threads,
        kind: HandleKind,
        f: impl Fn(i128) -> Option<i128>,
    ) {
        let stale = |frame: &Frame| {
            let slots = &self.handles[frame.routine as usize];
            frame.locals.iter().zip(slots).any(|(cell, &slot)| {
                slot == kind
                    && matches!(
                        cell,
                        LocalCell::Val(MemNode::Leaf(Value::Int { val, .. })) if f(*val).is_some()
                    )
            })
        };
        let thread_stale = |thread: &ThreadState| thread.frames.iter().any(stale);
        if !threads.values().any(thread_stale) {
            return;
        }
        for thread in threads.slots_mut() {
            if !thread_stale(thread) {
                continue;
            }
            for frame in Arc::make_mut(&mut thread.frames) {
                if !stale(frame) {
                    continue;
                }
                let slots = &self.handles[frame.routine as usize];
                for (cell, &slot) in Arc::make_mut(&mut frame.locals).iter_mut().zip(slots) {
                    if slot != kind {
                        continue;
                    }
                    if let LocalCell::Val(MemNode::Leaf(Value::Int { val, .. })) = cell {
                        if let Some(renamed) = f(*val) {
                            *val = renamed;
                        }
                    }
                }
            }
        }
    }

    /// Sorts candidate threads (everything but main) by footprint and
    /// renumbers them in sorted order, renaming joined-handle values
    /// consistently. Returns the inverse map, or `None` for identity.
    fn sort_threads(&self, state: &mut ProgState) -> Option<Vec<Tid>> {
        let n = state.threads.len() as Tid;
        if n <= 2 {
            return None; // main plus at most one candidate: nothing to permute.
        }
        // Tids are handed out contiguously from 1 and threads are never
        // removed; bail rather than misrename if that ever changes.
        if state.next_tid != n + 1 || state.threads.keys().next_back() != Some(&n) {
            debug_assert!(false, "non-contiguous tids in canonicalization");
            return None;
        }
        // Where is each candidate tid referenced from main's live joined
        // handle slots? Two candidates with identical footprints are still
        // *distinguishable* if main holds their handles in different slots
        // (a future `join t1` blocks on one specific thread), so the sort
        // key must include these references — otherwise two states related
        // by a renaming could pick different representatives, and the
        // canonical image would gain states instead of losing them. Main's
        // position is fixed under the permutation, so its slot coordinates
        // are renaming-invariant. (Handles held by *candidate* threads are
        // not folded in — their holder's canonical position is exactly what
        // is being computed. That can cost collapse in nested-spawn
        // programs, never soundness: the result is still a plain renaming.)
        let mut refs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n as usize + 1];
        if let Some(main) = state.threads.get(&MAIN_TID) {
            for (frame_idx, frame) in main.frames.iter().enumerate() {
                let slots = &self.handles[frame.routine as usize];
                for (slot_idx, cell) in frame.locals.iter().enumerate() {
                    if slots[slot_idx] != HandleKind::Joined {
                        continue;
                    }
                    if let LocalCell::Val(MemNode::Leaf(Value::Int { val, .. })) = cell {
                        if (2..=n as i128).contains(val) {
                            refs[*val as usize].push((frame_idx, slot_idx));
                        }
                    }
                }
            }
        }
        let mut candidates: Vec<Tid> = (MAIN_TID + 1..=n).collect();
        candidates.sort_by(|a, b| {
            state.threads[a]
                .cmp(&state.threads[b])
                .then_with(|| refs[*a as usize].cmp(&refs[*b as usize]))
                .then(a.cmp(b))
        });
        // perm[old] = canonical tid.
        let mut perm: Vec<Tid> = vec![0; n as usize + 1];
        perm[MAIN_TID as usize] = MAIN_TID;
        for (index, &old) in candidates.iter().enumerate() {
            perm[old as usize] = MAIN_TID + 1 + index as Tid;
        }
        if perm
            .iter()
            .enumerate()
            .skip(1)
            .all(|(i, &to)| to == i as Tid)
        {
            return None;
        }
        let mut inverse = vec![0; n as usize];
        for old in 1..=n as usize {
            inverse[perm[old] as usize - 1] = old as Tid;
        }
        // The permuted table, in one allocation: canonical tid `c` holds
        // the thread that carried `inverse[c - 1]`.
        let threads = state.threads.clone();
        state.threads = (MAIN_TID..=n)
            .map(|tid| (tid, threads[&inverse[tid as usize - 1]].clone()))
            .collect();
        self.rewrite_handles(&mut state.threads, HandleKind::Joined, |val| {
            let renamed = perm[(2..=n as i128).contains(&val).then_some(val as usize)?];
            (renamed as i128 != val).then_some(renamed as i128)
        });
        Some(inverse)
    }

    /// Renumbers non-global heap objects by a deterministic DFS from the
    /// roots and rewrites every `ObjectId` occurrence in the state.
    fn renumber_heap(&self, state: &mut ProgState) {
        let total = state.heap.len();
        let globals = self.globals;
        // new_of[old] = canonical id; globals keep their ids.
        let mut new_of: Vec<u32> = vec![u32::MAX; total];
        let mut next = globals as u32;
        for (id, slot) in new_of.iter_mut().enumerate().take(globals) {
            *slot = id as u32;
        }
        {
            let mut dfs = HeapDfs {
                heap: &state.heap,
                globals,
                new_of: &mut new_of,
                next: &mut next,
                stack: Vec::new(),
                scanned_statics: vec![false; globals],
            };
            // Roots, in canonical order: statics, ghosts, threads (already
            // in canonical tid order), store buffers.
            for id in 0..globals {
                dfs.visit(ObjectId(id as u32));
            }
            for ghost in state.ghosts.iter() {
                scan_value_objects(ghost, &mut |id| dfs.visit(id));
            }
            for thread in state.threads.values() {
                for frame in thread.frames.iter() {
                    for cell in frame.locals.iter() {
                        match cell {
                            LocalCell::Obj(id) => dfs.visit(*id),
                            LocalCell::Val(node) => {
                                scan_node_objects(node, &mut |id| dfs.visit(id))
                            }
                        }
                    }
                }
                for write in thread.buffer.iter() {
                    dfs.visit(write.loc.object);
                    scan_value_objects(&write.value, &mut |id| dfs.visit(id));
                }
            }
        }
        // Leaked objects: unreachable, renumbered after everything else in
        // old relative order.
        for (old, slot) in new_of.iter_mut().enumerate().skip(globals) {
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
                debug_assert!(old < total);
            }
        }
        debug_assert_eq!(next as usize, total);
        if new_of
            .iter()
            .enumerate()
            .all(|(old, &id)| old == id as usize)
        {
            return;
        }
        apply_renumbering(state, &new_of);
    }
}

/// Iterative pre-order DFS over the heap forest, assigning canonical ids
/// to dynamic objects in first-visit order.
struct HeapDfs<'a> {
    heap: &'a Heap,
    globals: usize,
    new_of: &'a mut Vec<u32>,
    next: &'a mut u32,
    stack: Vec<ObjectId>,
    scanned_statics: Vec<bool>,
}

impl HeapDfs<'_> {
    fn visit(&mut self, root: ObjectId) {
        self.stack.push(root);
        while let Some(id) = self.stack.pop() {
            let index = id.0 as usize;
            if index >= self.new_of.len() {
                debug_assert!(false, "dangling object id {id}");
                continue;
            }
            if index < self.globals {
                if std::mem::replace(&mut self.scanned_statics[index], true) {
                    continue;
                }
            } else {
                if self.new_of[index] != u32::MAX {
                    continue;
                }
                self.new_of[index] = *self.next;
                *self.next += 1;
            }
            if let Some(object) = self.heap.object(id) {
                // Children pushed in reverse so they pop in node order.
                let mut children = Vec::new();
                scan_node_objects(&object.node, &mut |child| children.push(child));
                for child in children.into_iter().rev() {
                    self.stack.push(child);
                }
            }
        }
    }
}

/// Rewrites every `ObjectId` in `state` through `new_of` (heap reindexed,
/// pointers in heap nodes, locals, buffers, ghosts, and the log). Objects,
/// threads, frames, ghosts and the log are unshared only if they hold an
/// id that moves.
fn apply_renumbering(state: &mut ProgState, new_of: &[u32]) {
    let map = |id: ObjectId| -> ObjectId {
        match new_of.get(id.0 as usize) {
            Some(&new) => ObjectId(new),
            None => id,
        }
    };
    let mut objects: Vec<Option<Arc<HeapObject>>> = vec![None; state.heap.len()];
    for (old, object) in state.heap.objects().iter().enumerate() {
        let object = match map_node_objects(&object.node, &map) {
            Some(node) => Arc::new(HeapObject { node, ..**object }),
            None => Arc::clone(object),
        };
        objects[new_of[old] as usize] = Some(object);
    }
    state.heap = Heap::from_objects(
        objects
            .into_iter()
            .map(|slot| slot.expect("renumbering is a bijection")),
    );
    if state
        .threads
        .values()
        .any(|thread| thread_moves(thread, &map))
    {
        for thread in state.threads.slots_mut() {
            renumber_thread(thread, &map);
        }
    }
    map_values_objects(&mut state.ghosts, &map);
    map_values_objects(&mut state.log, &map);
}

/// Whether `frame` holds an object id that `map` moves.
fn frame_moves(frame: &Frame, map: &impl Fn(ObjectId) -> ObjectId) -> bool {
    frame.locals.iter().any(|cell| match cell {
        LocalCell::Obj(id) => map(*id) != *id,
        LocalCell::Val(node) => {
            let mut touched = false;
            scan_node_objects(node, &mut |id| touched |= map(id) != id);
            touched
        }
    })
}

/// Whether `write` targets or carries an object id that `map` moves.
fn write_moves(write: &BufferedWrite, map: &impl Fn(ObjectId) -> ObjectId) -> bool {
    map(write.loc.object) != write.loc.object || map_value_objects(&write.value, map).is_some()
}

/// Whether `thread` holds an object id that `map` moves.
fn thread_moves(thread: &ThreadState, map: &impl Fn(ObjectId) -> ObjectId) -> bool {
    thread.frames.iter().any(|frame| frame_moves(frame, map))
        || thread.buffer.iter().any(|write| write_moves(write, map))
}

/// Rewrites object ids in one thread's frames and store buffer, unsharing
/// the frame slice, each frame's locals and the buffer only if they hold
/// an id that moves.
fn renumber_thread(thread: &mut ThreadState, map: &impl Fn(ObjectId) -> ObjectId) {
    if thread.frames.iter().any(|frame| frame_moves(frame, map)) {
        for frame in Arc::make_mut(&mut thread.frames) {
            if !frame_moves(frame, map) {
                continue;
            }
            for cell in Arc::make_mut(&mut frame.locals) {
                match cell {
                    LocalCell::Obj(id) => *id = map(*id),
                    LocalCell::Val(node) => {
                        if let Some(mapped) = map_node_objects(node, map) {
                            *node = mapped;
                        }
                    }
                }
            }
        }
    }
    if thread.buffer.iter().any(|write| write_moves(write, map)) {
        for write in Arc::make_mut(&mut thread.buffer) {
            write.loc.object = map(write.loc.object);
            if let Some(value) = map_value_objects(&write.value, map) {
                write.value = value;
            }
        }
    }
}

/// Rewrites object ids in a shared value list (ghosts or log), unsharing it
/// only if some value changes.
fn map_values_objects(values: &mut Arc<[Value]>, map: &impl Fn(ObjectId) -> ObjectId) {
    let mapped: Vec<(usize, Value)> = values
        .iter()
        .enumerate()
        .filter_map(|(index, value)| map_value_objects(value, map).map(|value| (index, value)))
        .collect();
    if mapped.is_empty() {
        return;
    }
    let values = Arc::make_mut(values);
    for (index, value) in mapped {
        values[index] = value;
    }
}

/// Calls `f` on every `ObjectId` inside `value`, in deterministic
/// left-to-right order.
fn scan_value_objects(value: &Value, f: &mut impl FnMut(ObjectId)) {
    match value {
        Value::Ptr(Some(ptr)) => f(ptr.object),
        Value::Seq(elems) => elems.iter().for_each(|v| scan_value_objects(v, f)),
        Value::Set(elems) => elems.iter().for_each(|v| scan_value_objects(v, f)),
        Value::Map(entries) => {
            for (k, v) in entries {
                scan_value_objects(k, f);
                scan_value_objects(v, f);
            }
        }
        Value::Opt(Some(inner)) => scan_value_objects(inner, f),
        _ => {}
    }
}

/// Calls `f` on every `ObjectId` inside `node`.
fn scan_node_objects(node: &MemNode, f: &mut impl FnMut(ObjectId)) {
    match node {
        MemNode::Leaf(value) => scan_value_objects(value, f),
        MemNode::Array(children) => children.iter().for_each(|n| scan_node_objects(n, f)),
        MemNode::Struct(fields) => fields.iter().for_each(|(_, n)| scan_node_objects(n, f)),
    }
}

/// Rewrites object ids inside `value`; `None` when nothing changed (so
/// callers skip clone-and-replace on untouched values).
fn map_value_objects(value: &Value, map: &impl Fn(ObjectId) -> ObjectId) -> Option<Value> {
    match value {
        Value::Ptr(Some(ptr)) => {
            let mapped = map(ptr.object);
            (mapped != ptr.object).then(|| {
                Value::Ptr(Some(PtrVal {
                    object: mapped,
                    path: ptr.path.clone(),
                }))
            })
        }
        Value::Seq(elems) => {
            if elems.iter().all(|v| map_value_objects(v, map).is_none()) {
                return None;
            }
            Some(Value::Seq(
                elems
                    .iter()
                    .map(|v| map_value_objects(v, map).unwrap_or_else(|| v.clone()))
                    .collect(),
            ))
        }
        Value::Set(elems) => {
            if elems.iter().all(|v| map_value_objects(v, map).is_none()) {
                return None;
            }
            Some(Value::Set(
                elems
                    .iter()
                    .map(|v| map_value_objects(v, map).unwrap_or_else(|| v.clone()))
                    .collect::<BTreeSet<_>>(),
            ))
        }
        Value::Map(entries) => {
            if entries.iter().all(|(k, v)| {
                map_value_objects(k, map).is_none() && map_value_objects(v, map).is_none()
            }) {
                return None;
            }
            Some(Value::Map(
                entries
                    .iter()
                    .map(|(k, v)| {
                        (
                            map_value_objects(k, map).unwrap_or_else(|| k.clone()),
                            map_value_objects(v, map).unwrap_or_else(|| v.clone()),
                        )
                    })
                    .collect::<BTreeMap<_, _>>(),
            ))
        }
        Value::Opt(Some(inner)) => {
            map_value_objects(inner, map).map(|v| Value::Opt(Some(Box::new(v))))
        }
        _ => None,
    }
}

/// Rewrites object ids inside `node`; `None` when nothing changed.
fn map_node_objects(node: &MemNode, map: &impl Fn(ObjectId) -> ObjectId) -> Option<MemNode> {
    match node {
        MemNode::Leaf(value) => map_value_objects(value, map).map(MemNode::Leaf),
        MemNode::Array(children) => {
            if children.iter().all(|n| map_node_objects(n, map).is_none()) {
                return None;
            }
            Some(MemNode::Array(
                children
                    .iter()
                    .map(|n| map_node_objects(n, map).unwrap_or_else(|| n.clone()))
                    .collect(),
            ))
        }
        MemNode::Struct(fields) => {
            if fields
                .iter()
                .all(|(_, n)| map_node_objects(n, map).is_none())
            {
                return None;
            }
            Some(MemNode::Struct(
                fields
                    .iter()
                    .map(|(name, n)| {
                        (
                            name.clone(),
                            map_node_objects(n, map).unwrap_or_else(|| n.clone()),
                        )
                    })
                    .collect(),
            ))
        }
    }
}

/// Applies `f` to every sub-expression kind of `expr`, including `expr`
/// itself.
fn scan_expr(expr: &Expr, f: &mut impl FnMut(&ExprKind)) {
    f(&expr.kind);
    match &expr.kind {
        ExprKind::Unary(_, a)
        | ExprKind::AddrOf(a)
        | ExprKind::Deref(a)
        | ExprKind::Old(a)
        | ExprKind::Allocated(a)
        | ExprKind::AllocatedArray(a)
        | ExprKind::Field(a, _) => scan_expr(a, f),
        ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => {
            scan_expr(a, f);
            scan_expr(b, f);
        }
        ExprKind::Call(_, args) | ExprKind::SeqLit(args) => {
            args.iter().for_each(|a| scan_expr(a, f))
        }
        ExprKind::Forall { lo, hi, body, .. } | ExprKind::Exists { lo, hi, body, .. } => {
            scan_expr(lo, f);
            scan_expr(hi, f);
            scan_expr(body, f);
        }
        _ => {}
    }
}

/// Collects every expression an instruction mentions.
fn collect_instr_exprs<'a>(instr: &'a Instr, out: &mut Vec<&'a Expr>) {
    match instr {
        Instr::Assign { lhs, rhs, .. } => out.extend(lhs.iter().chain(rhs)),
        Instr::Malloc { into, .. } => out.push(into),
        Instr::Calloc { into, count, .. } => out.extend([into, count]),
        Instr::CreateThread { into, args, .. } => {
            out.extend(args);
            out.extend(into.as_ref());
        }
        Instr::Call { args, into, .. } => {
            out.extend(args);
            out.extend(into.as_ref());
        }
        Instr::Ret { value } => out.extend(value.as_ref()),
        Instr::Guard { cond, .. } | Instr::Assert(cond) | Instr::Assume(cond) => out.push(cond),
        Instr::Somehow {
            requires,
            modifies,
            ensures,
        } => out.extend(requires.iter().chain(modifies).chain(ensures)),
        Instr::Dealloc(e) | Instr::Join(e) => out.push(e),
        Instr::Print(args) => out.extend(args),
        Instr::Fence
        | Instr::Jump(_)
        | Instr::AtomicBegin { .. }
        | Instr::AtomicEnd
        | Instr::YieldPoint
        | Instr::Noop => {}
    }
}

/// Whether a value of type `ty` can contain a non-null pointer.
fn may_contain_ptr(
    ty: &Type,
    structs: &BTreeMap<String, Vec<(String, Type)>>,
    seen: &mut Vec<String>,
) -> bool {
    match ty {
        Type::Int(_) | Type::Bool | Type::MathInt => false,
        Type::Pointer(_) => true,
        Type::Array(elem, _) | Type::Seq(elem) | Type::Set(elem) | Type::Option(elem) => {
            may_contain_ptr(elem, structs, seen)
        }
        Type::Map(key, value) => {
            may_contain_ptr(key, structs, seen) || may_contain_ptr(value, structs, seen)
        }
        Type::Named(name) => {
            if seen.iter().any(|s| s == name) {
                return false;
            }
            seen.push(name.clone());
            match structs.get(name) {
                Some(fields) => fields
                    .iter()
                    .any(|(_, field_ty)| may_contain_ptr(field_ty, structs, seen)),
                None => true,
            }
        }
    }
}

/// Conservative: can `expr` evaluate to a pointer-containing value? Used
/// only to gate heap renumbering on `print` arguments, so "don't know"
/// answers `true`.
fn expr_may_yield_ptr(program: &Program, routine: &Routine, expr: &Expr) -> bool {
    let ty_may = |ty: &Type| may_contain_ptr(ty, &program.structs, &mut Vec::new());
    match &expr.kind {
        ExprKind::IntLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::Me
        | ExprKind::SbEmpty
        | ExprKind::Allocated(_)
        | ExprKind::AllocatedArray(_)
        | ExprKind::Forall { .. }
        | ExprKind::Exists { .. } => false,
        // `null` and nondet pool values are object-id-free (`Ptr(None)`
        // prints as `null`), so they cannot leak numbering into the log.
        ExprKind::Null | ExprKind::Nondet => false,
        ExprKind::Var(name) => {
            if let Some(slot) = routine.local_slot(name) {
                return ty_may(&routine.locals[slot].ty);
            }
            if let Some(index) = program.global_index(name) {
                return ty_may(&program.globals[index as usize].ty);
            }
            if let Some(index) = program.ghost_index(name) {
                return ty_may(&program.ghosts[index as usize].ty);
            }
            true // quantifier-bound or unknown: assume the worst.
        }
        ExprKind::Unary(op, a) => match op {
            UnOp::Not | UnOp::Neg => false,
            _ => expr_may_yield_ptr(program, routine, a),
        },
        ExprKind::Binary(op, a, b) => match op {
            BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::And
            | BinOp::Or => false,
            _ => expr_may_yield_ptr(program, routine, a) || expr_may_yield_ptr(program, routine, b),
        },
        ExprKind::AddrOf(_) => true,
        ExprKind::Old(a) => expr_may_yield_ptr(program, routine, a),
        ExprKind::Call(name, _) => match program.functions.get(name) {
            Some(function) => ty_may(&function.ret),
            None => true, // builtins and unknowns: assume the worst.
        },
        ExprKind::SeqLit(args) => args.iter().any(|a| expr_may_yield_ptr(program, routine, a)),
        // Deref / field / index: would need full expression typing to
        // refine; pointer-bearing prints are rare enough that assuming the
        // worst only costs collapse on those programs.
        ExprKind::Deref(_) | ExprKind::Field(_, _) | ExprKind::Index(_, _) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{Location, RootKind};
    use crate::lower::lower;
    use armada_lang::ast::IntType;
    use armada_lang::{check_module, parse_module};

    fn program(src: &str) -> Program {
        let module = parse_module(src).expect("parse");
        let typed = check_module(&module).expect("typecheck");
        lower(&typed, &module.levels[0].name.clone()).expect("lower")
    }

    const SYMMETRIC: &str = r#"level L {
        var done: uint32;
        void w() { atomic { done := done + 1; } }
        void main() {
            var t1: uint64 := create_thread w();
            var t2: uint64 := create_thread w();
            var d: uint32 := done;
            while (d < 2) { d := done; }
        }
    }"#;

    #[test]
    fn gate_accepts_opaque_handles_and_rejects_me() {
        let canon = Canonicalizer::new(&program(SYMMETRIC));
        assert!(canon.thread_symmetry_enabled());
        assert!(canon.heap_symmetry_enabled());

        let with_me = program(
            r#"level L {
                var holder: uint64;
                void w() { holder := $me; }
                void main() { var t: uint64 := create_thread w(); join t; }
            }"#,
        );
        assert!(!Canonicalizer::new(&with_me).thread_symmetry_enabled());
    }

    #[test]
    fn gate_rejects_handle_misuse() {
        // The handle escapes into arithmetic: renaming it would be
        // observable, so the gate must refuse.
        let leaky = program(
            r#"level L {
                var x: uint64;
                void w() { }
                void main() {
                    var t: uint64 := create_thread w();
                    x := t + 1;
                    join t;
                }
            }"#,
        );
        assert!(!Canonicalizer::new(&leaky).thread_symmetry_enabled());

        // Printing the handle is likewise an observation.
        let printy = program(
            r#"level L {
                void w() { }
                void main() {
                    var t: uint64 := create_thread w();
                    print(t);
                    join t;
                }
            }"#,
        );
        assert!(!Canonicalizer::new(&printy).thread_symmetry_enabled());
    }

    #[test]
    fn gate_rejects_pointer_prints_for_heap_symmetry_only() {
        let p = program(
            r#"level L {
                void main() {
                    var p: ptr<uint32> := malloc(uint32);
                    print(p);
                    dealloc p;
                }
            }"#,
        );
        let canon = Canonicalizer::new(&p);
        assert!(!canon.heap_symmetry_enabled());
        assert!(canon.thread_symmetry_enabled());
    }

    #[test]
    fn symmetric_spawn_orders_collapse_to_one_canonical_state() {
        // Drive the symmetric program to two states that differ only in
        // which worker has already run, then check both canonicalize
        // identically.
        let p = program(SYMMETRIC);
        let bounds = crate::Bounds::small().with_reduction(false);
        let plain = crate::explore(&p, &bounds.clone().with_symmetry(false));
        let canon = crate::explore(&p, &bounds.with_symmetry(true));
        assert!(
            canon.arena.len() < plain.arena.len(),
            "two symmetric threads must collapse some states: {} vs {}",
            canon.arena.len(),
            plain.arena.len()
        );
        // Observables are untouched.
        let logs = |e: &crate::Exploration| {
            e.exited
                .iter()
                .map(|s| format!("{:?}{:?}", s.log, s.termination))
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(logs(&plain), logs(&canon));
    }

    #[test]
    fn dead_handles_are_erased() {
        let p = program(
            r#"level L {
                var done: uint32;
                void w() { atomic { done := done + 1; } }
                void main() {
                    var t1: uint64 := create_thread w();
                    var t2: uint64 := create_thread w();
                    var d: uint32 := done;
                    while (d < 2) { d := done; }
                }
            }"#,
        );
        let canon = Canonicalizer::new(&p);
        let mut state = crate::state::initial_state(&p).unwrap();
        // Simulate main having spawned both workers: handle slots hold 2, 3.
        let frame = state.thread_mut(MAIN_TID).top_frame_mut();
        *frame.local_mut(0) = LocalCell::Val(MemNode::Leaf(Value::tid(2)));
        *frame.local_mut(1) = LocalCell::Val(MemNode::Leaf(Value::tid(3)));
        let (canonical, inverse) = canon.canonicalize(state);
        assert!(inverse.is_none(), "no candidate threads yet");
        let frame = canonical.threads[&MAIN_TID].top_frame();
        assert_eq!(
            frame.locals[0],
            LocalCell::Val(MemNode::Leaf(Value::tid(0)))
        );
        assert_eq!(
            frame.locals[1],
            LocalCell::Val(MemNode::Leaf(Value::tid(0)))
        );
    }

    #[test]
    fn heap_renumbering_collapses_allocation_order() {
        let p = program(
            r#"level L {
                var a: ptr<uint32>;
                var b: ptr<uint32>;
                void main() { a := malloc(uint32); b := malloc(uint32); }
            }"#,
        );
        let canon = Canonicalizer::new(&p);
        assert!(canon.heap_symmetry_enabled());
        // Build two states by hand: a→obj2, b→obj3 versus a→obj3, b→obj2
        // (allocation order reversed). They must canonicalize identically.
        let build = |first_for_a: bool| {
            let mut state = crate::state::initial_state(&p).unwrap();
            let x = state
                .heap
                .alloc(MemNode::Leaf(Value::int(IntType::U32, 0)), RootKind::Malloc);
            let y = state
                .heap
                .alloc(MemNode::Leaf(Value::int(IntType::U32, 0)), RootKind::Malloc);
            let (for_a, for_b) = if first_for_a { (x, y) } else { (y, x) };
            state
                .heap
                .write_leaf(
                    &Location {
                        object: ObjectId(0),
                        path: vec![],
                    },
                    Value::Ptr(Some(PtrVal::to_root(for_a))),
                )
                .unwrap();
            state
                .heap
                .write_leaf(
                    &Location {
                        object: ObjectId(1),
                        path: vec![],
                    },
                    Value::Ptr(Some(PtrVal::to_root(for_b))),
                )
                .unwrap();
            canon.canonicalize(state).0
        };
        assert_eq!(build(true), build(false));
    }
}
