//! Sound local-step reduction: fuses maximal runs of thread-local steps
//! into single macro-transitions before interleaving enumeration.
//!
//! The interleaving explosion that exploration and refinement checking
//! fight is mostly *pointless*: a step that reads and writes nothing shared
//! (a jump, a local-only assignment, a guard over locals) commutes with
//! every step of every other thread, so exploring it in all interleaved
//! positions multiplies the state space without changing anything
//! observable. This module implements a conservative special case of
//! ample-set partial-order reduction tailored to the x86-TSO semantics:
//!
//! At a state `s`, the lowest-numbered thread `t` with a *fusable* step is
//! selected, and the maximal run of fusable `t`-steps from `s` is collapsed
//! into one [`MacroStep`] — the only transition explored at `s`. A step is
//! fusable when all of the following hold:
//!
//! - the instruction is one of `Noop`, `Jump`, `Guard`, `Assert`, `Assume`,
//!   `Assign`, or a `YieldPoint` outside any atomic region — kinds whose
//!   execution cannot create threads, allocate, fence, log, or return;
//! - it has no nondeterministic sites (`max_nondet_sites == 0`), so the
//!   transition is deterministic;
//! - its [`Effects`](crate::effects::Effects) footprint is thread-local:
//!   no shared reads or writes, no allocation, no fence — and the executing
//!   routine has no address-taken locals, so its locals cannot alias the
//!   heap that effects analysis tracks;
//! - the step is enabled and its successor is still `Running`: a
//!   terminating step (a failing assert) is *visible* — termination is an
//!   observable — and must stay interleaved with other threads' steps.
//!
//! Everything in the first three bullets is a property of the *program
//! point*, not the state, so a [`Reducer`] precomputes one eligibility bit
//! per instruction when constructed and the per-state work is a table
//! lookup plus the actual step.
//!
//! Such a step is invisible (log and termination unchanged), independent of
//! every transition of every other thread (they can only reach `t`'s
//! program counter or non-address-taken locals, which is to say they
//! cannot), and independent of `t`'s own pending drain steps (it touches
//! neither the buffer nor the heap). That satisfies the ample-set
//! conditions C0–C2; the cycle condition C3 is handled by *abandoning*
//! reduction at any state whose fused run revisits a state (detected by
//! fingerprint): a purely local cycle (`while (true) {}`) would otherwise
//! let the ample thread starve everyone else. On abandonment the state gets
//! a full unreduced expansion, so every state of a local cycle exposes all
//! threads' steps. Fusion is also capped at [`MAX_FUSE`] steps; stopping a
//! fusion early is always sound because the endpoint is expanded on its own
//! (with reduction re-applied there).
//!
//! What the reduction preserves — and what exploration / refinement
//! checking consume — are the *observable* terminal classes: the set of
//! exited logs, assertion-failure and UB terminations, stuckness, and
//! reachability of every observable event sequence. The exact set of
//! intermediate (and even terminal) states may shrink: that is the point.
//!
//! Reduction composes freely with symmetry canonicalization
//! (`crate::canon`): reduction prunes *edges* out of a state, symmetry
//! merges equivalent *endpoint states* after the edge is taken. Each
//! preserves observables on its own, so the engines apply both by default
//! and the gains multiply.

use crate::effects::instr_effects;
use crate::program::{Instr, Program};
use crate::state::{ProgState, Termination, ThreadStatus, Tid};
use crate::step::{atomic_blocker, enabled_steps, max_nondet_sites, try_step, Step};
use crate::value::Value;
use crate::StateArena;
use std::collections::HashSet;

/// Fusion cap: bounds the length of one macro-transition (and the
/// fingerprint set its cycle check keeps). Stopping at the cap is sound —
/// the endpoint is expanded as its own state.
pub const MAX_FUSE: usize = 4096;

/// A (possibly fused) transition: one or more micro-steps executed
/// back-to-back by a single thread, presented as one edge.
///
/// Only the steps are kept, not the intermediate states of a fused run: a
/// fused step is deterministic, so replaying the steps with
/// [`try_step`](crate::step::try_step) from the edge's source state
/// rebuilds every intermediate state on demand (the refinement checker
/// does so only to render a counterexample trace).
#[derive(Debug, Clone, PartialEq)]
pub struct MacroStep {
    /// The underlying micro-steps, in execution order. Unfused transitions
    /// carry exactly one.
    pub steps: Vec<Step>,
}

impl MacroStep {
    /// An unfused single-step edge.
    pub fn single(step: Step) -> MacroStep {
        MacroStep { steps: vec![step] }
    }

    /// The number of micro-steps this edge represents.
    pub fn micro_len(&self) -> usize {
        self.steps.len()
    }
}

/// Precomputed reduction oracle for one program: one fusability bit per
/// instruction (see the module docs for the conditions), computed once so
/// the per-state fusion probe is a table lookup.
pub struct Reducer<'p> {
    program: &'p Program,
    /// `fusable[routine][instr]`: the state-independent part of fusability.
    /// `YieldPoint` bits still require `atomic_depth == 0` at runtime.
    fusable: Vec<Vec<bool>>,
}

impl<'p> Reducer<'p> {
    /// Analyzes `program` and builds the per-instruction fusability table.
    pub fn new(program: &'p Program) -> Reducer<'p> {
        let fusable = program
            .routines
            .iter()
            .map(|routine| {
                // Address-taken locals live in the heap from the effects
                // analysis's point of view, but direct accesses to them
                // record no effects; rule out the whole routine so "no
                // effects" really means thread-local.
                if routine.locals.iter().any(|local| local.addr_taken) {
                    return vec![false; routine.instrs.len()];
                }
                routine
                    .instrs
                    .iter()
                    .map(|instr| {
                        let kind_ok = matches!(
                            instr,
                            Instr::Noop
                                | Instr::Jump(_)
                                | Instr::Guard { .. }
                                | Instr::Assert(_)
                                | Instr::Assume(_)
                                | Instr::Assign { .. }
                                | Instr::YieldPoint
                        );
                        kind_ok
                            && max_nondet_sites(instr) == 0
                            && instr_effects(program, routine, instr).is_thread_local()
                    })
                    .collect()
            })
            .collect();
        Reducer { program, fusable }
    }

    /// If thread `tid` has a fusable step at `state`, returns its (unique)
    /// successor.
    fn fusable_step(&self, state: &ProgState, tid: Tid, max_buffer: usize) -> Option<ProgState> {
        let thread = state.threads.get(&tid)?;
        if thread.status != ThreadStatus::Active {
            return None;
        }
        let pc = thread.pc;
        if !*self
            .fusable
            .get(pc.routine as usize)?
            .get(pc.instr as usize)?
        {
            return None;
        }
        // A yield inside an atomic region gates other threads' enabledness
        // (it is where they may interleave); outside one it is pure noop.
        if matches!(self.program.instr_at(pc), Some(Instr::YieldPoint)) && thread.atomic_depth > 0 {
            return None;
        }
        let next = try_step(self.program, state, &Step::instr(tid), max_buffer)?;
        // Termination is observable: a terminating step (failing assert)
        // must remain interleaved with other threads' alternatives.
        if next.termination != Termination::Running {
            return None;
        }
        Some(next)
    }

    /// Walks the maximal fused run of `tid` starting from its already-taken
    /// first step. Returns `None` if the run revisits a state (C3: abandon
    /// reduction) and the `(micro length, endpoint)` otherwise.
    fn fuse_run(
        &self,
        origin: &ProgState,
        first: ProgState,
        tid: Tid,
        max_buffer: usize,
    ) -> Option<(usize, ProgState)> {
        // Most runs are a single step, which cannot revisit anything: the
        // cycle set starts with the run's second step, seeded with the
        // states visited so far (`origin` and `first`).
        let mut run_fps: Option<HashSet<u64>> = None;
        let mut micro = 1usize;
        let mut cur = first;
        loop {
            if micro >= MAX_FUSE {
                break;
            }
            let Some(next) = self.fusable_step(&cur, tid, max_buffer) else {
                break;
            };
            let run_fps = run_fps.get_or_insert_with(|| {
                HashSet::from([
                    StateArena::fingerprint(origin),
                    StateArena::fingerprint(&cur),
                ])
            });
            if !run_fps.insert(StateArena::fingerprint(&next)) {
                // The local run revisits a state: a pure local cycle under
                // reduction would starve every other thread (C3). Abandon
                // reduction at this state entirely.
                return None;
            }
            micro += 1;
            cur = next;
        }
        Some((micro, cur))
    }

    /// The thread chosen for reduction at `state`, with its first fused
    /// successor: the lowest thread id with a fusable step (deterministic).
    fn ample_thread(&self, state: &ProgState, max_buffer: usize) -> Option<(Tid, ProgState)> {
        if state.termination != Termination::Running {
            return None;
        }
        // Another thread holding an atomic region disables everyone else,
        // including every fusable candidate; skip the probe entirely.
        let blocker = atomic_blocker(self.program, state);
        state
            .threads
            .keys()
            .filter(|&&tid| blocker.is_none_or(|b| b == tid))
            .find_map(|&tid| Some((tid, self.fusable_step(state, tid, max_buffer)?)))
    }

    /// Enumerates the (possibly fused) successor edges of `state`, with
    /// per-micro-step [`MacroStep`] detail — what the refinement checker
    /// records for counterexample traces and witnesses.
    ///
    /// With `reduce` off, this is exactly [`enabled_steps`] with each edge
    /// wrapped as a singleton [`MacroStep`]. With `reduce` on, a state
    /// where some thread has a fusable step yields *one* edge: the maximal
    /// fused run of that thread's local steps. States with no fusable step
    /// — and states whose fused run would cycle — get the full unreduced
    /// expansion.
    pub fn macro_steps(
        &self,
        state: &ProgState,
        pool: &[Value],
        max_buffer: usize,
        reduce: bool,
    ) -> Vec<(MacroStep, ProgState)> {
        if reduce {
            if let Some((tid, first)) = self.ample_thread(state, max_buffer) {
                if let Some((micro, end)) = self.fuse_run(state, first, tid, max_buffer) {
                    let steps = vec![Step::instr(tid); micro];
                    return vec![(MacroStep { steps }, end)];
                }
            }
        }
        unreduced(self.program, state, pool, max_buffer)
    }

    /// Lean edge enumeration for exploration: `(micro length, successor)`
    /// per edge, skipping the [`MacroStep`] step vectors that only the
    /// refinement checker records.
    pub fn successors(
        &self,
        state: &ProgState,
        pool: &[Value],
        max_buffer: usize,
        reduce: bool,
    ) -> Vec<(usize, ProgState)> {
        if reduce {
            if let Some((tid, first)) = self.ample_thread(state, max_buffer) {
                if let Some(edge) = self.fuse_run(state, first, tid, max_buffer) {
                    return vec![edge];
                }
            }
        }
        enabled_steps(self.program, state, pool, max_buffer)
            .into_iter()
            .map(|(_, next)| (1, next))
            .collect()
    }
}

/// Convenience wrapper: [`Reducer::macro_steps`] with a freshly built
/// table. Engines that expand many states should build one [`Reducer`] and
/// reuse it.
pub fn macro_steps(
    program: &Program,
    state: &ProgState,
    pool: &[Value],
    max_buffer: usize,
    reduce: bool,
) -> Vec<(MacroStep, ProgState)> {
    Reducer::new(program).macro_steps(state, pool, max_buffer, reduce)
}

fn unreduced(
    program: &Program,
    state: &ProgState,
    pool: &[Value],
    max_buffer: usize,
) -> Vec<(MacroStep, ProgState)> {
    enabled_steps(program, state, pool, max_buffer)
        .into_iter()
        .map(|(step, next)| (MacroStep::single(step), next))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::state::initial_state;
    use crate::Bounds;
    use armada_lang::{check_module, parse_module};

    fn program(src: &str) -> Program {
        let module = parse_module(src).expect("parse");
        let typed = check_module(&module).expect("typecheck");
        lower(&typed, &module.levels[0].name.clone()).expect("lower")
    }

    #[test]
    fn fuses_local_runs_into_one_edge() {
        // Five local increments and the surrounding jumps collapse into a
        // single macro edge from the initial state.
        let p = program(
            r#"level L {
                var x: uint32;
                void main() {
                    var i: uint32 := 0;
                    while (i < 5) { i := i + 1; }
                    x := i;
                    print(x);
                }
            }"#,
        );
        let bounds = Bounds::small();
        let pool = bounds.pool_for(&p);
        let initial = initial_state(&p).unwrap();
        let edges = macro_steps(&p, &initial, &pool, bounds.max_buffer, true);
        assert_eq!(edges.len(), 1, "one fused edge");
        let (macro_step, target) = &edges[0];
        assert!(
            macro_step.micro_len() > 5,
            "the whole local loop fuses: {} steps",
            macro_step.micro_len()
        );
        // The lean exploration path agrees on micro length and endpoint.
        let lean = Reducer::new(&p).successors(&initial, &pool, bounds.max_buffer, true);
        assert_eq!(lean, vec![(macro_step.micro_len(), target.clone())]);
        // With reduction off the same state has exactly one (singleton)
        // edge too — main is the only thread — but of length 1.
        let unfused = macro_steps(&p, &initial, &pool, bounds.max_buffer, false);
        assert!(unfused.iter().all(|(m, _)| m.micro_len() == 1));
    }

    #[test]
    fn shared_access_is_not_fused() {
        // `x := 1` writes a global: it must stay an interleaving point.
        let p = program("level L { var x: uint32; void main() { x := 1; } }");
        let bounds = Bounds::small();
        let pool = bounds.pool_for(&p);
        let initial = initial_state(&p).unwrap();
        let edges = macro_steps(&p, &initial, &pool, bounds.max_buffer, true);
        assert!(edges.iter().all(|(m, _)| m.micro_len() == 1));
    }

    #[test]
    fn local_cycle_abandons_reduction() {
        // A pure local spin: fusing it would starve the writer thread
        // forever. Reduction must fall back to full expansion so the
        // spinning state still interleaves everyone.
        let p = program(
            r#"level L {
                var stop: uint32;
                void main() {
                    var i: uint32 := 0;
                    while (i < 1) { i := i * 1; }
                    print(i);
                }
            }"#,
        );
        let bounds = Bounds::small();
        let pool = bounds.pool_for(&p);
        let initial = initial_state(&p).unwrap();
        let edges = macro_steps(&p, &initial, &pool, bounds.max_buffer, true);
        // The spin revisits states, so no macro edge may swallow it.
        assert!(
            edges.iter().all(|(m, _)| m.micro_len() == 1),
            "cycle must abandon fusion"
        );
    }

    #[test]
    fn two_step_local_cycle_abandons_reduction() {
        // `while (true) {}` lowers to a guard and a jump back to it: from
        // the guard, the run's first step reaches the jump and its second
        // step returns to the run's origin. The revisit is caught only
        // because the cycle set is seeded with the origin.
        let p = program(
            r#"level L {
                var stop: uint32;
                void main() {
                    while (true) { }
                }
            }"#,
        );
        let reducer = Reducer::new(&p);
        let max_buffer = Bounds::small().max_buffer;
        let mut origin = initial_state(&p).unwrap();
        while !matches!(p.instr_at(origin.threads[&1].pc), Some(Instr::Guard { .. })) {
            origin = reducer
                .fusable_step(&origin, 1, max_buffer)
                .expect("fusable");
        }
        let first = reducer
            .fusable_step(&origin, 1, max_buffer)
            .expect("fusable");
        let second = reducer
            .fusable_step(&first, 1, max_buffer)
            .expect("fusable");
        assert_ne!(first, origin);
        assert_eq!(second, origin, "a two-step cycle");
        assert_eq!(reducer.fuse_run(&origin, first, 1, max_buffer), None);
        let pool = Bounds::small().pool_for(&p);
        let edges = reducer.macro_steps(&origin, &pool, max_buffer, true);
        assert!(edges.iter().all(|(m, _)| m.micro_len() == 1));
    }

    #[test]
    fn failing_assert_is_not_fused_past() {
        // The assert's failure is observable; the fused run must stop
        // before it so the failing step stays interleaved.
        let p = program(
            r#"level L {
                void main() {
                    var i: uint32 := 0;
                    i := i + 1;
                    assert i == 2;
                }
            }"#,
        );
        let bounds = Bounds::small();
        let pool = bounds.pool_for(&p);
        let initial = initial_state(&p).unwrap();
        let edges = macro_steps(&p, &initial, &pool, bounds.max_buffer, true);
        assert_eq!(edges.len(), 1);
        let (macro_step, target) = &edges[0];
        // Fusion carries us up to (not through) the failing assert.
        assert_eq!(target.termination, Termination::Running);
        assert!(macro_step.micro_len() >= 1);
        // The next expansion exposes the failure as an unfused edge.
        let next_edges = macro_steps(&p, target, &pool, bounds.max_buffer, true);
        assert!(next_edges
            .iter()
            .any(|(_, s)| matches!(s.termination, Termination::AssertFailed(_))));
    }
}
