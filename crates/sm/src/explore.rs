//! Bounded exhaustive exploration of a program's state space, and a
//! deterministic scheduler for single runs.
//!
//! Exploration enumerates *all* interleavings — instruction steps of every
//! thread plus store-buffer drain steps at every point — up to configurable
//! bounds, with nondeterministic values drawn from a finite candidate pool.
//! This is the executable substitute for the paper's Dafny/Z3 backend: the
//! refinement checker in `armada-verify` walks these state graphs, and
//! strategy failure tests rely on exploration surfacing assertion failures,
//! UB, and ownership violations.
//!
//! The engine is a wave-synchronized BFS over a [`StateArena`]: states are
//! hash-consed to dense ids with cached 64-bit fingerprints, so seen-set
//! probes are integer bucket lookups and the frontier carries 4-byte ids,
//! not cloned state trees. Within a wave the engine runs a *stage
//! pipeline* — ingress → explore → subsume → commit: the calling thread
//! ingresses a group of wave slots, [`armada_runtime::wave::map`]'s
//! workers enumerate their successors chunk by chunk, and the calling
//! thread commits the expansions serially *in wave-slot order* (arena
//! dedup — the subsume stage — then interning and `max_states`
//! accounting). `map` returns results in index order for any worker
//! count, so results — including truncation points — are byte-identical
//! for any job count. With `jobs = 1`, and for narrow waves, the same
//! stages run inline on one thread, one slot at a time.
//!
//! With [`Bounds::reduction`] on (the default), expansion fuses maximal
//! runs of thread-local steps into single macro-transitions (see
//! [`crate::reduce`]), shrinking the interleaving space while preserving
//! observable terminal classes: exited logs, assertion failures, UB, and
//! stuckness. With [`Bounds::symmetry`] on (also the default), every
//! generated state is replaced by its canonical representative (see
//! [`crate::canon`]) before fingerprinting, so states differing only by a
//! permutation of symmetric thread ids or heap allocation order intern as
//! one. The two reductions compose multiplicatively and both preserve the
//! same observables.

use crate::arena::{StateArena, StateId};
use crate::program::{Instr, Program};
use crate::reduce::Reducer;
use crate::state::{initial_state, ProgState, Termination};
use crate::step::{enabled_steps, try_step, Step, StepKind};
use crate::value::Value;
use armada_runtime::telemetry::{Stage, StageTelemetry};
use armada_runtime::wave;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::Instant;

fn collect_expr_literals(expr: &armada_lang::ast::Expr, out: &mut Vec<i128>) {
    use armada_lang::ast::ExprKind::*;
    match &expr.kind {
        IntLit(value) => out.push(*value),
        Unary(_, a)
        | AddrOf(a)
        | Deref(a)
        | Old(a)
        | Allocated(a)
        | AllocatedArray(a)
        | Field(a, _) => collect_expr_literals(a, out),
        Binary(_, a, b) | Index(a, b) => {
            collect_expr_literals(a, out);
            collect_expr_literals(b, out);
        }
        Call(_, args) | SeqLit(args) => {
            for a in args {
                collect_expr_literals(a, out);
            }
        }
        Forall { lo, hi, body, .. } | Exists { lo, hi, body, .. } => {
            collect_expr_literals(lo, out);
            collect_expr_literals(hi, out);
            collect_expr_literals(body, out);
        }
        _ => {}
    }
}

fn collect_instr_literals(instr: &Instr, out: &mut Vec<i128>) {
    match instr {
        Instr::Assign { lhs, rhs, .. } => {
            for e in lhs.iter().chain(rhs) {
                collect_expr_literals(e, out);
            }
        }
        Instr::Guard { cond, .. } | Instr::Assert(cond) | Instr::Assume(cond) => {
            collect_expr_literals(cond, out)
        }
        Instr::Somehow {
            requires,
            modifies,
            ensures,
        } => {
            for e in requires.iter().chain(modifies).chain(ensures) {
                collect_expr_literals(e, out);
            }
        }
        Instr::Call { args, .. } | Instr::Print(args) => {
            for e in args {
                collect_expr_literals(e, out);
            }
        }
        Instr::CreateThread { into, args, .. } => {
            for e in args {
                collect_expr_literals(e, out);
            }
            if let Some(e) = into {
                collect_expr_literals(e, out);
            }
        }
        Instr::Calloc { into, count, .. } => {
            collect_expr_literals(into, out);
            collect_expr_literals(count, out);
        }
        Instr::Malloc { into, .. } => collect_expr_literals(into, out),
        Instr::Dealloc(e) | Instr::Join(e) => collect_expr_literals(e, out),
        Instr::Ret { value: Some(e) } => collect_expr_literals(e, out),
        _ => {}
    }
}

/// Bounds for exhaustive exploration and scheduled runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    /// Maximum scheduler steps for [`run_to_completion`].
    pub max_steps: usize,
    /// Maximum distinct states to visit before truncating.
    pub max_states: usize,
    /// Integer candidates for `*` sites and unsolved `somehow` havoc.
    pub nondet_ints: Vec<i128>,
    /// Store-buffer capacity per thread; writes stall when full, which both
    /// matches finite hardware buffers and bounds the state space.
    pub max_buffer: usize,
    /// Worker threads for exploration and refinement checking. `1` (the
    /// default) runs fully serial; results are identical for any value —
    /// parallelism only changes wall-clock time.
    pub jobs: usize,
    /// Wall-clock deadline for graceful degradation. `None` (the default)
    /// never expires. Checked *cooperatively* — at wave boundaries and,
    /// inside the commit stage, every [`DEADLINE_CHECK_EDGES`] processed
    /// edges — so an expired deadline yields a truncated-but-reported
    /// partial result with bounded overshoot even on a single wide wave,
    /// not a hang.
    pub deadline: Option<std::time::Instant>,
    /// Local-step reduction (see [`crate::reduce`]): fuse maximal runs of
    /// thread-local steps into macro-transitions. On by default; turn off
    /// (`--no-reduction` on the CLI) to enumerate every interleaving of
    /// invisible local steps too — required by strategies that inspect
    /// *all* reachable intermediate states rather than observables.
    pub reduction: bool,
    /// Symmetry reduction (see [`crate::canon`]): intern the canonical
    /// representative of each state, collapsing states that differ only by
    /// a permutation of symmetric thread ids or heap allocation order. On
    /// by default (`--no-symmetry` on the CLI turns it off); a no-op for
    /// programs that fail the invisibility gates.
    pub symmetry: bool,
    /// Disk spilling for the state arena (`--mem-cap` on the CLI): cold
    /// state pages evict to disk under the spec's byte budget and fault
    /// back on demand. `None` (the default) keeps everything resident.
    /// Results are byte-identical with and without spilling.
    pub spill: Option<crate::pager::SpillSpec>,
}

impl Bounds {
    /// Small bounds suitable for unit tests and case-study models.
    pub fn small() -> Bounds {
        Bounds {
            max_steps: 200_000,
            max_states: 250_000,
            nondet_ints: vec![0, 1, 2],
            max_buffer: 2,
            jobs: 1,
            deadline: None,
            reduction: true,
            symmetry: true,
            spill: None,
        }
    }

    /// The same bounds with `jobs` worker threads (0 is clamped to 1).
    pub fn with_jobs(mut self, jobs: usize) -> Bounds {
        self.jobs = jobs.max(1);
        self
    }

    /// The same bounds with a wall-clock deadline `budget` from now.
    pub fn with_deadline(mut self, budget: std::time::Duration) -> Bounds {
        self.deadline = Some(std::time::Instant::now() + budget);
        self
    }

    /// The same bounds with local-step reduction on or off.
    pub fn with_reduction(mut self, reduction: bool) -> Bounds {
        self.reduction = reduction;
        self
    }

    /// The same bounds with symmetry reduction on or off.
    pub fn with_symmetry(mut self, symmetry: bool) -> Bounds {
        self.symmetry = symmetry;
        self
    }

    /// The same bounds with arena spilling under `spec`'s byte budget.
    pub fn with_spill(mut self, spec: crate::pager::SpillSpec) -> Bounds {
        self.spill = Some(spec);
        self
    }

    /// True once the wall-clock deadline (if any) has passed.
    pub fn deadline_expired(&self) -> bool {
        self.deadline
            .is_some_and(|deadline| std::time::Instant::now() >= deadline)
    }

    /// The nondet candidate pool: booleans, the configured integers, and
    /// `null`.
    pub fn pool(&self) -> Vec<Value> {
        let mut pool = vec![Value::Bool(true), Value::Bool(false)];
        pool.extend(self.nondet_ints.iter().map(|&i| Value::MathInt(i)));
        pool.push(Value::Ptr(None));
        pool
    }

    /// The candidate pool for `program`: the base pool plus every integer
    /// literal the program mentions. Nondeterministic choices that must hit
    /// a program constant to enable a path (e.g. `x := *; assume x == 7;`)
    /// are unreachable otherwise.
    pub fn pool_for(&self, program: &Program) -> Vec<Value> {
        let mut pool = self.pool();
        let mut literals: Vec<i128> = Vec::new();
        for routine in &program.routines {
            for instr in &routine.instrs {
                collect_instr_literals(instr, &mut literals);
            }
        }
        literals.sort_unstable();
        literals.dedup();
        for literal in literals.into_iter().take(16) {
            let value = Value::MathInt(literal);
            if !pool.contains(&value) {
                pool.push(value);
            }
        }
        pool
    }
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds::small()
    }
}

/// The result of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Every distinct state visited, interned in deterministic discovery
    /// (wave-commit) order. The arena *is* the seen-set: probe it with
    /// [`StateArena::lookup`], iterate it with [`StateArena::iter`].
    pub arena: StateArena,
    /// Distinct terminal states, by kind, sorted (shared handles into the
    /// arena — cheap to clone).
    pub exited: Vec<Arc<ProgState>>,
    /// States terminated by assertion failure.
    pub assert_failures: Vec<Arc<ProgState>>,
    /// States terminated by undefined behavior.
    pub ub_states: Vec<Arc<ProgState>>,
    /// States with no enabled steps that are not terminal (deadlocks under
    /// the bounds, e.g. a join that can never fire).
    pub stuck: Vec<Arc<ProgState>>,
    /// Whether the exploration hit `max_states` (or a deadline) and
    /// stopped early.
    pub truncated: bool,
    /// Total transition *edges* scanned (macro-transitions when reduction
    /// is on).
    pub transitions: usize,
    /// Total micro-steps those edges represent; equals `transitions` when
    /// reduction is off. `micro_steps / transitions` is the reduction
    /// ratio.
    pub micro_steps: usize,
}

impl Exploration {
    /// True if no assertion failure or UB state was reached and exploration
    /// completed without truncation.
    pub fn clean(&self) -> bool {
        self.assert_failures.is_empty() && self.ub_states.is_empty() && !self.truncated
    }

    /// Number of distinct states visited.
    pub fn visited_len(&self) -> usize {
        self.arena.len()
    }

    /// Micro-steps per explored edge: 1.0 with reduction off, higher when
    /// fusion is collapsing local runs.
    pub fn reduction_ratio(&self) -> f64 {
        if self.transitions == 0 {
            1.0
        } else {
            self.micro_steps as f64 / self.transitions as f64
        }
    }
}

/// Exhaustively explores the reachable states of `program` under `bounds`.
///
/// # Panics
///
/// Panics if the initial state cannot be built (bad global initializer);
/// lowered, type-checked programs never hit this.
pub fn explore(program: &Program, bounds: &Bounds) -> Exploration {
    let initial = initial_state(program).expect("initial state");
    explore_from(program, initial, bounds)
}

/// [`explore`], additionally returning the per-stage pipeline telemetry
/// (latency/occupancy histograms for ingress/explore/subsume/commit).
///
/// Telemetry values are wall-clock and therefore nondeterministic; the
/// [`Exploration`] itself is byte-identical with and without telemetry.
pub fn explore_with_telemetry(program: &Program, bounds: &Bounds) -> (Exploration, StageTelemetry) {
    let initial = initial_state(program).expect("initial state");
    let mut telemetry = StageTelemetry::new();
    let exploration = explore_from_impl(program, initial, bounds, true, &mut telemetry, None);
    (exploration, telemetry)
}

/// One state's expansion, computed (possibly in parallel) against a frozen
/// arena and committed serially in wave order.
enum Expansion {
    /// The state is terminal; classify it by its own termination.
    Terminal,
    /// The state is running but has no enabled steps.
    Stuck,
    /// Successor edges, in deterministic enumeration order.
    Edges(Vec<Edge>),
}

/// One successor edge out of an expanded state.
struct Edge {
    /// Precomputed fingerprint of `state` (hashing happens off the serial
    /// commit path).
    fp: u64,
    /// Micro-steps the edge represents (> 1 for fused macro-transitions).
    micro: usize,
    /// The successor state.
    state: ProgState,
    /// The step taken, kept only when the run records its edges.
    step: Option<Step>,
}

/// Successor edges recorded by [`explore_recording_edges`], indexed by
/// state id: each enabled step with the id of the state it leads to, in
/// [`enabled_steps`] order. `None` for a state whose expansion was not
/// committed whole (a successor fell past a truncation, or the state was
/// never expanded).
pub(crate) type EdgeTable = Vec<Option<Arc<[(Step, StateId)]>>>;

/// [`explore_from`] without reduction or symmetry that also records every
/// committed expansion's edges, so a caller walking the explored graph
/// never enumerates a state's steps a second time.
pub(crate) fn explore_recording_edges(
    program: &Program,
    initial: ProgState,
    bounds: &Bounds,
) -> (Exploration, EdgeTable) {
    let bounds = bounds.clone().with_reduction(false).with_symmetry(false);
    let mut telemetry = StageTelemetry::new();
    let mut table = EdgeTable::new();
    let exploration = explore_from_impl(
        program,
        initial,
        &bounds,
        false,
        &mut telemetry,
        Some(&mut table),
    );
    (exploration, table)
}

/// Deadline re-check interval during the commit stage, in processed edges.
/// A wave wider than this no longer overshoots `--deadline` by its full
/// width: expiry is observed at the next multiple-of-K commit index, the
/// cut is taken there, and the rest of the wave is discarded uncommitted.
const DEADLINE_CHECK_EDGES: usize = 1024;

/// Telemetry samples one slot in this many (power of two; slot 0 is always
/// sampled, so even a tiny run records something). Slots here run in a few
/// microseconds, so timestamping each one costs several percent of the
/// whole exploration; 1-in-32 sampling keeps the histograms statistically
/// representative while holding `--telemetry` overhead under the noise
/// floor (`scripts/verify.sh --full` gates it at 2% of states/sec).
const TELEMETRY_SAMPLE: usize = 32;

/// Counter-based 1-in-[`TELEMETRY_SAMPLE`] sampler: true when this slot
/// should be measured. Advances on every call, so sampling depends only on
/// slot position — never on the clock — and cannot perturb the
/// exploration result.
fn sample_slot(record: bool, counter: &mut usize) -> bool {
    let sampled = record && (*counter & (TELEMETRY_SAMPLE - 1)) == 0;
    *counter = counter.wrapping_add(1);
    sampled
}

/// Exhaustively explores from a given state, with [`Bounds::jobs`] worker
/// threads.
///
/// Serial and parallel runs return byte-identical results — including the
/// truncation point when `max_states` is hit: truncation is decided during
/// the serial wave-order commit, which is the same for any worker count.
pub fn explore_from(program: &Program, initial: ProgState, bounds: &Bounds) -> Exploration {
    let mut telemetry = StageTelemetry::new();
    explore_from_impl(program, initial, bounds, false, &mut telemetry, None)
}

/// Mutable commit-stage bookkeeping threaded through [`commit_slot`].
#[derive(Default)]
struct CommitState {
    /// Edges processed since the last deadline re-check.
    edges_since_check: usize,
    /// Set when the deadline expired mid-wave: the engine stops expanding
    /// and committing further slots (unlike a `max_states` cut, which
    /// keeps counting the already-expanded wave).
    deadline_cut: bool,
    /// 1-in-[`TELEMETRY_SAMPLE`] slot sampler for commit-stage telemetry.
    tel_sampler: usize,
}

/// Commits one slot's expansion: classify terminals, dedup successor
/// edges against the arena (the subsume stage), intern fresh states, and
/// enforce `max_states` and the deadline. Strictly serial; called in
/// ascending wave-slot order regardless of the worker count, which is the
/// whole determinism argument. With an edge `table`, also records the
/// slot's edges there.
#[allow(clippy::too_many_arguments)]
fn commit_slot(
    result: &mut Exploration,
    next_wave: &mut Vec<StateId>,
    bounds: &Bounds,
    id: StateId,
    expansion: Expansion,
    cs: &mut CommitState,
    record: bool,
    tel: &mut StageTelemetry,
    table: Option<&mut EdgeTable>,
) {
    let mut recorded: Option<Vec<(Step, StateId)>> = table.as_ref().map(|_| Vec::new());
    match expansion {
        Expansion::Terminal => {
            let state = result.arena.get_arc_mut(id);
            match &state.termination {
                Termination::Exited => result.exited.push(state),
                Termination::AssertFailed(_) => result.assert_failures.push(state),
                Termination::UndefinedBehavior(_) => result.ub_states.push(state),
                Termination::Running => unreachable!("terminal expansion of running state"),
            }
        }
        Expansion::Stuck => {
            let state = result.arena.get_arc_mut(id);
            result.stuck.push(state);
        }
        Expansion::Edges(edges) => {
            let started = sample_slot(record, &mut cs.tel_sampler).then(Instant::now);
            let total = edges.len();
            let mut subsumed = 0usize;
            for edge in edges {
                let Edge {
                    fp,
                    micro,
                    state,
                    step,
                } = edge;
                result.transitions += 1;
                result.micro_steps += micro;
                cs.edges_since_check += 1;
                if cs.edges_since_check >= DEADLINE_CHECK_EDGES {
                    cs.edges_since_check = 0;
                    if !result.truncated && bounds.deadline_expired() {
                        result.truncated = true;
                        cs.deadline_cut = true;
                    }
                }
                let target = if let Some(known) = result.arena.lookup_with_fp_mut(fp, &state) {
                    subsumed += 1;
                    Some(known)
                } else if result.truncated {
                    // Past a budget cut: keep counting the wave's edges
                    // (they were already expanded) but admit no more
                    // states.
                    None
                } else if result.arena.len() >= bounds.max_states {
                    result.truncated = true;
                    None
                } else {
                    let (next_id, fresh) = result.arena.intern_with_fp(fp, state);
                    debug_assert!(fresh, "lookup missed an interned state");
                    next_wave.push(next_id);
                    Some(next_id)
                };
                if let Some(list) = &mut recorded {
                    match (step, target) {
                        (Some(step), Some(target)) => list.push((step, target)),
                        _ => recorded = None,
                    }
                }
            }
            if let Some(started) = started {
                tel.record_batch(Stage::Commit, started.elapsed(), total);
                tel.record_items(Stage::Subsume, subsumed);
            }
        }
    }
    if let (Some(table), Some(list)) = (table, recorded) {
        if table.len() <= id.index() {
            table.resize(id.index() + 1, None);
        }
        table[id.index()] = Some(list.into());
    }
}

/// Wave chunks per worker that one group of a wide wave holds in flight.
/// Bounds the inputs built ahead of commit — and thus memory, since a
/// spilled state faults in when its group is built — and how much work a
/// mid-wave deadline cut discards.
const GROUP_CHUNKS: usize = 64;

/// The engine behind [`explore_from`]: a four-stage pipeline whose
/// explore stage runs on [`wave::map`] with [`Bounds::jobs`] workers.
fn explore_from_impl(
    program: &Program,
    initial: ProgState,
    bounds: &Bounds,
    record: bool,
    tel: &mut StageTelemetry,
    mut table: Option<&mut EdgeTable>,
) -> Exploration {
    let keep_steps = table.is_some();
    let pool = bounds.pool_for(program);
    let reducer = Reducer::new(program);
    let canon = crate::canon::Canonicalizer::new(program);
    let canon = (bounds.symmetry && canon.enabled()).then_some(&canon);
    let mut result = Exploration {
        arena: StateArena::new(),
        exited: Vec::new(),
        assert_failures: Vec::new(),
        ub_states: Vec::new(),
        stuck: Vec::new(),
        truncated: false,
        transitions: 0,
        micro_steps: 0,
    };
    if let Some(spec) = &bounds.spill {
        result
            .arena
            .enable_spill(spec.clone())
            .unwrap_or_else(|err| panic!("spill: creating {}: {err}", spec.dir.display()));
    }
    let initial = match canon {
        Some(canon) => canon.canonicalize(initial).0,
        None => initial,
    };
    let (root, _) = result.arena.intern(initial);
    let mut wave = vec![root];

    // The explore stage: successor enumeration for one state. The lean
    // enumeration — no per-edge `Step` vectors or intermediate state
    // clones — exploration only needs micro counts and endpoints. Reads
    // nothing but the state itself, so workers never touch the arena and
    // the commit stage can intern concurrently with expansion.
    let expand_state = |state: &ProgState| -> Expansion {
        if state.is_terminal() {
            return Expansion::Terminal;
        }
        let edge = |micro: usize, next: ProgState, step: Option<Step>| {
            // Canonicalize before fingerprinting so the arena interns (and
            // hashes) only canonical representatives.
            let next = match canon {
                Some(canon) => canon.canonicalize(next).0,
                None => next,
            };
            Edge {
                fp: StateArena::fingerprint(&next),
                micro,
                state: next,
                step,
            }
        };
        let edges: Vec<Edge> = if keep_steps {
            enabled_steps(program, state, &pool, bounds.max_buffer)
                .into_iter()
                .map(|(step, next)| edge(1, next, Some(step)))
                .collect()
        } else {
            reducer
                .successors(state, &pool, bounds.max_buffer, bounds.reduction)
                .into_iter()
                .map(|(micro, next)| edge(micro, next, None))
                .collect()
        };
        if edges.is_empty() {
            return Expansion::Stuck;
        }
        Expansion::Edges(edges)
    };

    // The explore stage, timed when ingress sampled the slot; the sample
    // travels back with the expansion and is recorded at commit.
    let expand = |(state, sampled): &(Arc<ProgState>, bool)| {
        let started = sampled.then(Instant::now);
        (expand_state(state), started.map(|s| s.elapsed()))
    };

    // This thread is ingress + subsume + commit; `wave::map` runs the
    // explore stage and hands expansions back in slot order, so commit
    // sees the serial wave order at any worker count. The sampling
    // decision is made here at ingress, so it depends only on slot
    // position.
    let mut explore_sampler = 0usize;
    let mut batches = 0usize;
    while !wave.is_empty() && !result.truncated {
        if bounds.deadline_expired() {
            result.truncated = true;
            break;
        }
        let mut next_wave: Vec<StateId> = Vec::new();
        let mut cs = CommitState::default();
        let wave_started = record.then(Instant::now);
        // Commits one slot; true when a deadline cut discards the rest of
        // the wave uncommitted and uncounted.
        let mut commit = |result: &mut Exploration, slot: usize, (expansion, sample)| {
            if let Some(elapsed) = sample {
                let n = match &expansion {
                    Expansion::Edges(edges) => edges.len(),
                    _ => 0,
                };
                tel.record_batch(Stage::Explore, elapsed, n);
            }
            commit_slot(
                result,
                &mut next_wave,
                bounds,
                wave[slot],
                expansion,
                &mut cs,
                record,
                tel,
                table.as_deref_mut(),
            );
            cs.deadline_cut
        };
        if wave::runs_inline(bounds.jobs, wave.len()) {
            for (slot, &id) in wave.iter().enumerate() {
                let input = (
                    result.arena.get_arc_mut(id),
                    sample_slot(record, &mut explore_sampler),
                );
                if commit(&mut result, slot, expand(&input)) {
                    break;
                }
            }
        } else {
            // Wide waves go to the workers in groups of `GROUP_CHUNKS`
            // chunks per worker.
            let group = bounds.jobs * GROUP_CHUNKS * wave::CHUNK;
            'groups: for start in (0..wave.len()).step_by(group) {
                // The inputs' state handles are dropped as soon as the
                // group is expanded, before commit.
                let expanded = {
                    let inputs: Vec<(Arc<ProgState>, bool)> = wave[start..]
                        .iter()
                        .take(group)
                        .map(|&id| {
                            (
                                result.arena.get_arc_mut(id),
                                sample_slot(record, &mut explore_sampler),
                            )
                        })
                        .collect();
                    let chunks: Vec<&[(Arc<ProgState>, bool)]> =
                        inputs.chunks(wave::CHUNK).collect();
                    batches += chunks.len();
                    wave::map(bounds.jobs, &chunks, |_, chunk| {
                        chunk.iter().map(expand).collect::<Vec<_>>()
                    })
                };
                // The lowest panicking chunk holds the lowest panicking
                // slot; the workers are already joined.
                let expanded = expanded
                    .into_iter()
                    .flat_map(|chunk| chunk.unwrap_or_else(|payload| resume_unwind(payload)));
                for (slot, out) in (start..).zip(expanded) {
                    if commit(&mut result, slot, out) {
                        break 'groups;
                    }
                }
            }
        }
        if let Some(started) = wave_started {
            // Ingress batches time a whole wave's coordination
            // (dispatch through final commit): the wave wall-time curve
            // against wave width.
            tel.record_batch(Stage::Ingress, started.elapsed(), wave.len());
        }
        wave = next_wave;
    }
    if batches > 0 {
        tel.counters_mut().add(wave::BATCHES, batches as u64);
    }
    // Spill counters surface through telemetry only: they depend on fault
    // order (and thus the worker count), so they are diagnostics, never
    // part of the byte-identity surface.
    if let Some(counters) = result.arena.spill_counters() {
        for (name, value) in counters {
            tel.counters_mut().add(name, value);
        }
    }

    // Canonical order: terminal classes are sets, not traces. Sorting makes
    // the output independent of visit order and thus of the worker count.
    result.exited.sort_unstable();
    result.assert_failures.sort_unstable();
    result.ub_states.sort_unstable();
    result.stuck.sort_unstable();
    result
}

/// Runs `program` to completion under a deterministic scheduler: the
/// lowest-numbered thread with an enabled instruction step goes first
/// (taking the first enabled nondet candidate), drains happen only when no
/// instruction step is enabled.
///
/// # Errors
///
/// Returns a message if the program deadlocks or exceeds
/// [`Bounds::max_steps`].
pub fn run_to_completion(program: &Program, bounds: &Bounds) -> Result<ProgState, String> {
    let mut state = initial_state(program)?;
    let pool = bounds.pool_for(program);
    for _ in 0..bounds.max_steps {
        if state.is_terminal() {
            return Ok(state);
        }
        let successors = enabled_steps(program, &state, &pool, bounds.max_buffer);
        let chosen = successors
            .iter()
            .find(|(step, _)| matches!(step.kind, StepKind::Instr { .. }))
            .or_else(|| successors.first());
        match chosen {
            Some((_, next)) => state = next.clone(),
            None => return Err(format!("deadlock: no enabled steps\n{state}")),
        }
    }
    Err("run did not terminate within the step bound".to_string())
}

/// Replays an explicit step sequence from the initial state, returning every
/// intermediate state. Disabled steps are errors (unlike `next_state`, which
/// stutters), making this suitable for counterexample validation.
pub fn replay(
    program: &Program,
    steps: &[Step],
    max_buffer: usize,
) -> Result<Vec<ProgState>, String> {
    let mut states = vec![initial_state(program)?];
    for (index, step) in steps.iter().enumerate() {
        let current = states.last().expect("nonempty");
        match try_step(program, current, step, max_buffer) {
            Some(next) => states.push(next),
            None => return Err(format!("step {index} is not enabled")),
        }
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use armada_lang::{check_module, parse_module};
    use std::collections::BTreeSet;

    fn program(src: &str) -> Program {
        let module = parse_module(src).expect("parse");
        let typed = check_module(&module).expect("typecheck");
        lower(&typed, &module.levels[0].name.clone()).expect("lower")
    }

    #[test]
    fn runs_sequential_program() {
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
        let final_state = run_to_completion(&p, &Bounds::small()).unwrap();
        assert_eq!(final_state.termination, Termination::Exited);
        assert_eq!(*final_state.log, vec![crate::value::Value::MathInt(5)]);
    }

    #[test]
    fn runs_two_threads_with_join() {
        let p = program(
            r#"level L {
                var x: uint32;
                void worker(v: uint32) { x := v; fence; }
                void main() {
                    var t: uint64 := create_thread worker(7);
                    join t;
                    var got: uint32 := x;
                    print(got);
                }
            }"#,
        );
        let final_state = run_to_completion(&p, &Bounds::small()).unwrap();
        assert_eq!(final_state.termination, Termination::Exited);
        assert_eq!(*final_state.log, vec![crate::value::Value::MathInt(7)]);
    }

    #[test]
    fn exploration_finds_assert_failure_in_one_interleaving() {
        // Without synchronization, the reader may observe either value;
        // asserting it sees 1 must fail in some interleaving.
        let p = program(
            r#"level L {
                var x: uint32;
                void writer() { x := 1; }
                void main() {
                    var t: uint64 := create_thread writer();
                    var got: uint32 := x;
                    assert got == 1;
                    join t;
                }
            }"#,
        );
        let exploration = explore(&p, &Bounds::small());
        assert!(
            !exploration.assert_failures.is_empty(),
            "racy assert must fail somewhere"
        );
        assert!(!exploration.exited.is_empty(), "and succeed somewhere else");
    }

    #[test]
    fn tso_store_buffering_is_observable() {
        // Writer buffers x := 1 without a fence; a reader thread may see 0
        // even after the writer's statement has executed. We detect this by
        // asserting the *writer-side* flag protocol fails without fences:
        // writer sets x then y; reader sees y==1 but x==0 — impossible under
        // SC with a same-thread order, possible under TSO? No: TSO preserves
        // FIFO order of one thread's writes. What TSO *does* allow is a
        // thread reading its own write early. We check exactly that:
        // main writes x:=1 (buffered), reads it back as 1 while the worker
        // still reads 0.
        let p = program(
            r#"level L {
                var x: uint32;
                var seen: uint32;
                void worker() { var v: uint32 := x; seen := v; fence; }
                void main() {
                    var t: uint64 := create_thread worker();
                    x := 1;
                    var mine: uint32 := x;
                    assert mine == 1;
                    join t;
                    var other: uint32 := seen;
                    print(other);
                }
            }"#,
        );
        let exploration = explore(&p, &Bounds::small());
        assert!(
            exploration.assert_failures.is_empty(),
            "own writes are always visible"
        );
        let logs: BTreeSet<_> = exploration
            .exited
            .iter()
            .map(|s| s.log.iter().map(|v| v.to_string()).collect::<Vec<_>>())
            .collect();
        // The worker may have read 0 (write still buffered) or 1 (drained).
        assert!(
            logs.contains(&vec!["0".to_string()]),
            "buffered write invisible: {logs:?}"
        );
        assert!(
            logs.contains(&vec!["1".to_string()]),
            "drained write visible: {logs:?}"
        );
    }

    #[test]
    fn ub_is_a_terminal_state() {
        let p = program(
            r#"level L {
                void main() {
                    var p: ptr<uint32> := malloc(uint32);
                    dealloc p;
                    *p := 1;
                }
            }"#,
        );
        let exploration = explore(&p, &Bounds::small());
        assert!(!exploration.ub_states.is_empty());
        assert!(exploration.exited.is_empty());
    }

    const RACY: &str = r#"level L {
        var x: uint32;
        void writer() { x := 1; }
        void main() {
            var t: uint64 := create_thread writer();
            var got: uint32 := x;
            assert got == 1;
            join t;
        }
    }"#;

    /// Two writer threads of nondeterministic TSO writes: waves reach
    /// well past the narrow-wave threshold, so `jobs > 1` runs hand
    /// chunks to `wave::map` workers (asserted through `wave.batches`).
    const WIDE: &str = r#"level L {
        var a: uint32;
        var b: uint32;
        void w1() { a := *; a := *; }
        void w2() { b := *; b := *; }
        void main() {
            var t1: uint64 := create_thread w1();
            var t2: uint64 := create_thread w2();
            join t1;
            join t2;
        }
    }"#;

    fn assert_same(serial: &Exploration, other: &Exploration, tag: &str) {
        assert_eq!(serial.arena, other.arena, "{tag}");
        assert_eq!(serial.exited, other.exited, "{tag}");
        assert_eq!(serial.assert_failures, other.assert_failures, "{tag}");
        assert_eq!(serial.ub_states, other.ub_states, "{tag}");
        assert_eq!(serial.stuck, other.stuck, "{tag}");
        assert_eq!(serial.transitions, other.transitions, "{tag}");
        assert_eq!(serial.micro_steps, other.micro_steps, "{tag}");
        assert_eq!(serial.truncated, other.truncated, "{tag}");
    }

    /// `explore` at `bounds`, asserting chunks were handed to `wave::map`
    /// workers (so the run cannot silently have stayed inline).
    fn explore_in_parallel(p: &Program, bounds: &Bounds) -> (Exploration, StageTelemetry) {
        let (e, tel) = explore_with_telemetry(p, bounds);
        assert!(
            tel.counters().get("wave.batches") > 0,
            "jobs={}: no wave ran in parallel",
            bounds.jobs
        );
        (e, tel)
    }

    #[test]
    fn wide_waves_run_in_parallel_and_match_serial() {
        let p = program(WIDE);
        for reduction in [true, false] {
            let bounds = Bounds::small().with_reduction(reduction);
            let serial = explore(&p, &bounds);
            let (parallel, _) = explore_in_parallel(&p, &bounds.clone().with_jobs(4));
            assert_same(&serial, &parallel, &format!("reduction={reduction}"));
        }
    }

    #[test]
    fn narrow_waves_run_inline_and_match_serial() {
        // RACY's waves are all narrower than the narrow-wave threshold: a
        // jobs=4 run hands no chunk to a worker and still matches exactly.
        let p = program(RACY);
        let serial = explore(&p, &Bounds::small());
        let (inline, tel) = explore_with_telemetry(&p, &Bounds::small().with_jobs(4));
        assert_same(&serial, &inline, "jobs=4");
        assert_eq!(tel.counters().get("wave.batches"), 0);
    }

    #[test]
    fn truncation_is_identical_across_job_counts() {
        // Truncation used to diverge: serial returned mid-successor-loop
        // while parallel kept draining the frontier. The wave engine
        // commits in wave order for any worker count, so the cut — and
        // every count — is deterministic. Check tiny budgets and cuts
        // inside wide waves.
        let p = program(WIDE);
        let full = explore(&p, &Bounds::small()).arena.len();
        for max_states in [1, 2, 3, 5, 8, 13, full / 3, full / 2, full - 1] {
            let mut bounds = Bounds::small();
            bounds.max_states = max_states;
            let serial = explore(&p, &bounds);
            let parallel = explore(&p, &bounds.clone().with_jobs(4));
            assert!(serial.truncated, "max_states={max_states} must truncate");
            assert!(serial.arena.len() <= max_states);
            assert_same(&serial, &parallel, &format!("max_states={max_states}"));
        }
    }

    #[test]
    fn pipeline_matches_serial_at_many_job_counts() {
        // The parallel path must reproduce the inline engine exactly at
        // any worker count.
        let p = program(WIDE);
        let serial = explore(&p, &Bounds::small());
        for jobs in [2, 3, 8] {
            let (parallel, _) = explore_in_parallel(&p, &Bounds::small().with_jobs(jobs));
            assert_same(&serial, &parallel, &format!("jobs={jobs}"));
        }
    }

    #[test]
    fn telemetry_does_not_change_the_exploration() {
        let p = program(WIDE);
        for jobs in [1, 4] {
            let bounds = Bounds::small().with_jobs(jobs);
            let plain = explore(&p, &bounds);
            let (instrumented, telemetry) = explore_with_telemetry(&p, &bounds);
            assert_same(&plain, &instrumented, &format!("jobs={jobs}"));
            assert!(
                telemetry
                    .latency(armada_runtime::telemetry::Stage::Explore)
                    .count()
                    > 0,
                "jobs={jobs}: explore stage must have latency samples"
            );
            assert_eq!(
                telemetry.counters().get("wave.batches") > 0,
                jobs > 1,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn expired_deadline_truncates_identically_across_job_counts() {
        // A zero deadline expires at the first wave boundary: every job
        // count reports just the interned root, truncated, zero edges.
        let p = program(RACY);
        for jobs in [1, 2, 8] {
            let bounds = Bounds::small()
                .with_jobs(jobs)
                .with_deadline(std::time::Duration::ZERO);
            let e = explore(&p, &bounds);
            assert!(e.truncated, "jobs={jobs}");
            assert_eq!(e.arena.len(), 1, "jobs={jobs}");
            assert_eq!(e.transitions, 0, "jobs={jobs}");
        }
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("armada-explore-{tag}-{}", std::process::id()))
    }

    #[test]
    fn spilled_exploration_is_identical_to_resident() {
        // A 1-byte cap forces every sealed page out; tiny pages force
        // sealing early. The explored space, counters, and terminal
        // classes must not change, and the spill counters must show the
        // pager actually worked.
        let p = program(WIDE);
        let plain = explore(&p, &Bounds::small());
        let dir = tmp("spill");
        for jobs in [1, 4] {
            let mut spec = crate::pager::SpillSpec::new(1, dir.clone());
            spec.page_states = 4;
            let bounds = Bounds::small().with_jobs(jobs).with_spill(spec);
            let (spilled, telemetry) = explore_with_telemetry(&p, &bounds);
            assert_same(&plain, &spilled, &format!("jobs={jobs}"));
            assert!(
                telemetry.counters().get("spill.evictions") > 0,
                "jobs={jobs}: a 1-byte cap must evict"
            );
            assert!(
                telemetry.counters().get("spill.misses") > 0,
                "jobs={jobs}: evicted pages must fault back"
            );
            assert_eq!(
                telemetry.counters().get("wave.batches") > 0,
                jobs > 1,
                "jobs={jobs}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reduction_preserves_terminal_classes() {
        let p = program(RACY);
        let with = explore(&p, &Bounds::small().with_reduction(true));
        let without = explore(&p, &Bounds::small().with_reduction(false));
        let logs = |e: &Exploration| -> BTreeSet<Vec<String>> {
            e.exited
                .iter()
                .map(|s| s.log.iter().map(|v| v.to_string()).collect())
                .collect()
        };
        let assert_pcs = |e: &Exploration| -> BTreeSet<String> {
            e.assert_failures
                .iter()
                .map(|s| format!("{:?}", s.termination))
                .collect()
        };
        assert_eq!(logs(&with), logs(&without));
        assert_eq!(assert_pcs(&with), assert_pcs(&without));
        assert_eq!(with.ub_states.is_empty(), without.ub_states.is_empty());
        assert_eq!(with.stuck.is_empty(), without.stuck.is_empty());
        // Reduction must actually shrink the explored graph here: the racy
        // program has local steps (thread-local reads of `got`).
        assert!(
            with.arena.len() <= without.arena.len(),
            "reduction should not grow the space"
        );
        assert_eq!(without.micro_steps, without.transitions);
        assert!(with.micro_steps >= with.transitions);
    }

    #[test]
    fn replay_validates_step_sequences() {
        let p = program("level L { var x: uint32; void main() { x := 1; } }");
        let steps = vec![Step::instr(crate::state::MAIN_TID)];
        let states = replay(&p, &steps, 8).unwrap();
        assert_eq!(states.len(), 2);
        // Replaying a disabled step errors.
        let bad = vec![Step::drain(crate::state::MAIN_TID)];
        assert!(replay(&p, &bad, 8).is_err());
    }
}
