//! # armada-verify
//!
//! Bounded refinement checking between two Armada levels by explicit-state
//! forward simulation.
//!
//! The paper proves refinement with generated Dafny lemmas; this crate is
//! the *semantic* half of our substitution for that toolchain (see
//! DESIGN.md): it checks, by exhaustive enumeration, that every behavior of
//! the low-level program — every interleaving, every store-buffer drain
//! schedule, every bounded nondeterministic choice — simulates some behavior
//! of the high-level program under the refinement relation `R`, allowing
//! stuttering on the high side.
//!
//! The check is an antichain-style subset construction: a product node pairs
//! a concrete low state with the *set* of high states that match it so far;
//! a low step succeeds if every successor can be matched by `0..=max_match`
//! high steps ending in `R`-related states. An empty match set yields a
//! [`Counterexample`] with the offending low-level trace.
//!
//! Combined with the per-strategy obligations of `armada-strategies`, and
//! composed across adjacent levels by transitivity ([`RefinementChain`]),
//! this regenerates the paper's end-to-end guarantee on bounded instances.
//!
//! ## The engine
//!
//! States on both sides are hash-consed into [`StateArena`]s: dense ids,
//! cached 64-bit fingerprints, `Arc`-shared state trees. Product nodes
//! carry `Arc`s and fingerprints, so seen-set probes are integer bucket
//! lookups and no state is deep-cloned on the search path.
//!
//! Match sets are hash-consed too: the expand memo's mutex also guards a
//! content-keyed table, and every set — the root's, each memo miss's, each
//! one a `--resume` loads — is replaced by the table's `Arc` for its
//! content. A set's pointer identity is therefore its content identity, so
//! commit keys set ids by pointer and the antichain tests `Arc::ptr_eq`
//! before any content scan; content is hashed only on memo misses.
//!
//! The relation reads only observations (event log + termination), so
//! every interned high state carries an *observation class* id. A memo miss
//! walks the stutter frontier once: one breadth-first walk of `max_match`
//! levels from *all* parent matches at once over the memoized high
//! successor lists, which reaches exactly the states within `max_match`
//! steps of some parent. It then evaluates the relation once per distinct
//! class among the visited states rather than once per state.
//!
//! The search records only what the verdict and the witness read: each
//! node keeps its low state's fingerprint and its edge's machine steps.
//! Human-readable step descriptions are rendered only when a
//! counterexample (or a budget or deadline trace) is built, by replaying
//! each edge of its path from the parent's state.
//!
//! With [`Bounds::reduction`] on (the default), low-side successor
//! enumeration fuses maximal runs of thread-local steps into single
//! macro-transitions (see `armada_sm::reduce`). Fused steps are invisible —
//! the log and termination are unchanged — so a fused edge's match set is a
//! superset of its parent's and can never fail by itself; the search is
//! organized in *micro-depth* buckets (a macro edge of k micro-steps lands
//! k deeper), so failures still surface at their minimal micro trace length
//! and counterexample traces (which spell out every fused micro-step)
//! remain the shortest possible. The high side is never reduced: its step
//! counting feeds the `max_match` stutter budget.
//!
//! ## Parallel search
//!
//! With [`Bounds::jobs`] > 1 the product search runs multi-core, and the
//! result is **byte-identical** to the serial run. The engine is a stage
//! pipeline (ingress → explore → subsume → commit): the calling thread
//! hands a wave's nodes to `armada_runtime::wave::map` in 16-slot chunks,
//! `jobs` workers expand them, and the results come back strictly in slot
//! order. Expansion (low-step enumeration plus match-set computation
//! against the memoized high-level graph) is the hot path. Commit is split
//! in two: a **shard-parallel subsumption phase** (`wave::map` again)
//! partitions the wave's successors by low-state fingerprint across
//! `jobs * 4` antichain shards — each shard scans its
//! successors in global wave order, so decisions match the serial scan
//! exactly (a state's antichain entries all live in its own shard; an
//! admitted set identical to the candidate is caught by pointer) — then a
//! cheap serial merge assigns match-set ids and node ids, applies the
//! `max_nodes` budget, and admits successors in the same global order.
//! Counterexample selection is deterministic by construction: all failures
//! surface in the first failing wave (so the trace is the minimal
//! micro-length), and the lexicographically-least trace wins regardless of
//! which worker found it first.

mod checkpoint;
pub mod store;
pub mod tier;

pub use checkpoint::CheckpointSpec;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use armada_proof::{Observation, RefinementRelation};
use armada_recheck::{Witness, WitnessBuilder};
use armada_runtime::telemetry::{Stage, StageTelemetry};
use armada_runtime::wave;
use armada_sm::arena::FpIdentityHasher;
use armada_sm::content::program_content;
use armada_sm::{
    initial_state, try_step, Bounds, Canonicalizer, ProgState, Program, Reducer, StateArena,
    StateId, Step, StepKind, Termination, Tid, Value,
};

/// Deterministic in-search fault injection (fuzzing only; the default
/// injects nothing). These model workers going *slow or dead* inside one
/// semantic check — a stalled refinement relation, a delayed cooperative
/// cancel, an aborted wave slot — so the checker's graceful-degradation
/// paths can be exercised reproducibly. None of them may ever change a
/// verdict relative to a fault-free run except by surfacing the documented
/// degraded outcomes (deadline expiry, a re-raised panic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckFaults {
    /// Microseconds slept at every wave boundary: a slow relation or a
    /// stalled worker. Results are unchanged; only wall-clock time grows
    /// (and a configured deadline may consequently expire).
    pub wave_stall_micros: u64,
    /// Suppress the cooperative deadline check for the first N waves (a
    /// delayed cancel). Invisible unless a deadline would have fired in the
    /// suppressed window, in which case expiry surfaces N waves late — but
    /// still at a wave boundary, still deterministically.
    pub cancel_delay_waves: usize,
    /// Panic while expanding `(wave, slot)` — an aborted worker slot. The
    /// engine re-raises the lowest failing slot's panic once the workers
    /// are joined, so the failure is identical at any job count.
    pub abort_slot: Option<(usize, usize)>,
}

impl CheckFaults {
    /// True if this configuration injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == CheckFaults::default()
    }
}

/// Configuration for the simulation search.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Bounds for both programs' step enumeration (including
    /// [`Bounds::jobs`], the checker's worker-thread count, and
    /// [`Bounds::reduction`], the low-side local-step fusion switch).
    pub bounds: Bounds,
    /// Maximum high-level steps allowed to match one low-level step.
    pub max_match: usize,
    /// Maximum product nodes to explore.
    pub max_nodes: usize,
    /// Deterministic in-search fault injection (fuzzing only). Excluded
    /// from [`store::CertKey`]: faults never change what a *successful*
    /// check certifies.
    pub faults: CheckFaults,
    /// Wave-boundary checkpointing (`--checkpoint`/`--resume` on the CLI):
    /// the product search persists crash-safely at every wave boundary,
    /// and a run with `resume` set continues from the last one instead of
    /// starting cold. A resumed check is byte-identical to an
    /// uninterrupted one. Excluded from [`store::CertKey`], like jobs and
    /// deadlines.
    pub checkpoint: Option<CheckpointSpec>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            bounds: Bounds::small(),
            max_match: 4,
            max_nodes: 200_000,
            faults: CheckFaults::default(),
            checkpoint: None,
        }
    }
}

impl SimConfig {
    /// The same configuration with `jobs` worker threads (0 clamps to 1).
    pub fn with_jobs(mut self, jobs: usize) -> SimConfig {
        self.bounds.jobs = jobs.max(1);
        self
    }

    /// The same configuration with local-step reduction on or off.
    pub fn with_reduction(mut self, reduction: bool) -> SimConfig {
        self.bounds.reduction = reduction;
        self
    }

    /// The same configuration with symmetry reduction on or off.
    pub fn with_symmetry(mut self, symmetry: bool) -> SimConfig {
        self.bounds.symmetry = symmetry;
        self
    }

    /// The same configuration with the given in-search faults (fuzzing
    /// only).
    pub fn with_faults(mut self, faults: CheckFaults) -> SimConfig {
        self.faults = faults;
        self
    }

    /// The same configuration with wave-boundary checkpointing under
    /// `spec`.
    pub fn with_checkpoint(mut self, spec: CheckpointSpec) -> SimConfig {
        self.checkpoint = Some(spec);
        self
    }
}

/// Evidence that the bounded refinement check succeeded: the certificate
/// record `armada-recheck` reads and writes, under the name the engine
/// and the pipeline use.
pub use armada_recheck::CertRecord as RefinementCert;

/// Why a refinement check failed: a genuine counterexample, or a search
/// budget ran out before the bounded state space was covered. Callers use
/// this to classify outcomes (refuted vs. budget-exhausted) without parsing
/// description strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CexKind {
    /// A real unmatched low-level behavior: refinement is *refuted* on this
    /// bounded instance.
    Refinement,
    /// The `max_nodes` product-node budget was exhausted: refinement is
    /// *unknown*, reported with the frontier trace where the search stopped.
    Budget,
    /// The wall-clock deadline ([`Bounds::deadline`]) expired at a wave
    /// boundary: refinement is *unknown*.
    Deadline,
}

impl CexKind {
    /// True for the budget-exhaustion classes (node budget or deadline),
    /// where the check degraded gracefully rather than refuting.
    pub fn is_budget(self) -> bool {
        matches!(self, CexKind::Budget | CexKind::Deadline)
    }
}

/// A failing low-level behavior with no matching high-level behavior.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Failure class (refuted vs. budget/deadline exhaustion).
    pub kind: CexKind,
    /// Human-readable failure description.
    pub description: String,
    /// The low-level step trace (instruction descriptions) to the failure.
    /// Fused macro edges are spelled out micro-step by micro-step, so the
    /// trace is identical with reduction on or off. With symmetry on,
    /// thread ids are translated back through the inverse renaming, so the
    /// rendered tids are the ones an uncanonicalized run would use.
    pub trace: Vec<String>,
    /// The machine-readable step sequence behind `trace`, in *original*
    /// (pre-canonicalization) tids: replaying it from the low program's
    /// initial state via `armada_sm::explore::replay` reproduces the
    /// failing behavior's log and termination.
    pub steps: Vec<Step>,
    /// The unmatched low-level state (the canonical representative when
    /// symmetry is on).
    pub state: ProgState,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "refinement counterexample: {}", self.description)?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}: {step}")?;
        }
        write!(f, "{}", self.state)
    }
}

/// Renders one step. `display_tid` is the tid to *print* — under symmetry
/// it is the original tid recovered through the node's inverse renaming,
/// while `step.tid` addresses the canonical state the step executes in.
fn describe_step(program: &Program, state: &ProgState, step: &Step, display_tid: Tid) -> String {
    match &step.kind {
        StepKind::Drain => format!("t{display_tid} drains one buffered write"),
        StepKind::Instr { nondets } => {
            let instr = state
                .thread(step.tid)
                .and_then(|t| program.instr_at(t.pc))
                .map(|i| i.describe())
                .unwrap_or_else(|| "<no instruction>".to_string());
            if nondets.is_empty() {
                format!("t{display_tid}: {instr}")
            } else {
                let values: Vec<String> = nondets.iter().map(|v| v.to_string()).collect();
                format!("t{display_tid}: {instr}  [nondet {}]", values.join(", "))
            }
        }
    }
}

/// Composes a parent's canonical→original tid map with the inverse renaming
/// of one more canonicalization step, producing the successor's map.
/// Fresh tids (beyond the parent map) are identity — `create_thread` hands
/// out the same numeric tid in the original and canonical runs, because
/// renaming preserves the thread count. `None` encodes the identity map.
fn compose_orig(
    parent: Option<&Arc<Vec<Tid>>>,
    inverse: Option<Vec<Tid>>,
    thread_count: usize,
) -> Option<Arc<Vec<Tid>>> {
    if parent.is_none() && inverse.is_none() {
        return None;
    }
    let mut map = Vec::with_capacity(thread_count);
    for canonical in 1..=thread_count as Tid {
        let pre = match &inverse {
            Some(inv) => inv
                .get(canonical as usize - 1)
                .copied()
                .unwrap_or(canonical),
            None => canonical,
        };
        let original = match parent {
            Some(p) => p.get(pre as usize - 1).copied().unwrap_or(pre),
            None => pre,
        };
        map.push(original);
    }
    if map.iter().enumerate().all(|(i, &t)| t == i as Tid + 1) {
        None
    } else {
        Some(Arc::new(map))
    }
}

/// Observables of a state: the event log and termination status. Every
/// refinement relation is a function of these alone (it reads an
/// [`Observation`] of each side), which is what makes match-set expansion
/// memoizable per (match-set, observables) pair and lets the high side be
/// grouped into observation classes. The log is the state's own shared
/// spine, so building a key costs a refcount bump, not a log copy.
type Obs = (Arc<[Value]>, Termination);

/// The relation's view of an owned observation.
fn view(obs: &Obs) -> Observation<'_> {
    Observation {
        log: &obs.0,
        termination: &obs.1,
    }
}

/// Locks `mutex`, tolerating poison: a panic caught in one wave slot must
/// not cascade into poison panics in the others (that would make which
/// slot "fails first" depend on worker scheduling).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A computed match set: the interned high-state ids related to a low state.
/// Every match set of a check is hash-consed through [`ExpandMemo::intern`],
/// so two sets have equal content exactly when they are the same `Arc`.
type MatchSet = Arc<BTreeSet<u32>>;

/// The expand memo and the match-set hash-cons table, behind one mutex.
///
/// Sets are created in three places only — the root's init set, a memo
/// miss, and a `--resume` load — and all three go through
/// [`ExpandMemo::intern`], so a set's pointer identity is its content
/// identity. Commit and subsumption rely on that: set ids are keyed by
/// pointer and the antichain tests `Arc::ptr_eq` before scanning content.
#[derive(Default)]
struct ExpandMemo {
    /// (match-set id, observables) → the expanded set, or `None` for a
    /// refinement failure.
    expanded: HashMap<(u32, Obs), Option<MatchSet>>,
    /// Every match set of the check, keyed by content.
    sets: HashSet<MatchSet>,
    /// Expansions actually computed (memo misses).
    misses: u64,
    /// Relation evaluations those expansions (and the root's) made.
    relates_calls: u64,
    /// High states those expansions' stutter walks (and the root's)
    /// visited.
    walk_states: u64,
}

impl ExpandMemo {
    /// Counts one expansion's work.
    fn count(&mut self, expansion: &Expansion) {
        self.relates_calls += expansion.relates_calls;
        self.walk_states += expansion.walk_states;
    }

    /// The canonical `Arc` for `set`'s content, adopting `set` if no set
    /// with that content exists yet.
    fn intern(&mut self, set: MatchSet) -> MatchSet {
        if let Some(existing) = self.sets.get(&*set) {
            return Arc::clone(existing);
        }
        self.sets.insert(Arc::clone(&set));
        set
    }
}

/// True if no two of `sets` share content — the hash-cons invariant as
/// seen from a set table.
fn distinct_content(sets: &[MatchSet]) -> bool {
    let distinct: HashSet<&BTreeSet<u32>> = sets.iter().map(|set| &**set).collect();
    distinct.len() == sets.len()
}

/// Match-set ids in commit order: a pointer-keyed id map plus the dense
/// table of sets by id. Keying by pointer is sound because every set is
/// hash-consed ([`ExpandMemo`]) and `sets` keeps each keyed `Arc` alive.
#[derive(Default)]
struct SetIds {
    by_ptr: HashMap<*const BTreeSet<u32>, u32>,
    sets: Vec<MatchSet>,
}

impl SetIds {
    /// The table a checkpoint left behind: ids are positions in `sets`.
    fn resumed(sets: Vec<MatchSet>) -> SetIds {
        SetIds {
            by_ptr: sets
                .iter()
                .enumerate()
                .map(|(id, set)| (Arc::as_ptr(set), id as u32))
                .collect(),
            sets,
        }
    }

    /// `set`'s id, assigning the next one on first sight.
    fn id_of(&mut self, set: &MatchSet) -> u32 {
        let next = self.sets.len() as u32;
        let id = *self.by_ptr.entry(Arc::as_ptr(set)).or_insert(next);
        if id == next {
            self.sets.push(Arc::clone(set));
        }
        id
    }
}

/// Memoized high-level state graph — an interned [`StateArena`], the
/// observation class of every interned state and successor lists — shared
/// across workers behind one mutex.
///
/// The numeric ids depend on interning order and so can differ between runs
/// when jobs > 1, but they are injective handles used only for set
/// membership and dedup; every *output* derived from them (certs,
/// counterexamples) is id-independent.
struct HighGraph<'a> {
    program: &'a Program,
    pool: Vec<Value>,
    max_buffer: usize,
    max_match: usize,
    arena: StateArena,
    /// Observation class of each interned state, by state id.
    class_of: Vec<u32>,
    /// Observation → class id. Class ids are dense: `classes[c]` is class
    /// `c`'s observation, sharing its `Arc` with the map key.
    class_ids: HashMap<Arc<Obs>, u32>,
    classes: Vec<Arc<Obs>>,
    successors: Vec<Option<Arc<[u32]>>>,
}

impl<'a> HighGraph<'a> {
    fn new(program: &'a Program, pool: Vec<Value>, max_buffer: usize, max_match: usize) -> Self {
        HighGraph {
            program,
            pool,
            max_buffer,
            max_match,
            arena: StateArena::new(),
            class_of: Vec::new(),
            class_ids: HashMap::new(),
            classes: Vec::new(),
            successors: Vec::new(),
        }
    }

    /// Spills the high-state arena under `spec`'s byte budget
    /// (`--mem-cap`): cold pages of interned high states evict to disk and
    /// fault back on demand. Successor lists stay resident — they hold the
    /// ids; only the state trees page.
    fn enable_spill(&mut self, spec: armada_sm::SpillSpec) -> std::io::Result<()> {
        self.arena.enable_spill(spec)
    }

    /// Interns a high state, giving a fresh one the id of its observation
    /// class (a new class if the observation is new).
    fn intern_state(&mut self, state: ProgState) -> u32 {
        let fp = StateArena::fingerprint(&state);
        if let Some(id) = self.arena.lookup_with_fp_mut(fp, &state) {
            return id.0;
        }
        let obs: Obs = (state.log.clone(), state.termination.clone());
        let class = match self.class_ids.get(&obs) {
            Some(&class) => class,
            None => {
                let class = self.classes.len() as u32;
                let obs = Arc::new(obs);
                self.classes.push(Arc::clone(&obs));
                self.class_ids.insert(obs, class);
                class
            }
        };
        let (id, _) = self.arena.intern_with_fp(fp, state);
        self.class_of.push(class);
        self.successors.push(None);
        id.0
    }

    fn successors_of(&mut self, id: u32) -> Arc<[u32]> {
        if let Some(cached) = &self.successors[id as usize] {
            return Arc::clone(cached);
        }
        // The high side is never fused: `expand_matches` counts
        // *individual* high steps against the `max_match` stutter budget,
        // and a macro edge would smuggle several steps past it.
        let state = self.arena.get_arc_mut(StateId(id));
        let ids: Arc<[u32]> =
            armada_sm::enabled_steps(self.program, &state, &self.pool, self.max_buffer)
                .into_iter()
                .map(|(_, s)| self.intern_state(s))
                .collect();
        self.successors[id as usize] = Some(Arc::clone(&ids));
        ids
    }
}

/// A dense set of high-state ids: a bitmap grown on demand that also lists
/// its members in insertion order.
#[derive(Default)]
struct IdSet {
    bits: Vec<u64>,
    members: Vec<u32>,
}

impl IdSet {
    fn insert(&mut self, id: u32) {
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.members.push(id);
        }
    }
}

/// One match-set expansion: the related high states and what computing
/// them cost.
struct Expansion {
    /// The related states, or `None` for a refinement failure.
    matches: Option<BTreeSet<u32>>,
    /// Relation evaluations: one per distinct observation class visited.
    relates_calls: u64,
    /// High states the stutter walk visited.
    walk_states: u64,
}

/// All high states reachable (within the stutter budget) from any current
/// match whose observation relates to `low`; `None` if there are none — a
/// refinement failure.
///
/// One breadth-first walk runs `max_match` levels from every parent match
/// at once. A state's distance from the set is its least distance from any
/// one parent, so the walk visits exactly the union of the per-parent
/// stutter closures. The graph's lock is taken per frontier state, only to
/// fetch (or compute and intern) its successor list, then to read the
/// visited states' classes and each distinct class's observation; the
/// relation runs outside it, once per distinct class.
fn expand_matches(
    parent_matches: &BTreeSet<u32>,
    low: Observation<'_>,
    relation: &(dyn RefinementRelation + Sync),
    high: &Mutex<HighGraph<'_>>,
) -> Expansion {
    let mut seen = IdSet::default();
    for &id in parent_matches {
        seen.insert(id);
    }
    // Level by level: `seen.members` lists the states in visit order, so
    // each level is a contiguous run of it.
    let max_match = lock(high).max_match;
    let mut level = 0..seen.members.len();
    for _ in 0..max_match {
        for i in level.clone() {
            let successors = lock(high).successors_of(seen.members[i]);
            for &next in successors.iter() {
                seen.insert(next);
            }
        }
        level = level.end..seen.members.len();
        if level.is_empty() {
            break;
        }
    }
    let classes: Vec<u32> = {
        let hg = lock(high);
        seen.members
            .iter()
            .map(|&member| hg.class_of[member as usize])
            .collect()
    };
    let mut verdicts: HashMap<u32, bool> = HashMap::new();
    for &class in &classes {
        verdicts.entry(class).or_insert_with(|| {
            let obs = Arc::clone(&lock(high).classes[class as usize]);
            relation.relates(low, view(&obs))
        });
    }
    let mut related: Vec<u32> = seen
        .members
        .iter()
        .zip(&classes)
        .filter(|&(_, class)| verdicts[class])
        .map(|(&member, _)| member)
        .collect();
    related.sort_unstable();
    Expansion {
        matches: (!related.is_empty()).then(|| related.into_iter().collect()),
        relates_calls: verdicts.len() as u64,
        walk_states: seen.members.len() as u64,
    }
}

/// One product node of the subset construction.
struct Node {
    low: Arc<ProgState>,
    /// Fingerprint of `low`, computed once when the node was expanded.
    fp: u64,
    /// Interned id of `matches` — the expand-cache key component. Assigned
    /// serially during commit, so it is deterministic.
    set_id: u32,
    matches: MatchSet,
    /// Micro-depth: total micro-steps from the initial node. Waves are
    /// processed in micro-depth order so failure traces are minimal-length
    /// with or without fusion.
    depth: usize,
    /// Parent node index; `None` at the root.
    parent: Option<usize>,
    /// The (possibly fused) low steps that reached us from `parent`, in
    /// execution order, translated to original (pre-canonicalization)
    /// tids. Counterexample traces render them only on failure (see
    /// [`describe_edge`]).
    edge_steps: Vec<Step>,
    /// Canonical→original tid map for `low` (index = canonical tid − 1);
    /// `None` is the identity. Composed along the path so every recorded
    /// step can name the tid an uncanonicalized run would use.
    orig: Option<Arc<Vec<Tid>>>,
}

/// One expanded successor of a wave node, produced by a worker.
struct SuccOut {
    /// The micro-steps of the (possibly fused) edge, translated to original
    /// tids.
    steps: Vec<Step>,
    /// Canonical→original tid map for `next` (see `Node::orig`).
    orig: Option<Arc<Vec<Tid>>>,
    /// Precomputed fingerprint of `next`, for the sharded seen-set.
    fp: u64,
    /// The successor low state (canonical representative when symmetry is
    /// on).
    next: Arc<ProgState>,
    matches: Option<MatchSet>,
}

/// Shared read-only context for expanding product nodes; everything an
/// explore worker needs besides the node itself.
struct ExpandCtx<'e, 'p> {
    low: &'p Program,
    canon: Option<&'e Canonicalizer>,
    reducer: &'e Reducer<'p>,
    pool: &'e [Value],
    bounds: &'e Bounds,
    relation: &'e (dyn RefinementRelation + Sync),
    high: &'e Mutex<HighGraph<'p>>,
    memo: &'e Mutex<ExpandMemo>,
}

/// Expands one product node: enumerates its (possibly fused) low edges and
/// computes each successor's match set. Reads only the node's own fields
/// and the shared [`ExpandCtx`].
fn expand_node(
    ctx: &ExpandCtx<'_, '_>,
    low_state: &Arc<ProgState>,
    set_id: u32,
    matches: &BTreeSet<u32>,
    orig: &Option<Arc<Vec<Tid>>>,
) -> Vec<SuccOut> {
    if low_state.is_terminal() {
        return Vec::new();
    }
    ctx.reducer
        .macro_steps(
            low_state,
            ctx.pool,
            ctx.bounds.max_buffer,
            ctx.bounds.reduction,
        )
        .into_iter()
        .map(|(macro_step, low_next)| {
            // Steps execute in the (canonical) parent's coordinates; the
            // recorded step sequence uses original tids so counterexamples
            // replay against the uncanonicalized program. Every step of a
            // macro edge runs a thread that already exists in the parent,
            // so the parent's map covers it.
            let steps = macro_step
                .steps
                .into_iter()
                .map(|step| Step {
                    tid: match orig {
                        Some(map) => map.get(step.tid as usize - 1).copied().unwrap_or(step.tid),
                        None => step.tid,
                    },
                    kind: step.kind,
                })
                .collect();
            let (low_next, inverse) = match ctx.canon {
                Some(canon) => canon.canonicalize(low_next),
                None => (low_next, None),
            };
            let orig = compose_orig(orig.as_ref(), inverse, low_next.threads.len());
            let obs: Obs = (low_next.log.clone(), low_next.termination.clone());
            let key = (set_id, obs);
            let cached = lock(ctx.memo).expanded.get(&key).cloned();
            let matches = match cached {
                Some(hit) => hit,
                None => {
                    let expansion = expand_matches(matches, view(&key.1), ctx.relation, ctx.high);
                    #[cfg(test)]
                    tests::audit_expansion(matches, &low_next, ctx, expansion.matches.as_ref());
                    let mut memo = lock(ctx.memo);
                    memo.misses += 1;
                    memo.count(&expansion);
                    let computed = expansion.matches.map(|set| memo.intern(Arc::new(set)));
                    memo.expanded.insert(key, computed.clone());
                    computed
                }
            };
            SuccOut {
                steps,
                orig,
                fp: StateArena::fingerprint(&low_next),
                next: Arc::new(low_next),
                matches,
            }
        })
        .collect()
}

/// The antichain seen-set, sharded by low-state fingerprint. Each shard
/// maps a fingerprint bucket to the low states carrying it and, per state,
/// the admitted match sets (an append-only antichain front: a new set is
/// subsumed if some admitted set is its subset).
///
/// A given low state always lands in one specific shard, so the shard count
/// cannot change any subsumption decision — it only controls how much of
/// the commit scan runs in parallel.
struct LowSeen {
    shards: Vec<Mutex<SeenShard>>,
}

type SeenShard =
    HashMap<u64, Vec<(Arc<ProgState>, Vec<MatchSet>)>, BuildHasherDefault<FpIdentityHasher>>;

impl LowSeen {
    fn new(shard_count: usize) -> LowSeen {
        LowSeen {
            shards: (0..shard_count.max(1))
                .map(|_| Mutex::new(SeenShard::default()))
                .collect(),
        }
    }

    fn shard_of(&self, fp: u64) -> usize {
        (fp % self.shards.len() as u64) as usize
    }

    /// Admits a state's match set unconditionally (used for the root).
    fn admit(&self, fp: u64, state: Arc<ProgState>, matches: MatchSet) {
        let mut shard = self.shards[self.shard_of(fp)]
            .lock()
            .expect("seen shard poisoned");
        shard.entry(fp).or_default().push((state, vec![matches]));
    }

    /// Re-admits one node's match set during checkpoint resume, merging
    /// into an existing entry for the same state (a state can appear on
    /// several antichain-incomparable nodes). Replaying admitted nodes in
    /// id order reproduces the seen-set exactly, because every entry was
    /// pushed when its node was admitted.
    fn rehydrate(&self, fp: u64, state: &Arc<ProgState>, matches: &MatchSet) {
        let mut shard = self.shards[self.shard_of(fp)]
            .lock()
            .expect("seen shard poisoned");
        let bucket = shard.entry(fp).or_default();
        match bucket.iter_mut().find(|(s, _)| **s == **state) {
            Some((_, sets)) => sets.push(Arc::clone(matches)),
            None => bucket.push((Arc::clone(state), vec![Arc::clone(matches)])),
        }
    }
}

/// Phase-A output for one wave: `true` at a successor's flat index means an
/// admitted match set subsumes it (skip admission). Shards scan on up to
/// `jobs` threads.
fn sharded_subsumption(flat: &[(usize, SuccOut)], seen: &LowSeen, jobs: usize) -> Vec<bool> {
    let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); seen.shards.len()];
    for (i, (_, succ)) in flat.iter().enumerate() {
        if succ.matches.is_some() {
            per_shard[seen.shard_of(succ.fp)].push(i);
        }
    }
    let scans = wave::map(jobs, &per_shard, |shard_idx, members| {
        let mut shard = seen.shards[shard_idx].lock().expect("seen shard poisoned");
        let mut subsumed = Vec::new();
        // Global wave order restricted to this shard: every decision about
        // a state depends only on entries for that same state, which all
        // live here — so the outcome is identical to one serial scan.
        for &i in members {
            let (_, succ) = &flat[i];
            let matches = succ.matches.as_ref().expect("filtered above");
            let bucket = shard.entry(succ.fp).or_default();
            match bucket.iter_mut().find(|(s, _)| **s == *succ.next) {
                Some((_, sets)) => {
                    // Hash-consed sets: an admitted set equal to this one
                    // is the same `Arc`, which settles the common case
                    // without a content scan.
                    if sets.iter().any(|admitted| {
                        Arc::ptr_eq(admitted, matches) || admitted.is_subset(matches)
                    }) {
                        subsumed.push(i);
                    } else {
                        sets.push(Arc::clone(matches));
                    }
                }
                None => bucket.push((Arc::clone(&succ.next), vec![Arc::clone(matches)])),
            }
        }
        subsumed
    });
    let mut out = vec![false; flat.len()];
    for scan in scans {
        for i in scan.unwrap_or_else(|payload| std::panic::resume_unwind(payload)) {
            out[i] = true;
        }
    }
    out
}

/// Checks that `low` refines `high` under `relation`, over all bounded
/// behaviors. Runs on `config.bounds.jobs` worker threads; the result is
/// byte-identical for any job count (see the module docs).
///
/// # Errors
///
/// Returns a [`Counterexample`] naming the unmatched low-level trace, or a
/// search-budget failure if `max_nodes` was exceeded (reported as a
/// counterexample with an explanatory description so callers treat it as
/// "not verified").
pub fn check_refinement(
    low: &Program,
    high: &Program,
    relation: &(dyn RefinementRelation + Sync),
    config: &SimConfig,
) -> Result<RefinementCert, Box<Counterexample>> {
    let mut tel = StageTelemetry::new();
    check_refinement_impl(
        low,
        high,
        relation,
        config,
        false,
        &mut tel,
        &mut SetIds::default(),
    )
}

/// [`check_refinement`], additionally returning the per-stage pipeline
/// telemetry (ingress/explore/subsume/commit latency and occupancy
/// histograms).
///
/// Telemetry values are wall-clock and therefore nondeterministic; the
/// verification result itself is byte-identical with and without
/// telemetry, and the telemetry flag does not enter [`store::CertKey`].
pub fn check_refinement_with_telemetry(
    low: &Program,
    high: &Program,
    relation: &(dyn RefinementRelation + Sync),
    config: &SimConfig,
) -> (Result<RefinementCert, Box<Counterexample>>, StageTelemetry) {
    let mut tel = StageTelemetry::new();
    let result = check_refinement_impl(
        low,
        high,
        relation,
        config,
        true,
        &mut tel,
        &mut SetIds::default(),
    );
    (result, tel)
}

/// The check behind both entry points. `set_ids` starts empty and ends
/// holding the search's commit-order match-set table, for tests to inspect.
fn check_refinement_impl(
    low: &Program,
    high: &Program,
    relation: &(dyn RefinementRelation + Sync),
    config: &SimConfig,
    record: bool,
    tel: &mut StageTelemetry,
    set_ids: &mut SetIds,
) -> Result<RefinementCert, Box<Counterexample>> {
    let jobs = config.bounds.jobs.max(1);
    let pool = config.bounds.pool_for(low);
    let low_init = initial_state(low).map_err(|e| {
        Box::new(Counterexample {
            kind: CexKind::Refinement,
            description: format!("low initial state: {e}"),
            trace: vec![],
            steps: vec![],
            state: initial_state(high).expect("high init"),
        })
    })?;
    let high_init = initial_state(high).map_err(|e| {
        Box::new(Counterexample {
            kind: CexKind::Refinement,
            description: format!("high initial state: {e}"),
            trace: vec![],
            steps: vec![],
            state: low_init.clone(),
        })
    })?;
    // Symmetry reduction on the low side only: the product search stores
    // canonical representatives, and every recorded step is translated back
    // through the composed inverse renaming so counterexamples replay
    // against the original program. The high side is never canonicalized —
    // match sets are computed from observables, which renaming preserves.
    let canonicalizer = Canonicalizer::new(low);
    let canon = (config.bounds.symmetry && canonicalizer.enabled()).then_some(&canonicalizer);
    let (low_init, init_inverse) = match canon {
        Some(canon) => canon.canonicalize(low_init),
        None => (low_init, None),
    };
    let root_orig = compose_orig(None, init_inverse, low_init.threads.len());

    // High states are interned so match sets are integer sets; successor
    // lists are memoized per interned state.
    let mut high_graph = HighGraph::new(
        high,
        config.bounds.pool_for(high),
        config.bounds.max_buffer,
        config.max_match,
    );
    if let Some(spec) = &config.bounds.spill {
        high_graph
            .enable_spill(spec.clone())
            .unwrap_or_else(|err| panic!("spill: creating {}: {err}", spec.dir.display()));
    }

    // Wave-boundary checkpointing. The guard covers everything that
    // determines the product graph — both programs' span-free content
    // (the encoding cert keys use), relation, semantic
    // bounds, the stutter budget — and excludes jobs, deadlines, node
    // budgets, and faults, so a resumed run may raise its budget or change
    // its worker count and still continue.
    let mut ck = config.checkpoint.as_ref().map(|spec| {
        let digest =
            |program: &Program| armada_runtime::fnv1a_64(program_content(program).as_bytes());
        let guard = checkpoint::guard(&format!(
            "{}|{:016x}|{}|{:016x}|{}|{:?}|{}|{}|{}|{}",
            low.name,
            digest(low),
            high.name,
            digest(high),
            relation.describe(),
            config.bounds.nondet_ints,
            config.bounds.max_buffer,
            config.bounds.reduction,
            config.bounds.symmetry,
            config.max_match
        ));
        checkpoint::VerifyCheckpoint::new(spec.dir.clone(), guard)
            .unwrap_or_else(|err| panic!("checkpoint: creating {}: {err}", spec.dir.display()))
    });
    let resumed = if config.checkpoint.as_ref().is_some_and(|s| s.resume) {
        ck.as_mut().and_then(|ck| ck.try_resume())
    } else {
        None
    };

    // Product search, one micro-depth bucket at a time. Parent pointers
    // give counterexample traces; antichain subsumption prunes nodes whose
    // match set is a superset of an admitted one (fewer matches is the
    // strictly harder obligation). Match sets are hash-consed and carry
    // commit-order ids, and — because every supported refinement relation
    // is a function of a state's *observables* — the expansion of a match
    // set against a low successor is memoized per (set id, observables)
    // pair. Stuttering low steps (no log change) therefore hit the memo
    // almost always.
    let mut high_graph = Mutex::new(high_graph);
    let mut memo = ExpandMemo::default();
    let reducer = Reducer::new(low);
    let mut nodes: Vec<Node> = Vec::new();
    let seen_low = LowSeen::new(jobs * 4);
    let mut pending: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut low_transitions = 0usize;
    let mut wave_index = 0usize;

    if let Some(rs) = resumed {
        // Rebuild the memoized high arena in its original interning order
        // (match-set ids index into it); successor lists recompute on
        // demand and re-intern onto the same ids. The loaded
        // sets seed the hash-cons table (the nodes already share their
        // `Arc`s, and the loader rejects duplicate content), so sets that
        // memo misses recompute resolve to the resumed ids. The seen-set
        // replays from the node table.
        let hg = high_graph.get_mut().expect("high graph poisoned");
        for state in rs.high_states {
            hg.intern_state(state);
        }
        for set in &rs.sets {
            memo.intern(Arc::clone(set));
        }
        *set_ids = SetIds::resumed(rs.sets);
        for node in &rs.nodes {
            seen_low.rehydrate(node.fp, &node.low, &node.matches);
        }
        nodes = rs.nodes;
        pending = rs.pending;
        low_transitions = rs.low_transitions;
        wave_index = rs.wave_index;
    } else {
        let high_root = high_graph
            .get_mut()
            .expect("high graph poisoned")
            .intern_state(high_init);
        let expansion = expand_matches(
            &BTreeSet::from([high_root]),
            Observation::of(&low_init),
            relation,
            &high_graph,
        );
        memo.count(&expansion);
        let Some(init_matches) = expansion.matches else {
            return Err(Box::new(Counterexample {
                kind: CexKind::Refinement,
                description: "initial states are not related by R".to_string(),
                trace: vec![],
                steps: vec![],
                state: low_init,
            }));
        };
        let low_init = Arc::new(low_init);
        let fp = StateArena::fingerprint(&low_init);
        let init_matches = memo.intern(Arc::new(init_matches));
        let set_id = set_ids.id_of(&init_matches);
        seen_low.admit(fp, Arc::clone(&low_init), Arc::clone(&init_matches));
        nodes.push(Node {
            low: low_init,
            fp,
            set_id,
            matches: init_matches,
            depth: 0,
            parent: None,
            edge_steps: vec![],
            orig: root_orig,
        });
        // Pending node ids, bucketed by micro-depth; the next wave is
        // always the shallowest bucket, so failures surface at minimal
        // trace length whether or not edges are fused.
        pending.insert(0, vec![0]);
    }
    let memo = Mutex::new(memo);

    let ctx = ExpandCtx {
        low,
        canon,
        reducer: &reducer,
        pool: &pool,
        bounds: &config.bounds,
        relation,
        high: &high_graph,
        memo: &memo,
    };

    let outcome = run_search(
        low,
        high,
        config,
        jobs,
        &ctx,
        &mut nodes,
        set_ids,
        &seen_low,
        &mut pending,
        record,
        tel,
        &mut ck,
        canon.is_some(),
        low_transitions,
        wave_index,
    );

    // A definitive verdict — verified, or refuted with a counterexample —
    // needs no resume point; budget and deadline exhaustion keep theirs so
    // a rerun with raised budgets continues instead of restarting.
    let definitive = match &outcome {
        Ok(_) => true,
        Err(cex) => !cex.kind.is_budget(),
    };
    if definitive {
        if let Some(ck) = ck.take() {
            ck.finish();
        }
    }
    // Spill, memo and graph counters are diagnostics (fault order and
    // racing memo misses depend on jobs), so they ride telemetry, never
    // the verdict.
    {
        let memo = lock(&memo);
        let hg = lock(&high_graph);
        let counters = tel.counters_mut();
        counters.add("verify.match_sets", memo.sets.len() as u64);
        counters.add("verify.expand_memo_misses", memo.misses);
        counters.add("verify.high_states", hg.arena.len() as u64);
        counters.add("verify.walk_states", memo.walk_states);
        counters.add("verify.relates_calls", memo.relates_calls);
        for (name, value) in hg.arena.spill_counters().unwrap_or_default() {
            counters.add(name, value);
        }
    }

    outcome
}

/// The wave loop of the product search; [`wave::map`] runs the explore
/// stage over `ctx`. Everything order-sensitive — subsumption, match-set
/// interning, node admission, budget cuts, counterexample selection —
/// happens here, on one thread, in global wave order.
#[allow(clippy::too_many_arguments)]
fn run_search(
    low: &Program,
    high: &Program,
    config: &SimConfig,
    jobs: usize,
    ctx: &ExpandCtx<'_, '_>,
    nodes: &mut Vec<Node>,
    set_ids: &mut SetIds,
    seen_low: &LowSeen,
    pending: &mut BTreeMap<usize, Vec<usize>>,
    record: bool,
    tel: &mut StageTelemetry,
    ck: &mut Option<checkpoint::VerifyCheckpoint>,
    symmetry_on: bool,
    mut low_transitions: usize,
    mut wave_index: usize,
) -> Result<RefinementCert, Box<Counterexample>> {
    while !pending.is_empty() {
        // Persist the boundary before touching the wave: the pending map
        // still contains it, so a crash anywhere past this point resumes
        // by redoing the wave — which commits identically, because commit
        // order is deterministic.
        if let Some(ck) = ck.as_mut() {
            let mut hg = lock(ctx.high);
            ck.save(
                nodes,
                &set_ids.sets,
                &mut hg.arena,
                pending,
                low_transitions,
                wave_index,
            );
        }
        let (_depth, wave) = pending.pop_first().expect("nonempty");
        let wave_started = record.then(Instant::now);
        // Injected slow-relation stall (fuzzing): burns wall-clock time at
        // the boundary, exactly where a slow relation or a descheduled
        // worker would; results must be unchanged.
        if config.faults.wave_stall_micros > 0 {
            std::thread::sleep(std::time::Duration::from_micros(
                config.faults.wave_stall_micros,
            ));
        }
        // Cooperative deadline: checked only at wave boundaries, so the
        // check degrades gracefully (a trace of the first-admitted frontier
        // node, deterministic for the wave it fires in) instead of hanging
        // or cutting a wave at a scheduling-dependent point. An injected
        // cancel delay (fuzzing) suppresses the check for the first N
        // waves; expiry then surfaces late but still deterministically.
        if wave_index >= config.faults.cancel_delay_waves && config.bounds.deadline_expired() {
            let node_id = wave[0];
            let (trace, steps) = path_to(ctx, nodes, node_id);
            return Err(Box::new(Counterexample {
                kind: CexKind::Deadline,
                description: format!(
                    "wall-clock deadline exceeded ({} product nodes explored); \
                     refinement NOT verified",
                    nodes.len()
                ),
                trace,
                steps,
                state: (*nodes[node_id].low).clone(),
            }));
        }

        // Explore phase: expand every wave node, in 16-slot chunks on
        // `wave::map` unless the wave is narrow, flattening the
        // successors to global wave order: (parent node id, successor).
        // Every slot is timed — a product-node expansion is heavy enough
        // that sampling would only blur the histogram — and the samples
        // travel back with their chunk's successors. The lowest panicking
        // slot stops the search, re-raised here once the workers are
        // joined.
        let abort_slot = config
            .faults
            .abort_slot
            .filter(|&(wave_at, _)| wave_at == wave_index)
            .map(|(_, slot)| slot);
        wave_index += 1;
        let workers = if wave::runs_inline(jobs, wave.len()) {
            1
        } else {
            jobs
        };
        let chunks: Vec<&[usize]> = wave.chunks(wave::CHUNK).collect();
        let wave_nodes: &[Node] = nodes;
        let expanded = wave::map(workers, &chunks, |chunk_index, chunk| {
            let mut succs: Vec<(usize, SuccOut)> = Vec::new();
            let mut samples = Vec::new();
            for (offset, &id) in chunk.iter().enumerate() {
                let slot = chunk_index * wave::CHUNK + offset;
                if abort_slot == Some(slot) {
                    panic!("injected fault: worker slot {slot} aborted");
                }
                let started = record.then(Instant::now);
                let node = &wave_nodes[id];
                let successors =
                    expand_node(ctx, &node.low, node.set_id, &node.matches, &node.orig);
                if let Some(started) = started {
                    samples.push((started.elapsed(), successors.len()));
                }
                succs.extend(successors.into_iter().map(|succ| (id, succ)));
            }
            (succs, samples)
        });
        if workers > 1 {
            tel.counters_mut().add(wave::BATCHES, chunks.len() as u64);
        }
        let mut flat: Vec<(usize, SuccOut)> = Vec::new();
        for expanded in expanded {
            let (succs, samples) =
                expanded.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (elapsed, n) in samples {
                tel.record_batch(Stage::Explore, elapsed, n);
            }
            flat.extend(succs);
        }

        // Commit phase A (shard-parallel): antichain subsumption per
        // low-state fingerprint shard, decisions identical to a serial
        // scan (see `LowSeen`). Inline whenever the explore phase was.
        let subsume_started = record.then(Instant::now);
        let subsumed = sharded_subsumption(&flat, seen_low, workers);
        if let Some(started) = subsume_started {
            tel.record_batch(Stage::Subsume, started.elapsed(), flat.len());
        }

        // Commit phase B (serial merge): collect refinement failures
        // (parent node, failing edge, unmatched state), apply the node
        // budget, and admit successors in global wave order — set ids,
        // node ids, and the budget cut point are all deterministic.
        let commit_started = record.then(Instant::now);
        let nodes_before = nodes.len();
        let mut failures: Vec<(usize, Vec<Step>, Arc<ProgState>)> = Vec::new();
        let mut budget_failure: Option<Box<Counterexample>> = None;
        for (i, (node_id, succ)) in flat.into_iter().enumerate() {
            low_transitions += succ.steps.len();
            let Some(new_matches) = succ.matches else {
                failures.push((node_id, succ.steps, succ.next));
                continue;
            };
            if budget_failure.is_some() {
                continue;
            }
            if subsumed[i] {
                continue;
            }
            if nodes.len() >= config.max_nodes {
                let (trace, steps) = path_to(ctx, nodes, node_id);
                budget_failure = Some(Box::new(Counterexample {
                    kind: CexKind::Budget,
                    description: format!(
                        "search budget exceeded ({} product nodes); refinement NOT verified",
                        config.max_nodes
                    ),
                    trace,
                    steps,
                    state: (*succ.next).clone(),
                }));
                continue;
            }
            let set_id = set_ids.id_of(&new_matches);
            let id = nodes.len();
            let depth = nodes[node_id].depth + succ.steps.len();
            nodes.push(Node {
                low: succ.next,
                fp: succ.fp,
                set_id,
                matches: new_matches,
                depth,
                parent: Some(node_id),
                edge_steps: succ.steps,
                orig: succ.orig,
            });
            pending.entry(depth).or_default().push(id);
        }
        if let Some(started) = commit_started {
            tel.record_batch(Stage::Commit, started.elapsed(), nodes.len() - nodes_before);
        }
        if let Some(started) = wave_started {
            tel.record_batch(Stage::Ingress, started.elapsed(), wave.len());
        }

        // Deterministic counterexample selection: every failure surfaces in
        // the first failing wave (all traces end at the same, minimal
        // micro-depth); the lexicographically-least rendered trace wins, so
        // parallel and serial runs report the identical counterexample.
        // Refinement failures take precedence over a budget failure within
        // the same wave.
        if !failures.is_empty() {
            let (trace, state, steps) = failures
                .into_iter()
                .map(|(node_id, edge, state)| {
                    let (mut trace, mut steps) = path_to(ctx, nodes, node_id);
                    trace.extend(describe_edge(ctx, &nodes[node_id], &edge));
                    steps.extend(edge);
                    (trace, state, steps)
                })
                .min_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)))
                .expect("nonempty");
            let desc = trace.last().cloned().unwrap_or_default();
            return Err(Box::new(Counterexample {
                kind: CexKind::Refinement,
                description: format!("no high-level behavior matches after `{desc}`"),
                trace,
                steps,
                state: (*state).clone(),
            }));
        }
        if let Some(budget) = budget_failure {
            return Err(budget);
        }
    }

    let witness = emit_witness(
        nodes,
        ctx.high,
        symmetry_on,
        config.bounds.max_buffer,
        wave_index,
    );
    Ok(RefinementCert {
        low: low.name.clone(),
        high: high.name.clone(),
        product_nodes: nodes.len(),
        low_transitions,
        witness,
    })
}

/// `steps`, recorded in original tids, mapped back into the canonical
/// coordinates of `parent`, the node they leave, by undoing its
/// canonical→original map. Every step of a macro edge runs a thread that
/// already exists in the parent, so the map is total over the edge and
/// position search inverts it exactly.
fn canonical_steps(parent: &Node, steps: &[Step]) -> Vec<Step> {
    steps
        .iter()
        .map(|step| Step {
            tid: match parent.orig.as_deref() {
                None => step.tid,
                Some(map) => map
                    .iter()
                    .position(|&t| t == step.tid)
                    .map(|pos| pos as Tid + 1)
                    .unwrap_or(step.tid),
            },
            kind: step.kind.clone(),
        })
        .collect()
}

/// Renders the micro-steps of one edge leaving `parent`. The steps are
/// replayed with `try_step` from the parent's state in its canonical
/// coordinates, so each is described against the same pre-state the
/// search executed it in, and printed under its original tid.
fn describe_edge(ctx: &ExpandCtx<'_, '_>, parent: &Node, steps: &[Step]) -> Vec<String> {
    let raw = canonical_steps(parent, steps);
    let mut descs = Vec::with_capacity(raw.len());
    let mut pre = std::borrow::Cow::Borrowed(&*parent.low);
    for (i, (step, shown)) in raw.iter().zip(steps).enumerate() {
        descs.push(describe_step(ctx.low, &pre, step, shown.tid));
        if i + 1 < raw.len() {
            let next = try_step(ctx.low, &pre, step, ctx.bounds.max_buffer);
            pre = std::borrow::Cow::Owned(next.expect("a recorded edge replays"));
        }
    }
    descs
}

/// The rendered trace and the original-tid steps from the root to `node`.
fn path_to(ctx: &ExpandCtx<'_, '_>, nodes: &[Node], node: usize) -> (Vec<String>, Vec<Step>) {
    let mut edges = Vec::new();
    let mut at = node;
    while let Some(parent) = nodes[at].parent {
        edges.push((parent, at));
        at = parent;
    }
    let mut trace = Vec::new();
    let mut steps = Vec::new();
    for &(parent, child) in edges.iter().rev() {
        trace.extend(describe_edge(ctx, &nodes[parent], &nodes[child].edge_steps));
        steps.extend(nodes[child].edge_steps.iter().cloned());
    }
    (trace, steps)
}

/// Emits the machine-checkable witness from the finished product graph.
/// Everything recorded is deterministic across job counts: node ids and
/// edge order come from the serial commit phase, and states enter as
/// content *fingerprints* — interned numeric ids (which do depend on
/// exploration interleaving) never reach the witness. Match-set digests
/// hash member fingerprints in sorted order for the same reason.
fn emit_witness(
    nodes: &[Node],
    high_graph: &Mutex<HighGraph<'_>>,
    symmetry_on: bool,
    max_buffer: usize,
    waves: usize,
) -> Witness {
    let hg = lock(high_graph);
    let mut set_digests: HashMap<u32, u64> = HashMap::new();
    let mut set_digest_of = |node: &Node| -> u64 {
        if let Some(&digest) = set_digests.get(&node.set_id) {
            return digest;
        }
        let mut fps: Vec<u64> = node
            .matches
            .iter()
            .map(|&h| hg.arena.fp_of(StateId(h)))
            .collect();
        fps.sort_unstable();
        let digest = armada_recheck::set_digest(&fps);
        set_digests.insert(node.set_id, digest);
        digest
    };
    fn renaming_of(node: &Node) -> &[Tid] {
        node.orig.as_deref().map_or(&[], Vec::as_slice)
    }
    let root = &nodes[0];
    let mut builder = WitnessBuilder::new(
        symmetry_on,
        max_buffer as u64,
        renaming_of(root).to_vec(),
        root.fp,
        set_digest_of(root),
    );
    let mut max_depth = 0u64;
    for node in &nodes[1..] {
        max_depth = max_depth.max(node.depth as u64);
        let parent_id = node.parent.expect("non-root node has a parent");
        // The witness wants the steps in the *parent's canonical
        // coordinates*: what `try_step` executes during recheck.
        builder.push_node(
            parent_id as u32,
            node.fp,
            set_digest_of(node),
            &canonical_steps(&nodes[parent_id], &node.edge_steps),
            renaming_of(node),
        );
    }
    builder.seal(true, waves as u64, max_depth)
}

/// A transitively composed refinement result across a series of levels
/// (implementation at index 0, specification last), mirroring Figure 1's
/// final transitivity step.
#[derive(Debug, Clone)]
pub struct RefinementChain {
    /// Level names, concrete to abstract.
    pub levels: Vec<String>,
    /// Per-adjacent-pair certificates.
    pub certs: Vec<RefinementCert>,
}

impl RefinementChain {
    /// Composes per-pair certificates into an end-to-end statement.
    ///
    /// # Errors
    ///
    /// Returns a message if the certificates do not form a chain.
    pub fn compose(certs: Vec<RefinementCert>) -> Result<RefinementChain, String> {
        if certs.is_empty() {
            return Err("empty refinement chain".to_string());
        }
        let mut levels = vec![certs[0].low.clone()];
        for cert in &certs {
            if cert.low != *levels.last().expect("nonempty") {
                return Err(format!(
                    "chain break: expected a certificate from `{}`, got `{}` ⊑ `{}`",
                    levels.last().expect("nonempty"),
                    cert.low,
                    cert.high
                ));
            }
            levels.push(cert.high.clone());
        }
        Ok(RefinementChain { levels, certs })
    }

    /// The end-to-end claim, e.g. `Implementation ⊑ Specification`.
    pub fn claim(&self) -> String {
        format!(
            "{} ⊑ {}",
            self.levels.first().expect("nonempty"),
            self.levels.last().expect("nonempty")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::ast::{PredicateSource, RelationKind};
    use armada_lang::{check_module, parse_module};
    use armada_proof::relation::StandardRelation;
    use armada_sm::lower;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::panic::AssertUnwindSafe;

    thread_local! {
        /// Memo misses [`audit_expansion`] has cross-checked on this
        /// thread, or `None` while the audit is off (the default).
        static AUDITED: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// Checks one memo miss's class-indexed expansion against
    /// [`member_scan`]. A no-op unless the running test turned the audit
    /// on; such a test checks at jobs = 1, so every expansion runs on the
    /// test's own thread.
    pub(super) fn audit_expansion(
        parent: &BTreeSet<u32>,
        low: &ProgState,
        ctx: &ExpandCtx<'_, '_>,
        computed: Option<&BTreeSet<u32>>,
    ) {
        let Some(audited) = AUDITED.get() else {
            return;
        };
        let scanned = member_scan(parent, low, ctx.relation, ctx.high);
        assert_eq!(
            computed,
            scanned.as_ref(),
            "class-indexed expansion differs from the member scan"
        );
        AUDITED.set(Some(audited + 1));
    }

    /// The expansion without observation classes: a breadth-first stutter
    /// closure per parent match, and the relation applied to the
    /// observation of every member's own state.
    fn member_scan(
        parent: &BTreeSet<u32>,
        low: &ProgState,
        relation: &(dyn RefinementRelation + Sync),
        high: &Mutex<HighGraph<'_>>,
    ) -> Option<BTreeSet<u32>> {
        let mut hg = lock(high);
        let mut related = BTreeSet::new();
        for &root in parent {
            let mut closure = BTreeSet::from([root]);
            let mut frontier = VecDeque::from([(root, 0)]);
            while let Some((current, depth)) = frontier.pop_front() {
                if depth < hg.max_match {
                    for &next in hg.successors_of(current).iter() {
                        if closure.insert(next) {
                            frontier.push_back((next, depth + 1));
                        }
                    }
                }
            }
            for member in closure {
                let state = hg.arena.get_arc_mut(StateId(member));
                if relation.relates(Observation::of(low), Observation::of(&state)) {
                    related.insert(member);
                }
            }
        }
        (!related.is_empty()).then_some(related)
    }

    fn programs(src: &str, low: &str, high: &str) -> (Program, Program) {
        let module = parse_module(src).expect("parse");
        let typed = check_module(&module).expect("typecheck");
        (
            lower(&typed, low).expect("lower low"),
            lower(&typed, high).expect("lower high"),
        )
    }

    #[test]
    fn identical_programs_refine() {
        let (low, high) = programs(
            r#"
            level A { var x: uint32; void main() { x := 1; print(x); } }
            level B { var x: uint32; void main() { x := 1; print(x); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let cert = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
        assert!(cert.product_nodes >= 1);
    }

    #[test]
    fn weakened_guard_refines() {
        // The high level replaces a concrete guard with `*`: every low
        // behavior is a high behavior (§2.2's ArbitraryGuard).
        let (low, high) = programs(
            r#"
            level Impl {
                var x: uint32;
                void main() {
                    var t: uint32 := x;
                    if (t < 1) { print(1); } else { print(2); }
                }
            }
            level Weak {
                var x: uint32;
                void main() {
                    var t: uint32 := x;
                    if (*) { print(1); } else { print(2); }
                }
            }
            "#,
            "Impl",
            "Weak",
        );
        let relation = StandardRelation::log_prefix();
        check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
    }

    #[test]
    fn diverging_output_is_a_counterexample() {
        let (low, high) = programs(
            r#"
            level A { void main() { print(1); } }
            level B { void main() { print(2); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let err = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap_err();
        assert!(err.description.contains("no high-level behavior"));
        assert!(!err.trace.is_empty());
        assert!(err.to_string().contains("counterexample"));
    }

    #[test]
    fn somehow_spec_admits_implementation() {
        // The spec "somehow prints a value >= 0" simulates the concrete
        // implementation printing 1.
        let (low, high) = programs(
            r#"
            level Impl {
                void main() { print(1); }
            }
            level Spec {
                ghost var v: int;
                void main() {
                    somehow modifies v ensures v >= 0;
                    print(v);
                }
            }
            "#,
            "Impl",
            "Spec",
        );
        let relation = StandardRelation::log_prefix();
        check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
    }

    #[test]
    fn reverse_direction_fails() {
        // The spec has more behaviors than the impl; checking spec ⊑ impl
        // must fail.
        let (low, high) = programs(
            r#"
            level Impl { void main() { print(1); } }
            level Spec {
                void main() { if (*) { print(1); } else { print(0); } }
            }
            "#,
            "Spec",
            "Impl",
        );
        let relation = StandardRelation::log_prefix();
        assert!(check_refinement(&low, &high, &relation, &SimConfig::default()).is_err());
    }

    #[test]
    fn concurrent_low_level_refines_atomic_spec() {
        // Two workers each print once under a guard; the spec prints the
        // two values in some order nondeterministically.
        let (low, high) = programs(
            r#"
            level Impl {
                void worker(v: uint32) { print(v); }
                void main() {
                    var a: uint64 := create_thread worker(1);
                    var b: uint64 := create_thread worker(2);
                    join a;
                    join b;
                }
            }
            level Spec {
                void main() {
                    if (*) { print(1); print(2); } else { print(2); print(1); }
                }
            }
            "#,
            "Impl",
            "Spec",
        );
        let relation = StandardRelation::log_prefix();
        check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
    }

    #[test]
    fn parallel_check_matches_serial() {
        // Success: certificates (node and transition counts included) must
        // be identical for any job count, with reduction on and off.
        let (low, high) = programs(
            r#"
            level Impl {
                void worker(v: uint32) { print(v); }
                void main() {
                    var a: uint64 := create_thread worker(1);
                    var b: uint64 := create_thread worker(2);
                    join a;
                    join b;
                }
            }
            level Spec {
                void main() {
                    if (*) { print(1); print(2); } else { print(2); print(1); }
                }
            }
            "#,
            "Impl",
            "Spec",
        );
        let relation = StandardRelation::log_prefix();
        for reduction in [true, false] {
            let config = SimConfig::default().with_reduction(reduction);
            let serial = check_refinement(&low, &high, &relation, &config).unwrap();
            let parallel =
                check_refinement(&low, &high, &relation, &config.clone().with_jobs(4)).unwrap();
            assert_eq!(serial, parallel, "reduction={reduction}");
        }

        // Failure: the reported counterexample must render byte-identically.
        let (low, high) = programs(
            r#"
            level A { void main() { if (*) { print(1); } else { print(3); } } }
            level B { void main() { print(2); } }
            "#,
            "A",
            "B",
        );
        let serial = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap_err();
        let parallel = check_refinement(&low, &high, &relation, &SimConfig::default().with_jobs(4))
            .unwrap_err();
        assert_eq!(serial.to_string(), parallel.to_string());
    }

    #[test]
    fn wide_waves_run_in_parallel_and_match_serial() {
        // Two writer threads of nondeterministic TSO writes, refined by
        // an identical copy: product waves reach well past the
        // narrow-wave threshold, so jobs=4 hands chunks to `wave::map`
        // workers (asserted through `wave.batches`) and must still
        // produce the identical certificate, witness included.
        let level = |name: &str| {
            format!(
                "level {name} {{
                    var a: uint32;
                    var b: uint32;
                    void w1() {{ a := *; }}
                    void w2() {{ b := *; }}
                    void main() {{
                        var t1: uint64 := create_thread w1();
                        var t2: uint64 := create_thread w2();
                        join t1;
                        join t2;
                        var x: uint32 := a;
                        var y: uint32 := b;
                        print(x, y);
                    }}
                }}"
            )
        };
        let (low, high) = programs(&(level("Impl") + &level("Spec")), "Impl", "Spec");
        let relation = StandardRelation::log_prefix();
        let serial = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
        let config = SimConfig::default().with_jobs(4);
        let (parallel, tel) = check_refinement_with_telemetry(&low, &high, &relation, &config);
        assert_eq!(serial, parallel.unwrap());
        assert!(
            tel.counters().get("wave.batches") > 0,
            "no wave ran in parallel"
        );
    }

    const CONCURRENT_PAIR: &str = r#"
            level Impl {
                void worker(v: uint32) { print(v); }
                void main() {
                    var a: uint64 := create_thread worker(1);
                    var b: uint64 := create_thread worker(2);
                    join a;
                    join b;
                }
            }
            level Spec {
                void main() {
                    if (*) { print(1); print(2); } else { print(2); print(1); }
                }
            }
            "#;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("armada-verify-{tag}-{}", std::process::id()))
    }

    #[test]
    fn spilled_check_matches_resident() {
        // A tiny mem-cap forces the high-state arena through the pager;
        // certificates and counterexample renderings must not change.
        let (low, high) = programs(CONCURRENT_PAIR, "Impl", "Spec");
        let relation = StandardRelation::log_prefix();
        let plain = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
        let dir = tmp("spill");
        for jobs in [1, 4] {
            let mut spec = armada_sm::SpillSpec::new(1, dir.clone());
            spec.page_states = 2;
            let mut config = SimConfig::default().with_jobs(jobs);
            config.bounds.spill = Some(spec);
            let (result, tel) = check_refinement_with_telemetry(&low, &high, &relation, &config);
            assert_eq!(plain, result.unwrap(), "jobs={jobs}");
            assert!(
                tel.counters().get("spill.evictions") > 0,
                "jobs={jobs}: a 1-byte cap must evict high pages"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_check_matches_uninterrupted() {
        let (low, high) = programs(CONCURRENT_PAIR, "Impl", "Spec");
        let relation = StandardRelation::log_prefix();
        let plain = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
        for jobs in [1, 4] {
            let dir = tmp(&format!("resume-{jobs}"));
            let _ = std::fs::remove_dir_all(&dir);
            let spec = CheckpointSpec::new(dir.clone());

            // Interrupted: a zero deadline fires at the first boundary,
            // after the boundary checkpoint landed.
            let mut cut_config = SimConfig::default().with_jobs(jobs);
            cut_config.bounds = cut_config.bounds.with_deadline(std::time::Duration::ZERO);
            cut_config.checkpoint = Some(spec.clone());
            let cut = check_refinement(&low, &high, &relation, &cut_config).unwrap_err();
            assert_eq!(cut.kind, CexKind::Deadline, "jobs={jobs}");

            // Resumed without the deadline: identical certificate, and a
            // definitive verdict clears the checkpoint.
            let mut resume_config = SimConfig::default().with_jobs(jobs);
            resume_config.checkpoint = Some(spec.clone().with_resume(true));
            let resumed = check_refinement(&low, &high, &relation, &resume_config).unwrap();
            assert_eq!(plain, resumed, "jobs={jobs}");
            assert!(
                !dir.join("manifest.bin").exists(),
                "jobs={jobs}: a verified check clears its checkpoint"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_mid_search_reseeds_the_match_set_table() {
        // Cut a check that verifies after several waves, with non-root
        // match sets already admitted, then resume it with the default
        // budget: the resumed sets seed the hash-cons table, so sets that
        // memo misses recompute resolve to their resumed ids.
        let (low, high) = programs(CONCURRENT_PAIR, "Impl", "Spec");
        let relation = StandardRelation::log_prefix();
        let base = SimConfig::default().with_reduction(false);
        let plain = check_refinement(&low, &high, &relation, &base).unwrap();
        for jobs in [1, 4] {
            let dir = tmp(&format!("resume-mid-{jobs}"));
            let _ = std::fs::remove_dir_all(&dir);
            let spec = CheckpointSpec::new(dir.clone());

            // 15 of the check's 26 nodes: the cut lands four waves deep.
            let mut cut_config = base.clone().with_jobs(jobs);
            cut_config.max_nodes = 15;
            cut_config.checkpoint = Some(spec.clone());
            let mut tel = StageTelemetry::new();
            let mut cut_ids = SetIds::default();
            let cut = check_refinement_impl(
                &low,
                &high,
                &relation,
                &cut_config,
                false,
                &mut tel,
                &mut cut_ids,
            )
            .unwrap_err();
            assert_eq!(cut.kind, CexKind::Budget, "jobs={jobs}");
            assert!(cut.trace.len() >= 3, "jobs={jobs}: cut after several waves");
            assert!(
                cut_ids.sets.len() > 1,
                "jobs={jobs}: the checkpoint holds non-root sets"
            );

            let mut resume_config = base.clone().with_jobs(jobs);
            resume_config.checkpoint = Some(spec.with_resume(true));
            let mut ids = SetIds::default();
            let resumed = check_refinement_impl(
                &low,
                &high,
                &relation,
                &resume_config,
                false,
                &mut tel,
                &mut ids,
            )
            .unwrap();
            assert_eq!(plain, resumed, "jobs={jobs}");
            assert!(
                distinct_content(&ids.sets),
                "jobs={jobs}: two set ids share content"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn queue_match_sets_are_hash_consed() {
        // The queue case study's `Weak ⊑ Spec` pair, the corpus's heaviest
        // check: every admitted set comes from the hash-cons table, which
        // grows only on memo misses (plus the root's init set).
        let (low, high) = programs(queue_model(), "Weak", "Spec");
        let relation = StandardRelation::log_prefix();
        let mut tel = StageTelemetry::new();
        let mut ids = SetIds::default();
        check_refinement_impl(
            &low,
            &high,
            &relation,
            &SimConfig::default(),
            true,
            &mut tel,
            &mut ids,
        )
        .unwrap();
        let match_sets = tel.counters().get("verify.match_sets");
        let misses = tel.counters().get("verify.expand_memo_misses");
        assert!(
            match_sets <= misses + 1,
            "{match_sets} sets from {misses} memo misses"
        );
        assert!(ids.sets.len() as u64 <= match_sets);
        assert!(distinct_content(&ids.sets), "two set ids share content");
    }

    /// A case study's model-scale source. `armada-cases` depends on this
    /// crate, so the constant is sliced out of its source file.
    fn model(file: &'static str) -> &'static str {
        let open = "pub const MODEL: &str = r#\"";
        let start = file.find(open).expect("MODEL constant") + open.len();
        let len = file[start..].find("\"#;").expect("MODEL terminator");
        &file[start..start + len]
    }

    fn queue_model() -> &'static str {
        model(include_str!("../../cases/src/queue.rs"))
    }

    fn barrier_model() -> &'static str {
        model(include_str!("../../cases/src/barrier.rs"))
    }

    #[test]
    fn queue_cemented_check_relates_observation_classes() {
        // The queue's `Cemented ⊑ Weak` pair interns tens of thousands of
        // high states but sees only a handful of distinct observations, so
        // the relation runs once per class, not once per closure member.
        let (low, high) = programs(queue_model(), "Cemented", "Weak");
        let relation = StandardRelation::log_prefix();
        let (result, tel) =
            check_refinement_with_telemetry(&low, &high, &relation, &SimConfig::default());
        result.unwrap();
        assert_eq!(tel.counters().get("verify.high_states"), 25_996);
        let calls = tel.counters().get("verify.relates_calls");
        assert!(calls < 100, "{calls} relation calls");
    }

    #[test]
    fn class_indexed_expansion_matches_member_scan() {
        // Every memo miss, cross-checked against the per-member scan: the
        // two heavy `Cemented ⊑ Weak` pairs, a custom relation that sees
        // only log lengths, and low sides that fail an assertion or reach
        // UB (the relation's UB conjunct).
        let custom = |text: &str| {
            StandardRelation::new(RelationKind::Custom(PredicateSource {
                text: text.to_string(),
                expr: armada_lang::parse_expr(text).unwrap(),
            }))
        };
        let crashing = r#"
            level A {
                void worker(v: uint32) { print(v); }
                void main() {
                    var a: uint64 := create_thread worker(1);
                    var x: uint32 := *;
                    if (x < 1) { assert false; }
                    if (x < 2) {
                        var p: ptr<uint32> := malloc(uint32);
                        dealloc p;
                        *p := 1;
                    }
                    join a;
                    print(x);
                }
            }
            level B {
                void main() {
                    if (*) { print(1); }
                    var x: uint32 := *;
                    if (*) { assert false; }
                    if (*) {
                        var p: ptr<uint32> := malloc(uint32);
                        dealloc p;
                        *p := 2;
                    }
                    print(x);
                }
            }
        "#;
        let subjects = [
            (
                queue_model(),
                "Cemented",
                "Weak",
                StandardRelation::log_prefix(),
            ),
            (
                barrier_model(),
                "Cemented",
                "Weak",
                StandardRelation::log_prefix(),
            ),
            (
                CONCURRENT_PAIR,
                "Impl",
                "Spec",
                custom("len(low_log) <= len(high_log)"),
            ),
            (crashing, "A", "B", StandardRelation::log_prefix()),
            (
                crashing,
                "A",
                "B",
                StandardRelation::new(RelationKind::LogEqualAtExit),
            ),
        ];
        for (src, low, high, relation) in subjects {
            let (low, high) = programs(src, low, high);
            AUDITED.set(Some(0));
            // The verdict is beside the point; each miss is audited.
            let _ = check_refinement(&low, &high, &relation, &SimConfig::default());
            let audited = AUDITED.replace(None).expect("audit on");
            assert!(audited > 0, "{}: no memo miss audited", relation.describe());
        }
    }

    #[test]
    fn multi_source_walk_keeps_states_within_budget_of_the_nearer_parent() {
        // A straight-line high program: its states form one chain
        // s0 → s1 → …, and nothing prints, so log-prefix relates every one
        // of them to an empty low log. With parents {s0, s2} and a budget of
        // 2, s4 lies 4 steps from s0 but 2 from s2 (kept), while s5 lies
        // beyond the budget of both (dropped).
        let (low, high) = programs(
            r#"
            level H {
                void main() {
                    var a: uint32 := 0;
                    a := 1;
                    a := 2;
                    a := 3;
                    a := 4;
                    a := 5;
                }
            }
            "#,
            "H",
            "H",
        );
        let bounds = Bounds::small();
        let mut hg = HighGraph::new(&high, bounds.pool_for(&high), bounds.max_buffer, 2);
        let mut chain = vec![hg.intern_state(initial_state(&high).unwrap())];
        while chain.len() < 6 {
            let next = hg.successors_of(*chain.last().unwrap());
            assert_eq!(next.len(), 1, "one successor per state");
            chain.push(next[0]);
        }
        assert_eq!(
            BTreeSet::from_iter(chain.iter()).len(),
            6,
            "no state repeats"
        );
        let high_graph = Mutex::new(hg);
        let parents = BTreeSet::from([chain[0], chain[2]]);
        let low_state = initial_state(&low).unwrap();
        let relation = StandardRelation::log_prefix();
        let expansion = expand_matches(
            &parents,
            Observation::of(&low_state),
            &relation,
            &high_graph,
        );
        let matches = expansion.matches.expect("every state relates");
        assert!(matches.contains(&chain[4]), "s4 is within budget of s2");
        assert!(!matches.contains(&chain[5]), "s5 is beyond budget of both");
        assert_eq!(matches, chain[..5].iter().copied().collect());
        // s2 lies in both parents' closures but is walked once, and the
        // five states share one observation class.
        assert_eq!(expansion.walk_states, 5);
        assert_eq!(expansion.relates_calls, 1);
        assert_eq!(
            Some(matches),
            member_scan(&parents, &low_state, &relation, &high_graph)
        );
    }

    #[test]
    fn checkpoint_in_the_earlier_record_layout_starts_cold() {
        // The guard folds the record layout in, so a manifest guarded
        // without it (the hash of the bare field text, as checkpoints in the
        // earlier layout were) fails the guard check and is cleared instead
        // of being misread.
        let fields = "Impl|Spec|R|[0, 1]|2|true|true|4";
        let earlier = armada_runtime::fnv1a_64(fields.as_bytes());
        let dir = tmp("ck-layout");
        let _ = std::fs::remove_dir_all(&dir);
        checkpoint::VerifyCheckpoint::new(dir.clone(), earlier)
            .unwrap()
            .save(&[], &[], &mut StateArena::new(), &BTreeMap::new(), 0, 0);
        let mut current =
            checkpoint::VerifyCheckpoint::new(dir.clone(), checkpoint::guard(fields)).unwrap();
        assert!(current.try_resume().is_none());
        assert!(!dir.join("manifest.bin").exists(), "rejected, then cleared");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_a_node_budget_cut_continues_and_refutes_identically() {
        // Interrupt a *failing* check with a tiny node budget; the resumed
        // run must find the identical counterexample, then clear the
        // checkpoint (refutation is definitive).
        let (low, high) = programs(
            r#"
            level A {
                void main() {
                    var i: uint32 := 0;
                    while (i < 3) { i := i + 1; }
                    print(i);
                }
            }
            level B { void main() { print(2); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        // Reduction off: the loop's local steps become separate waves, so
        // a small node budget cuts several waves before the refuting
        // `print` edge (with fusion both land in one wave, and refutation
        // would win).
        let plain = check_refinement(
            &low,
            &high,
            &relation,
            &SimConfig::default().with_reduction(false),
        )
        .unwrap_err();
        assert_eq!(plain.kind, CexKind::Refinement);
        let dir = tmp("resume-budget");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CheckpointSpec::new(dir.clone());
        let mut cut_config = SimConfig::default().with_reduction(false);
        cut_config.max_nodes = 2;
        cut_config.checkpoint = Some(spec.clone());
        let cut = check_refinement(&low, &high, &relation, &cut_config).unwrap_err();
        assert_eq!(cut.kind, CexKind::Budget);
        assert!(
            dir.join("manifest.bin").exists(),
            "a budget cut keeps its checkpoint"
        );
        let mut resume_config = SimConfig::default().with_reduction(false);
        resume_config.checkpoint = Some(spec.with_resume(true));
        let resumed = check_refinement(&low, &high, &relation, &resume_config).unwrap_err();
        assert_eq!(plain.to_string(), resumed.to_string());
        assert!(
            !dir.join("manifest.bin").exists(),
            "a refutation clears its checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_after_the_programs_changed_starts_cold() {
        // Cut a verifying check by its node budget, then resume against a
        // low level with the same name and a different body. The guard
        // covers program content, so the stale search is discarded and the
        // result is the cold check's refutation, not the old certificate.
        let source = |first: u32| {
            format!(
                "level A {{ void main() {{ print({first}); var i: uint32 := 0; \
                 while (i < 30) {{ i := i + 1; }} print(i); }} }} \
                 level B {{ void main() {{ print(2); var i: uint32 := 0; \
                 while (i < 30) {{ i := i + 1; }} print(i); }} }}"
            )
        };
        let (low, high) = programs(&source(2), "A", "B");
        let (edited, _) = programs(&source(3), "A", "B");
        let relation = StandardRelation::log_prefix();
        let config = SimConfig::default().with_reduction(false);
        let cold = check_refinement(&edited, &high, &relation, &config).unwrap_err();
        assert_eq!(cold.kind, CexKind::Refinement);

        let dir = tmp("resume-edited");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CheckpointSpec::new(dir.clone());
        let mut cut_config = config.clone();
        cut_config.max_nodes = 10;
        cut_config.checkpoint = Some(spec.clone());
        let cut = check_refinement(&low, &high, &relation, &cut_config).unwrap_err();
        assert_eq!(cut.kind, CexKind::Budget);
        assert!(
            dir.join("manifest.bin").exists(),
            "a budget cut keeps its checkpoint"
        );

        let resume_config = config.with_checkpoint(spec.with_resume(true));
        let resumed = check_refinement(&edited, &high, &relation, &resume_config).unwrap_err();
        assert_eq!(cold.to_string(), resumed.to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two interchangeable workers wait for `go`, run a fusable local loop
    /// and print their argument; the spec prints 2 before 1. The shortest
    /// refuting trace fuses worker 1's loop into one edge, and with
    /// symmetry on it ends in a state whose canonical thread order swaps
    /// the workers (the rendered state lists t2 at its first instruction
    /// while the trace has t2 printing), so every trace tid is translated
    /// back through the composed renaming.
    const REFUTED_WORKERS: &str = r#"
        level Impl {
            var go: uint32;
            void worker(v: uint32) {
                assume go == 1;
                var i: uint32 := 0;
                while (i < 2) { i := i + 1; }
                print(v);
            }
            void main() {
                var a: uint64 := create_thread worker(1);
                var b: uint64 := create_thread worker(2);
                go := 1;
                join a;
                join b;
            }
        }
        level Spec {
            void main() {
                print(2);
                print(1);
            }
        }
    "#;

    /// `REFUTED_WORKERS`' full counterexample text, pinned byte for byte.
    const REFUTED_WORKERS_TEXT: &str = "\
refinement counterexample: no high-level behavior matches after `t2: print`
    0: t1: create_thread r0
    1: t1: create_thread r0
    2: t1: go := 1
    3: t1 drains one buffered write
    4: t2: assume (go == 1)
    5: t2: i := 0
    6: t2: if (i < 2) goto 3 else 5
    7: t2: i := (i + 1)
    8: t2: goto 2
    9: t2: if (i < 2) goto 3 else 5
   10: t2: i := (i + 1)
   11: t2: goto 2
   12: t2: if (i < 2) goto 3 else 5
   13: t2: print
state (Running)
  t1 pc=r1:3 frames=1 buf=0 Active
  t2 pc=r0:0 frames=1 buf=0 Active
  t3 pc=r0:6 frames=1 buf=0 Active
  log: [\"1\"]
";

    /// The frontier trace an 8-node budget cuts `REFUTED_WORKERS` at.
    const REFUTED_WORKERS_BUDGET_TEXT: &str = "\
refinement counterexample: search budget exceeded (8 product nodes); refinement NOT verified
    0: t1: create_thread r0
    1: t1: create_thread r0
    2: t1: go := 1
    3: t1 drains one buffered write
    4: t3: assume (go == 1)
state (Running)
  t1 pc=r1:3 frames=1 buf=0 Active
  t2 pc=r0:0 frames=1 buf=0 Active
  t3 pc=r0:5 frames=1 buf=0 Active
  log: []
";

    #[test]
    fn counterexample_text_is_pinned_across_jobs_and_resume() {
        // Traces are rendered only once a counterexample is built, by
        // replaying each edge from its parent's state; the full `Display`
        // text must match the pinned rendering at every job count, for the
        // budget cut that keeps a checkpoint and for the refutation the
        // resumed run then finds.
        let (low, high) = programs(REFUTED_WORKERS, "Impl", "Spec");
        let relation = StandardRelation::log_prefix();
        let base = SimConfig::default();
        assert!(base.bounds.reduction && base.bounds.symmetry);
        for jobs in [1, 4] {
            let config = base.clone().with_jobs(jobs);
            let err = check_refinement(&low, &high, &relation, &config).unwrap_err();
            assert_eq!(err.kind, CexKind::Refinement, "jobs={jobs}");
            assert_eq!(err.to_string(), REFUTED_WORKERS_TEXT, "jobs={jobs}");

            let dir = tmp(&format!("cex-text-{jobs}"));
            let _ = std::fs::remove_dir_all(&dir);
            let spec = CheckpointSpec::new(dir.clone());
            let mut cut_config = config.clone();
            cut_config.max_nodes = 8;
            cut_config.checkpoint = Some(spec.clone());
            let cut = check_refinement(&low, &high, &relation, &cut_config).unwrap_err();
            assert_eq!(cut.kind, CexKind::Budget, "jobs={jobs}");
            assert_eq!(cut.to_string(), REFUTED_WORKERS_BUDGET_TEXT, "jobs={jobs}");

            let mut resume_config = config.clone();
            resume_config.checkpoint = Some(spec.with_resume(true));
            let resumed = check_refinement(&low, &high, &relation, &resume_config).unwrap_err();
            assert_eq!(resumed.to_string(), REFUTED_WORKERS_TEXT, "jobs={jobs}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn counterexample_trace_is_stable_under_reduction() {
        // The failing program has fusable local steps before the visible
        // divergence; micro-depth waves plus per-micro-step trace
        // reconstruction must yield the identical counterexample with
        // fusion on and off, at every job count.
        let (low, high) = programs(
            r#"
            level A {
                void main() {
                    var i: uint32 := 0;
                    i := i + 1;
                    print(i);
                }
            }
            level B { void main() { print(7); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let mut rendered: Vec<String> = Vec::new();
        for reduction in [true, false] {
            for jobs in [1, 4] {
                let config = SimConfig::default()
                    .with_reduction(reduction)
                    .with_jobs(jobs);
                let err = check_refinement(&low, &high, &relation, &config).unwrap_err();
                assert_eq!(err.kind, CexKind::Refinement);
                rendered.push(err.to_string());
            }
        }
        for other in &rendered[1..] {
            assert_eq!(&rendered[0], other);
        }
    }

    #[test]
    fn refinement_failure_beats_budget_failure_in_same_wave() {
        // The node budget is tuned so the commit loop sees both a real
        // counterexample (low prints 2, high can only print 1 or 3) and
        // budget exhaustion while scanning the same wave; the real
        // counterexample must win, identically at every job count.
        let (low, high) = programs(
            r#"
            level A { void main() { if (*) { print(1); } else { print(2); } } }
            level B { void main() { if (*) { print(1); } else { print(3); } } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let mut expected: Option<String> = None;
        for jobs in [1, 2, 4] {
            let mut config = SimConfig::default().with_jobs(jobs);
            config.max_nodes = 3;
            let err = check_refinement(&low, &high, &relation, &config).unwrap_err();
            assert_eq!(
                err.kind,
                CexKind::Refinement,
                "jobs={jobs}: a real counterexample must beat budget failure: {}",
                err.description
            );
            let rendered = err.to_string();
            match &expected {
                None => expected = Some(rendered),
                Some(first) => assert_eq!(first, &rendered, "jobs={jobs}"),
            }
        }
    }

    #[test]
    fn exhausted_node_budget_is_classified_as_budget() {
        let (low, high) = programs(
            r#"
            level A { var x: uint32; void main() { x := 1; x := 2; print(x); } }
            level B { var x: uint32; void main() { x := 1; x := 2; print(x); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let config = SimConfig {
            max_nodes: 1,
            ..SimConfig::default()
        };
        let err = check_refinement(&low, &high, &relation, &config).unwrap_err();
        assert_eq!(err.kind, CexKind::Budget);
        assert!(err.kind.is_budget());
        assert!(err.description.contains("search budget exceeded"));
    }

    #[test]
    fn expired_deadline_degrades_gracefully() {
        let (low, high) = programs(
            r#"
            level A { var x: uint32; void main() { x := 1; print(x); } }
            level B { var x: uint32; void main() { x := 1; print(x); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let mut config = SimConfig::default();
        config.bounds = config.bounds.with_deadline(std::time::Duration::ZERO);
        let err = check_refinement(&low, &high, &relation, &config).unwrap_err();
        assert_eq!(err.kind, CexKind::Deadline);
        assert!(err.kind.is_budget());
        assert!(err.description.contains("deadline exceeded"));
    }

    /// A relation that panics when it sees a particular printed value, to
    /// exercise the worker pool's panic drain.
    struct PanickyRelation;

    impl armada_proof::relation::RefinementRelation for PanickyRelation {
        fn relates(&self, low: Observation<'_>, _high: Observation<'_>) -> bool {
            if low.log.iter().any(|entry| entry.to_string() == "2") {
                panic!("relation cannot handle the value 2");
            }
            true
        }

        fn describe(&self) -> String {
            "panicky test relation".to_string()
        }
    }

    #[test]
    fn worker_panic_drains_deterministically_across_job_counts() {
        // Both branches produce successors; evaluating the relation on the
        // `print(2)` branch panics inside a worker. The pool must drain
        // remaining slots and re-raise the lowest-slot panic, so serial and
        // parallel runs surface the identical payload.
        let (low, high) = programs(
            r#"
            level A { void main() { if (*) { print(1); } else { print(2); } } }
            level B { void main() { if (*) { print(1); } else { print(2); } } }
            "#,
            "A",
            "B",
        );
        let mut messages = Vec::new();
        for jobs in [1, 4] {
            let config = SimConfig::default().with_jobs(jobs);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                check_refinement(&low, &high, &PanickyRelation, &config)
            }))
            .expect_err("the panicking relation must propagate");
            let text = caught
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| caught.downcast_ref::<String>().cloned())
                .expect("string payload");
            messages.push(text);
        }
        assert_eq!(messages[0], "relation cannot handle the value 2");
        assert_eq!(messages[0], messages[1]);
    }

    #[test]
    fn injected_stall_and_cancel_delay_are_invisible_in_results() {
        let (low, high) = programs(
            r#"
            level Impl {
                void worker(v: uint32) { print(v); }
                void main() {
                    var a: uint64 := create_thread worker(1);
                    var b: uint64 := create_thread worker(2);
                    join a;
                    join b;
                }
            }
            level Spec {
                void main() {
                    if (*) { print(1); print(2); } else { print(2); print(1); }
                }
            }
            "#,
            "Impl",
            "Spec",
        );
        let relation = StandardRelation::log_prefix();
        let clean = check_refinement(&low, &high, &relation, &SimConfig::default()).unwrap();
        for jobs in [1, 4] {
            let faulted = SimConfig::default()
                .with_jobs(jobs)
                .with_faults(CheckFaults {
                    wave_stall_micros: 50,
                    cancel_delay_waves: 2,
                    abort_slot: None,
                });
            let cert = check_refinement(&low, &high, &relation, &faulted).unwrap();
            assert_eq!(cert, clean, "jobs={jobs}");
        }
    }

    #[test]
    fn injected_worker_abort_drains_identically_across_job_counts() {
        let (low, high) = programs(
            r#"
            level A { void main() { if (*) { print(1); } else { print(2); } } }
            level B { void main() { if (*) { print(1); } else { print(2); } } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        let mut messages = Vec::new();
        for jobs in [1, 4] {
            let config = SimConfig::default()
                .with_jobs(jobs)
                .with_faults(CheckFaults {
                    abort_slot: Some((1, 0)),
                    ..CheckFaults::default()
                });
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                check_refinement(&low, &high, &relation, &config)
            }))
            .expect_err("the injected abort must propagate");
            let text = caught
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| caught.downcast_ref::<String>().cloned())
                .expect("string payload");
            messages.push(text);
        }
        assert_eq!(messages[0], "injected fault: worker slot 0 aborted");
        assert_eq!(messages[0], messages[1]);
        // An abort aimed at a wave the search never reaches is a no-op.
        let config = SimConfig::default().with_faults(CheckFaults {
            abort_slot: Some((10_000, 0)),
            ..CheckFaults::default()
        });
        check_refinement(&low, &high, &relation, &config).unwrap();
    }

    #[test]
    fn delayed_cancel_still_expires_at_a_wave_boundary() {
        let (low, high) = programs(
            r#"
            level A { var x: uint32; void main() { x := 1; x := 2; print(x); } }
            level B { var x: uint32; void main() { x := 1; x := 2; print(x); } }
            "#,
            "A",
            "B",
        );
        let relation = StandardRelation::log_prefix();
        // Reduction off so every micro step is its own wave: the search has
        // strictly more waves than the suppression window.
        let mut config = SimConfig::default()
            .with_reduction(false)
            .with_faults(CheckFaults {
                cancel_delay_waves: 2,
                ..CheckFaults::default()
            });
        config.bounds = config.bounds.with_deadline(std::time::Duration::ZERO);
        let err = check_refinement(&low, &high, &relation, &config).unwrap_err();
        assert_eq!(err.kind, CexKind::Deadline, "{}", err.description);
    }

    #[test]
    fn emitted_witnesses_recheck_against_the_semantics() {
        // End-to-end trusted-core round trip: a real check's certificate,
        // serialized as a record, must pass the independent checker's full
        // semantic replay — with symmetry + reduction renamings in play
        // (two interchangeable workers) and without.
        let src = r#"
            level Impl {
                void worker(v: uint32) { print(v); }
                void main() {
                    var a: uint64 := create_thread worker(1);
                    var b: uint64 := create_thread worker(2);
                    join a;
                    join b;
                }
            }
            level Spec {
                void main() {
                    if (*) { print(1); print(2); } else { print(2); print(1); }
                }
            }
        "#;
        let (low, high) = programs(src, "Impl", "Spec");
        let relation = StandardRelation::log_prefix();
        for (reduction, symmetry) in [(true, true), (false, true), (true, false)] {
            let config = SimConfig::default()
                .with_reduction(reduction)
                .with_symmetry(symmetry);
            let mut cert = check_refinement(&low, &high, &relation, &config).unwrap();
            assert_eq!(cert.witness.pairs.len(), cert.product_nodes);
            let content = armada_sm::pair_content(&low, &high, &RelationKind::LogPrefix);
            cert.witness
                .bind_subject(armada_recheck::subject_digest(&content, "Impl", "Spec"));
            let record = armada_recheck::write_record(&cert);
            let report = armada_recheck::recheck_record(&record, Some(src))
                .unwrap_or_else(|e| panic!("reduction={reduction} symmetry={symmetry}: {e}"));
            assert!(report.replayed);
            assert_eq!(report.pairs, cert.product_nodes);
        }
    }

    #[test]
    fn chain_composition() {
        let cert_ab = RefinementCert {
            low: "A".into(),
            high: "B".into(),
            product_nodes: 0,
            low_transitions: 0,
            witness: Witness::empty(),
        };
        let cert_bc = RefinementCert {
            low: "B".into(),
            high: "C".into(),
            product_nodes: 0,
            low_transitions: 0,
            witness: Witness::empty(),
        };
        let chain = RefinementChain::compose(vec![cert_ab.clone(), cert_bc]).unwrap();
        assert_eq!(chain.claim(), "A ⊑ C");
        let err = RefinementChain::compose(vec![cert_ab.clone(), cert_ab]).unwrap_err();
        assert!(err.contains("chain break"));
    }
}
