//! Deterministic fault injection for the verification pipeline.
//!
//! The fault-tolerance guarantees of [`crate::Pipeline::run`] — a panicking
//! strategy is isolated to its recipe, an exhausted budget degrades into a
//! reported partial result, an interrupted run leaves a resumable cert
//! store, a mangled cert record is a cache miss and never a served lie —
//! are only trustworthy if they are *tested*, and testing them requires
//! making workers fail on purpose, at chosen points, reproducibly. A
//! [`FaultPlan`] is that test harness: a declarative set of injection
//! points the pipeline consults as it runs.
//!
//! Three ways to build one:
//!
//! * [`FaultPlan::with_fate`] (plus [`FaultPlan::abort_at`] for a mid-run
//!   kill) pins specific faults to specific recipes — integration tests
//!   use it to assert one exact partial report;
//! * [`FaultPlan::seeded`] derives the injection set from a SplitMix64
//!   stream over the full [`FaultFate`] taxonomy, for randomized robustness
//!   sweeps (`armada fuzz` runs a campaign of them). Each recipe's fate is
//!   a pure function of `(seed, recipe name)` — never of execution order —
//!   so the same seed produces the same faults at any `--jobs` count;
//! * [`FaultPlan::from_events`] rebuilds a plan from an explicit event
//!   list — the reproducer format `armada fuzz` emits after shrinking a
//!   failing plan to a minimal fault sequence. Events print and parse
//!   ([`std::str::FromStr`]) as `fate:recipe`.
//!
//! [`ServerPlan`] is the daemon-level counterpart for `armada fuzz
//! --serve`, with its own [`ServerFate`] taxonomy and `fate:ordinal`
//! events.
//!
//! Fault plans are test-only in intent: nothing in the pipeline constructs
//! one unless a caller passes it in (the CLI gates it behind the
//! deliberately test-scented `--fault-seed` / `fuzz --events`).

use std::collections::BTreeSet;
use std::str::FromStr;

use armada_runtime::hash::fnv1a_64;
use armada_runtime::SplitMix64;

/// One kind of injectable fault, attached to a recipe by a [`FaultEvent`].
///
/// Fates split into two classes the fuzzer's invariants depend on:
///
/// * **recoverable** fates damage infrastructure the pipeline is designed
///   to see through — torn/bit-flipped cert writes, corrupt cert reads,
///   slow-relation stalls, delayed cooperative cancels. A run under only
///   recoverable faults must produce the *byte-identical* final verdict of
///   a fault-free run (the damage costs recomputation, never correctness);
/// * **degrading** fates (panics, forced budget exhaustion, worker-slot
///   aborts, deadline jitter) legitimately change the affected recipe's
///   outcome — into one of the documented degraded statuses, deterministic
///   at any job count, never a hang or a lost run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultFate {
    /// Panic on entry to the recipe's strategy stage.
    StrategyPanic,
    /// Panic on entry to the recipe's semantic check.
    CheckPanic,
    /// Clamp the semantic check to a 1-node budget (forced exhaustion).
    BudgetExhaustion,
    /// The recipe's cert-store saves land truncated at half length.
    TornCertWrite,
    /// The recipe's cert-store saves land with one payload digit flipped —
    /// the record still parses; only checksum re-validation can reject it.
    BitFlipCertWrite,
    /// The recipe's cert-store loads read one flipped payload digit (the
    /// on-disk record is untouched).
    CorruptCertRead,
    /// Sleep at every wave boundary of the recipe's semantic check (a slow
    /// refinement relation / stalled worker).
    WaveStall,
    /// Suppress the cooperative deadline check for the check's first waves
    /// (a delayed cancel).
    CancelDelay,
    /// Panic in one worker slot of the check's wave pool (an aborted
    /// worker), drained deterministically at any job count.
    WorkerAbort,
    /// Tighten the recipe's wall-clock deadline to zero (adverse jitter):
    /// the check must degrade into a deadline outcome, never hang.
    DeadlineJitter,
    /// The recipe runs checkpointed and its checkpoint manifest lands torn
    /// at half length (a kill mid-save). Resume must detect the tear and
    /// fall back to a cold start — never resume from a half-written wave.
    TornCheckpointWrite,
    /// The recipe runs spilled under a tiny memory cap and the first cold
    /// spill-page fault reads flipped bytes (a bad sector). The checksum
    /// must reject the page and the re-read serve the true bytes — a
    /// corrupt page is never decoded into states.
    CorruptSpillRead,
}

/// Every fate, in declaration order (stable for reports and iteration).
pub const ALL_FATES: [FaultFate; 12] = [
    FaultFate::StrategyPanic,
    FaultFate::CheckPanic,
    FaultFate::BudgetExhaustion,
    FaultFate::TornCertWrite,
    FaultFate::BitFlipCertWrite,
    FaultFate::CorruptCertRead,
    FaultFate::WaveStall,
    FaultFate::CancelDelay,
    FaultFate::WorkerAbort,
    FaultFate::DeadlineJitter,
    FaultFate::TornCheckpointWrite,
    FaultFate::CorruptSpillRead,
];

impl FaultFate {
    /// Stable machine-readable label (the reproducer vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            FaultFate::StrategyPanic => "strategy_panic",
            FaultFate::CheckPanic => "check_panic",
            FaultFate::BudgetExhaustion => "budget_exhaustion",
            FaultFate::TornCertWrite => "torn_cert_write",
            FaultFate::BitFlipCertWrite => "bitflip_cert_write",
            FaultFate::CorruptCertRead => "corrupt_cert_read",
            FaultFate::WaveStall => "wave_stall",
            FaultFate::CancelDelay => "cancel_delay",
            FaultFate::WorkerAbort => "worker_abort",
            FaultFate::DeadlineJitter => "deadline_jitter",
            FaultFate::TornCheckpointWrite => "torn_checkpoint_write",
            FaultFate::CorruptSpillRead => "corrupt_spill_read",
        }
    }

    /// Parses a [`FaultFate::label`].
    pub fn parse(label: &str) -> Option<FaultFate> {
        ALL_FATES.into_iter().find(|fate| fate.label() == label)
    }

    /// True for fates the pipeline must absorb without any change to the
    /// final verdict (see the type-level docs).
    pub fn is_recoverable(self) -> bool {
        matches!(
            self,
            FaultFate::TornCertWrite
                | FaultFate::BitFlipCertWrite
                | FaultFate::CorruptCertRead
                | FaultFate::WaveStall
                | FaultFate::CancelDelay
                | FaultFate::TornCheckpointWrite
                | FaultFate::CorruptSpillRead
        )
    }
}

/// One injection point: `fate` applied to `recipe`. A [`FaultPlan`] is a
/// set of these (plus the optional mid-run kill, which is not per-recipe);
/// shrinking removes events one at a time.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// The injected fault kind.
    pub fate: FaultFate,
    /// The recipe it is pinned to.
    pub recipe: String,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.fate.label(), self.recipe)
    }
}

impl FromStr for FaultEvent {
    type Err = String;

    /// Parses the `fate:recipe` form [`Display`](std::fmt::Display) writes.
    fn from_str(token: &str) -> Result<FaultEvent, String> {
        let (label, recipe) = token.split_once(':').ok_or("want fate:recipe")?;
        let fate =
            FaultFate::parse(label).ok_or_else(|| format!("unknown fault fate `{label}`"))?;
        Ok(FaultEvent {
            fate,
            recipe: recipe.to_string(),
        })
    }
}

/// Declarative injection points for one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The per-recipe fault events, kept sorted and deduplicated.
    events: BTreeSet<FaultEvent>,
    /// Abort the run before any recipe at index ≥ this (a simulated
    /// mid-run kill: later recipes are reported as skipped, and whatever
    /// earlier recipes persisted stays on disk).
    abort_at: Option<usize>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds `fate` for `recipe`.
    pub fn with_fate(mut self, fate: FaultFate, recipe: &str) -> FaultPlan {
        self.events.insert(FaultEvent {
            fate,
            recipe: recipe.to_string(),
        });
        self
    }

    /// Aborts the run before recipe index `index` (0-based, recipe
    /// declaration order): a simulated kill. Recipes at earlier indices
    /// complete normally; later ones are reported as skipped.
    pub fn abort_at(mut self, index: usize) -> FaultPlan {
        self.abort_at = Some(index);
        self
    }

    /// Rebuilds a plan from an explicit event list (the reproducer format).
    pub fn from_events(events: impl IntoIterator<Item = FaultEvent>) -> FaultPlan {
        FaultPlan {
            events: events.into_iter().collect(),
            abort_at: None,
        }
    }

    /// The plan's per-recipe events, sorted (fate order, then recipe).
    /// The mid-run kill (`abort_at`) is not an event; shrinking never
    /// encounters it because [`FaultPlan::seeded`] never injects it.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.iter().cloned().collect()
    }

    /// Derives a plan from `seed` over the given recipe names. Each recipe
    /// independently draws from a stream seeded by `(seed, name)`: with
    /// probability 6/18 it is left alone, else one of the twelve
    /// [`FaultFate`]s is injected uniformly. Order-independent by
    /// construction, so jobs=1 and jobs=N runs inject identically.
    pub fn seeded<'a>(seed: u64, recipes: impl IntoIterator<Item = &'a str>) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for name in recipes {
            let mut rng = SplitMix64::new(seed ^ fnv1a_64(name.as_bytes()));
            let draw = rng.below(18) as usize;
            if let Some(&fate) = ALL_FATES.get(draw.wrapping_sub(6)) {
                plan = plan.with_fate(fate, name);
            }
        }
        plan
    }

    /// True if `recipe` has `fate` injected.
    pub fn has(&self, fate: FaultFate, recipe: &str) -> bool {
        // BTreeSet::contains needs an owned-keyed probe; the set is tiny.
        self.events
            .iter()
            .any(|e| e.fate == fate && e.recipe == recipe)
    }

    /// True if the run should skip the recipe at `index` (simulated kill).
    pub fn skips(&self, index: usize) -> bool {
        self.abort_at.is_some_and(|at| index >= at)
    }

    /// True if the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.abort_at.is_none()
    }

    /// True if every injected fault is recoverable (see [`FaultFate`]):
    /// the run's final verdict must then be byte-identical to a fault-free
    /// run's.
    pub fn is_recoverable_only(&self) -> bool {
        self.abort_at.is_none() && self.events.iter().all(|e| e.fate.is_recoverable())
    }

    /// How many events inject `fate`.
    pub fn count_of(&self, fate: FaultFate) -> usize {
        self.events.iter().filter(|e| e.fate == fate).count()
    }

    /// One line per injection, for logging the plan alongside a report.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            let what = match event.fate {
                FaultFate::StrategyPanic => "panic in strategy of",
                FaultFate::CheckPanic => "panic in semantic check of",
                FaultFate::BudgetExhaustion => "budget exhaustion in",
                FaultFate::TornCertWrite => "torn cert writes in",
                FaultFate::BitFlipCertWrite => "bit-flipped cert writes in",
                FaultFate::CorruptCertRead => "corrupt cert reads in",
                FaultFate::WaveStall => "wave-boundary stalls in",
                FaultFate::CancelDelay => "delayed cooperative cancel in",
                FaultFate::WorkerAbort => "worker-slot abort in",
                FaultFate::DeadlineJitter => "deadline jitter in",
                FaultFate::TornCheckpointWrite => "torn checkpoint writes in",
                FaultFate::CorruptSpillRead => "corrupt spill-page reads in",
            };
            out.push_str(&format!("{what} `{}`\n", event.recipe));
        }
        if let Some(at) = self.abort_at {
            out.push_str(&format!("abort before recipe index {at}\n"));
        }
        out
    }
}

/// One kind of injectable *server-level* fault, for `armada fuzz --serve`.
///
/// These are deliberately a separate taxonomy from [`FaultFate`]: the
/// pipeline's twelve fates are pinned by the in-process fuzzer's coverage
/// invariants, while these four attack the daemon around the pipeline —
/// its workers, its shared tier-2 cache, its admission path, and its
/// coalescing map. Like the pipeline fates they split into classes:
///
/// * **recoverable** — the daemon must absorb the fault and still deliver
///   the fault-free verdict: a killed worker is retried with backoff
///   ([`WorkerKill`](ServerFate::WorkerKill)), a corrupted tier-2 record
///   is audited and recomputed ([`Tier2Corrupt`](ServerFate::Tier2Corrupt)),
///   a same-key storm coalesces into one run
///   ([`SameKeyStorm`](ServerFate::SameKeyStorm));
/// * **degrading** — [`AcceptJitter`](ServerFate::AcceptJitter) collapses
///   the request's deadline on the accept path; the contract is a
///   *structured* deadline response within deadline+grace, never a hang or
///   a dropped connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServerFate {
    /// Kill (panic) the worker thread's first attempt at this request; the
    /// daemon's bounded retry-with-backoff must recover it.
    WorkerKill,
    /// Corrupt this request's view of the tier-2 (disk) cert store: reads
    /// see one flipped payload digit. Checksum validation must reject the
    /// record, audit it, and recompute.
    Tier2Corrupt,
    /// Collapse the request's deadline to zero on the accept path (adverse
    /// scheduling jitter between accept and admission).
    AcceptJitter,
    /// Turn this request into a same-key storm: the fuzz driver fires a
    /// burst of concurrent identical requests, which must coalesce into a
    /// single underlying verification with byte-identical responses.
    SameKeyStorm,
}

/// Every server fate, in declaration order.
pub const ALL_SERVER_FATES: [ServerFate; 4] = [
    ServerFate::WorkerKill,
    ServerFate::Tier2Corrupt,
    ServerFate::AcceptJitter,
    ServerFate::SameKeyStorm,
];

impl ServerFate {
    /// Stable machine-readable label (the `--server-events` vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            ServerFate::WorkerKill => "worker_kill",
            ServerFate::Tier2Corrupt => "tier2_corrupt",
            ServerFate::AcceptJitter => "accept_jitter",
            ServerFate::SameKeyStorm => "same_key_storm",
        }
    }

    /// Parses a [`ServerFate::label`].
    pub fn parse(label: &str) -> Option<ServerFate> {
        ALL_SERVER_FATES
            .into_iter()
            .find(|fate| fate.label() == label)
    }

    /// True for fates the daemon must absorb without any change to the
    /// delivered verdict (see the type-level docs).
    pub fn is_recoverable(self) -> bool {
        !matches!(self, ServerFate::AcceptJitter)
    }
}

/// One server-level injection point: `fate` applied to the request with
/// admission ordinal `ordinal` (the daemon numbers verify requests in
/// admission order, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ServerEvent {
    /// The injected fault kind.
    pub fate: ServerFate,
    /// The 0-based verify-request ordinal it is pinned to.
    pub ordinal: usize,
}

impl std::fmt::Display for ServerEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.fate.label(), self.ordinal)
    }
}

impl FromStr for ServerEvent {
    type Err = String;

    /// Parses the `fate:ordinal` form [`Display`](std::fmt::Display) writes.
    fn from_str(token: &str) -> Result<ServerEvent, String> {
        let (label, ordinal) = token.split_once(':').ok_or("want fate:ordinal")?;
        let fate =
            ServerFate::parse(label).ok_or_else(|| format!("unknown server fate `{label}`"))?;
        let ordinal = ordinal
            .parse()
            .map_err(|_| format!("ordinal `{ordinal}` is not a number"))?;
        Ok(ServerEvent { fate, ordinal })
    }
}

/// Declarative server-level injection points for one daemon's lifetime.
///
/// Ordinals are assigned at admission, so a plan is only deterministic when
/// the driver controls request order — the fuzzer injects fates exclusively
/// on the ordinals of its *sequential* phase (one request in flight at a
/// time) and drives storms as a driver-side behavior, never as an ordinal
/// the concurrent phase could race over.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerPlan {
    events: BTreeSet<ServerEvent>,
}

impl ServerPlan {
    /// A plan that injects nothing.
    pub fn new() -> ServerPlan {
        ServerPlan::default()
    }

    /// Adds `fate` for the request with admission ordinal `ordinal`.
    pub fn with_fate(mut self, fate: ServerFate, ordinal: usize) -> ServerPlan {
        self.events.insert(ServerEvent { fate, ordinal });
        self
    }

    /// Rebuilds a plan from an explicit event list (the reproducer format).
    pub fn from_events(events: impl IntoIterator<Item = ServerEvent>) -> ServerPlan {
        ServerPlan {
            events: events.into_iter().collect(),
        }
    }

    /// The plan's events, sorted (fate order, then ordinal).
    pub fn events(&self) -> Vec<ServerEvent> {
        self.events.iter().copied().collect()
    }

    /// Derives a plan from `seed` over the fuzzer's sequential-phase
    /// ordinals `0..ordinals`. Each ordinal independently draws from a
    /// stream seeded by `(seed, ordinal)`: with probability 4/8 it is left
    /// alone, else one of the four [`ServerFate`]s is injected uniformly.
    /// Order-independent by construction (same property as
    /// [`FaultPlan::seeded`]).
    pub fn seeded(seed: u64, ordinals: usize) -> ServerPlan {
        let mut plan = ServerPlan::new();
        for ordinal in 0..ordinals {
            let mut rng = SplitMix64::new(seed ^ fnv1a_64(&(ordinal as u64).to_le_bytes()));
            let draw = rng.below(8) as usize;
            if let Some(&fate) = ALL_SERVER_FATES.get(draw.wrapping_sub(4)) {
                plan = plan.with_fate(fate, ordinal);
            }
        }
        plan
    }

    /// True if the request at `ordinal` has `fate` injected.
    pub fn has(&self, fate: ServerFate, ordinal: usize) -> bool {
        self.events.contains(&ServerEvent { fate, ordinal })
    }

    /// True if the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// How many events inject `fate`.
    pub fn count_of(&self, fate: ServerFate) -> usize {
        self.events.iter().filter(|e| e.fate == fate).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_register_their_injection_points() {
        let plan = FaultPlan::new()
            .with_fate(FaultFate::StrategyPanic, "P1")
            .with_fate(FaultFate::CheckPanic, "P2")
            .with_fate(FaultFate::BudgetExhaustion, "P3")
            .abort_at(2);
        assert!(plan.has(FaultFate::StrategyPanic, "P1"));
        assert!(!plan.has(FaultFate::StrategyPanic, "P2"));
        assert!(plan.has(FaultFate::CheckPanic, "P2"));
        assert!(plan.has(FaultFate::BudgetExhaustion, "P3"));
        assert!(!plan.skips(1));
        assert!(plan.skips(2));
        assert!(plan.skips(99));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
        assert_eq!(plan.describe().lines().count(), 4);
    }

    #[test]
    fn events_round_trip_through_from_events() {
        let plan = FaultPlan::new()
            .with_fate(FaultFate::TornCertWrite, "P1")
            .with_fate(FaultFate::WorkerAbort, "P2")
            .with_fate(FaultFate::WaveStall, "P1");
        let events = plan.events();
        assert_eq!(events.len(), 3);
        assert_eq!(FaultPlan::from_events(events), plan);
        // Rendered labels parse back.
        for event in plan.events() {
            assert_eq!(FaultFate::parse(event.fate.label()), Some(event.fate));
        }
        assert_eq!(FaultFate::parse("no_such_fate"), None);
    }

    #[test]
    fn recoverability_classes_partition_the_taxonomy() {
        let recoverable: Vec<FaultFate> = ALL_FATES
            .into_iter()
            .filter(|f| f.is_recoverable())
            .collect();
        assert_eq!(recoverable.len(), 7);
        assert!(FaultPlan::new()
            .with_fate(FaultFate::BitFlipCertWrite, "P")
            .with_fate(FaultFate::CancelDelay, "P")
            .is_recoverable_only());
        assert!(!FaultPlan::new()
            .with_fate(FaultFate::BitFlipCertWrite, "P")
            .with_fate(FaultFate::DeadlineJitter, "P")
            .is_recoverable_only());
        assert!(!FaultPlan::new().abort_at(0).is_recoverable_only());
    }

    #[test]
    fn seeded_plans_are_order_independent() {
        let forward = FaultPlan::seeded(42, ["A", "B", "C", "D"]);
        let backward = FaultPlan::seeded(42, ["D", "C", "B", "A"]);
        assert_eq!(forward, backward);
        // Distinct seeds eventually disagree.
        let other = FaultPlan::seeded(43, ["A", "B", "C", "D"]);
        let another = FaultPlan::seeded(44, ["A", "B", "C", "D"]);
        assert!(
            forward != other || forward != another,
            "two fresh seeds both matching seed 42 is vanishingly unlikely"
        );
    }

    #[test]
    fn seeded_plans_cover_the_full_taxonomy_across_seeds() {
        let names: Vec<String> = (0..64).map(|i| format!("R{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let mut counts = [0usize; ALL_FATES.len()];
        let mut clean = 0usize;
        let mut drawn = 0usize;
        for seed in 0..32u64 {
            let plan = FaultPlan::seeded(seed, refs.iter().copied());
            for (i, fate) in ALL_FATES.into_iter().enumerate() {
                counts[i] += plan.count_of(fate);
            }
            clean += refs.len() - plan.events().len();
            drawn += refs.len();
        }
        for (i, fate) in ALL_FATES.into_iter().enumerate() {
            assert!(counts[i] > 0, "fate {} never drawn", fate.label());
        }
        assert!(clean > 0, "some recipes must stay clean");
        assert_eq!(clean + counts.iter().sum::<usize>(), drawn);
        // Roughly 6/18 of draws stay clean (±10 points at this volume).
        let clean_rate = clean as f64 / drawn as f64;
        assert!(
            (0.233..=0.433).contains(&clean_rate),
            "clean rate {clean_rate} far from 6/18"
        );
    }

    #[test]
    fn server_plans_register_parse_and_cover_their_taxonomy() {
        let plan = ServerPlan::new()
            .with_fate(ServerFate::WorkerKill, 0)
            .with_fate(ServerFate::Tier2Corrupt, 1);
        assert!(plan.has(ServerFate::WorkerKill, 0));
        assert!(!plan.has(ServerFate::WorkerKill, 1));
        assert_eq!(ServerPlan::from_events(plan.events()), plan);
        for fate in ALL_SERVER_FATES {
            assert_eq!(ServerFate::parse(fate.label()), Some(fate));
        }
        assert_eq!(ServerFate::parse("no_such_fate"), None);
        // Recoverable split: only accept jitter legitimately degrades.
        let recoverable: Vec<ServerFate> = ALL_SERVER_FATES
            .into_iter()
            .filter(|f| f.is_recoverable())
            .collect();
        assert_eq!(recoverable.len(), 3);

        // Seeded plans are deterministic and sweep the whole taxonomy.
        let mut counts = [0usize; ALL_SERVER_FATES.len()];
        let mut clean = 0usize;
        for seed in 0..64u64 {
            let plan = ServerPlan::seeded(seed, 3);
            assert_eq!(plan, ServerPlan::seeded(seed, 3));
            for (i, fate) in ALL_SERVER_FATES.into_iter().enumerate() {
                counts[i] += plan.count_of(fate);
            }
            clean += 3 - plan.events().len();
        }
        for (i, fate) in ALL_SERVER_FATES.into_iter().enumerate() {
            assert!(counts[i] > 0, "server fate {} never drawn", fate.label());
        }
        assert!(clean > 0, "some ordinals must stay clean");
    }
}
