//! Deterministic fault-fuzzing campaigns over the verification pipeline
//! and the `armada serve` daemon.
//!
//! A campaign sweeps a corpus of subjects (Armada source files) over a
//! seed grid. Both modes share one driver: per subject it runs a fault-free
//! baseline; per `(subject, seed)` cell it derives a plan from the seed
//! (or takes the override), runs the mode's cell over the whole jobs grid,
//! and shrinks every violation to a reproducer. The two modes differ only
//! in their plans and their cells:
//!
//! * **pipeline** ([`run_campaign`]) — a [`FaultPlan`] (see
//!   [`FaultPlan::seeded`]); the cell runs the pipeline cold and warm
//!   (against a fresh certificate store, then against the store the cold
//!   run populated) at every job count;
//! * **serve** ([`run_serve_campaign`]) — a [`ServerPlan`]; the cell boots
//!   a fresh daemon per job count and drives it through killed workers,
//!   corrupted tier-2 entries, accept jitter and same-key storms.
//!
//! The cells check the campaign invariants:
//!
//! * **taxonomy** — every run lands inside the documented outcome space:
//!   no escaped panic, no infrastructure error on a well-formed subject,
//!   and a worst-status exit code in the 0–4 vocabulary;
//! * **no-hang** — every run finishes inside [`HANG_BUDGET`] (faults may
//!   slow a run down, never wedge it); the daemon's analogue is
//!   **deadline-overrun** (every request answered within deadline + grace);
//! * **no-corrupt-cert-served** — whenever the store reports a cache hit,
//!   the served certificate is identical to the fault-free baseline's
//!   certificate for that level pair (a mangled record must be a miss,
//!   never a lie);
//! * **verdict-invariance** — when every injected fault is recoverable
//!   (see [`crate::FaultFate::is_recoverable`]), the report is
//!   byte-identical to the fault-free baseline after erasing
//!   cache-disposition annotations;
//! * **determinism** — for one `(subject, seed)` cell, renders are
//!   byte-identical across job counts;
//! * **recheck** — every certificate an exit-0 run emits carries a witness
//!   that passes the independent `armada recheck` checker: structural
//!   validation plus semantic replay against the subject's own source;
//! * **coalesce-divergence** (serve only) — a same-key herd costs one
//!   verification and every member sees the leader's bytes.
//!
//! When an invariant trips, the campaign greedily shrinks the plan — retry
//! the cell with each event removed, keep removals that preserve the
//! violation, repeat to fixpoint — and records a minimal event list plus a
//! ready-to-run `armada fuzz … --events …` (or `--serve … --server-events
//! …`) reproducer line. A plan that shrinks to nothing replays as
//! `--events ''`, the explicit no-fault plan.
//!
//! Everything is a pure function of `(subjects, config)`: the campaign
//! report (see [`CampaignReport::to_json`]) contains no timestamps, paths,
//! or durations, so reruns are byte-identical — the determinism gate
//! `scripts/verify.sh` relies on.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

use armada_runtime::hash::fnv1a_64;
use armada_runtime::SplitMix64;

use crate::fault::{
    FaultEvent, FaultPlan, ServerEvent, ServerFate, ServerPlan, ALL_FATES, ALL_SERVER_FATES,
};
use crate::proto::{Json, Request, Response, VerifyRequest};
use crate::serve::{client_request, Gate, ServeConfig, Server};
use crate::verify::store::{CertStore, StoreShim};
use crate::verify::tier::{MemTier, TieredStore};
use crate::verify::SimConfig;
use crate::{panic_text, CacheDisposition, Pipeline, PipelineError};

/// One fuzzing subject: a named Armada module source.
#[derive(Debug, Clone)]
pub struct FuzzSubject {
    /// Display name, used in reports and reproducer lines (conventionally
    /// the source path for file subjects).
    pub name: String,
    /// Full module source.
    pub source: String,
}

impl FuzzSubject {
    /// A subject from an in-memory source.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> FuzzSubject {
        FuzzSubject {
            name: name.into(),
            source: source.into(),
        }
    }

    /// Reads a subject from an `.arm` file; the path becomes the name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unreadable path.
    pub fn from_path(path: &str) -> Result<FuzzSubject, String> {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        Ok(FuzzSubject::new(path, source))
    }
}

/// Wall-clock ceiling per pipeline run; exceeding it is a `no-hang`
/// violation.
pub const HANG_BUDGET: Duration = Duration::from_secs(30);

/// Pipeline-campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// The seed grid; each seed derives one fault plan per subject.
    pub seeds: Vec<u64>,
    /// Job counts to run each cell at (deduplicated in order, clamped to
    /// at least 1).
    pub jobs: Vec<usize>,
    /// Root directory for per-run scratch cert stores (never reported).
    pub scratch_root: PathBuf,
    /// Test-only mutant: disable the store's checksum re-validation on
    /// load, to prove the `no-corrupt-cert-served` invariant has teeth.
    pub mutant_unchecked_loads: bool,
    /// When set, every cell uses exactly this plan instead of a seeded one
    /// (the reproducer path: `armada fuzz … --events …`).
    pub plan_override: Option<Vec<FaultEvent>>,
    /// Mutate the verification *bounds* per seed as well as the faults:
    /// each seed deterministically picks a nondeterminism grid, a
    /// store-buffer size, and a node cap (see [`mutated_sim`]). The
    /// baseline is recomputed per seed under the same bounds, so the
    /// invariants compare like with like; reports stay byte-identical
    /// across reruns because the mutation is a pure function of the seed.
    pub mutate_bounds: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seeds: (0..8).collect(),
            jobs: vec![1],
            scratch_root: std::env::temp_dir().join(format!("armada-fuzz-{}", std::process::id())),
            mutant_unchecked_loads: false,
            plan_override: None,
            mutate_bounds: false,
        }
    }
}

/// The bounds a given seed mutates to (`--mutate-bounds`): a deterministic
/// pick of nondeterminism grid, store-buffer capacity, and product-node
/// cap. Seed 0's pick is the default configuration, so the mutated sweep
/// always includes the canonical bounds.
pub fn mutated_sim(seed: u64) -> SimConfig {
    const NONDET_GRIDS: [&[i128]; 3] = [&[0, 1, 2], &[0, 1], &[0, 1, 2, 5]];
    const BUFFERS: [usize; 2] = [2, 1];
    const NODE_CAPS: [usize; 3] = [200_000, 50_000, 5_000];
    let mut rng = SplitMix64::new(seed ^ fnv1a_64(b"bounds-mutation"));
    let mut sim = SimConfig::default();
    if seed == 0 {
        return sim;
    }
    sim.bounds.nondet_ints = NONDET_GRIDS[rng.below(NONDET_GRIDS.len() as u64) as usize].to_vec();
    sim.bounds.max_buffer = BUFFERS[rng.below(BUFFERS.len() as u64) as usize];
    sim.max_nodes = NODE_CAPS[rng.below(NODE_CAPS.len() as u64) as usize];
    sim
}

/// The campaign invariants (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Outcome stayed inside the documented taxonomy.
    Taxonomy,
    /// The run finished inside the hang budget.
    NoHang,
    /// A cache hit served a certificate differing from the baseline's.
    CorruptCertServed,
    /// Recoverable faults changed the final verdict.
    VerdictInvariance,
    /// Renders differed across job counts.
    Determinism,
    /// A serve request went unanswered past its deadline plus the daemon's
    /// grace window (`armada fuzz --serve` only).
    DeadlineOverrun,
    /// A coalesced waiter observed a response differing from the leader's
    /// — or the herd cost more than one underlying verification (`armada
    /// fuzz --serve` only).
    CoalesceDivergence,
    /// An exit-0 run emitted a certificate whose witness failed the
    /// independent `armada recheck` validation (structural + semantic
    /// replay against the subject's own source).
    RecheckFailed,
}

impl Invariant {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Invariant::Taxonomy => "taxonomy",
            Invariant::NoHang => "no_hang",
            Invariant::CorruptCertServed => "corrupt_cert_served",
            Invariant::VerdictInvariance => "verdict_invariance",
            Invariant::Determinism => "determinism",
            Invariant::DeadlineOverrun => "deadline_overrun",
            Invariant::CoalesceDivergence => "coalesce_divergence",
            Invariant::RecheckFailed => "recheck_failed",
        }
    }
}

/// One invariant violation, with its shrunk reproducer.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant tripped.
    pub invariant: Invariant,
    /// Subject name.
    pub subject: String,
    /// The seed whose plan tripped it (0 under a plan override).
    pub seed: u64,
    /// Human-readable specifics.
    pub detail: String,
    /// The full plan that tripped the invariant, as event labels
    /// (`fate:recipe` or `fate:ordinal`).
    pub plan: Vec<String>,
    /// The greedily shrunk minimal plan that still trips it.
    pub shrunk: Vec<String>,
    /// A ready-to-run CLI reproducer line.
    pub replay: String,
}

/// The whole campaign's result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Subject names, in sweep order.
    pub subjects: Vec<String>,
    /// The seed grid.
    pub seeds: Vec<u64>,
    /// The job-count grid that ran (deduplicated, each at least 1).
    pub jobs: Vec<usize>,
    /// Pipeline executions performed (baselines + cold + warm + shrinking;
    /// for serve campaigns, daemon requests sent).
    pub runs: usize,
    /// Invariant evaluations performed.
    pub checks: usize,
    /// Faults injected per fate label — [`ALL_FATES`] order for pipeline
    /// campaigns, [`ALL_SERVER_FATES`] order for serve campaigns.
    pub injected: Vec<(&'static str, usize)>,
    /// Violations found (empty on a healthy pipeline).
    pub violations: Vec<Violation>,
    /// `"pipeline"` for in-process campaigns, `"serve"` for daemon
    /// campaigns.
    pub mode: &'static str,
    /// Whether the campaign mutated bounds per seed.
    pub mutate_bounds: bool,
}

impl CampaignReport {
    /// True when no invariant tripped.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// True when every fate in the taxonomy was injected at least once.
    pub fn all_fates_injected(&self) -> bool {
        self.injected.iter().all(|&(_, count)| count > 0)
    }

    /// Total faults injected across all fates.
    pub fn total_injected(&self) -> usize {
        self.injected.iter().map(|&(_, count)| count).sum()
    }

    /// Deterministic machine-readable rendering: same `(subjects, config)`
    /// → byte-identical JSON (no timestamps, durations, or paths).
    pub fn to_json(&self) -> String {
        let field = |key: &str, value: Json| (key.to_string(), value);
        let int = |n: usize| Json::Int(n as i64);
        // The wire dialect's integers are i64; campaign seeds are `0..n`.
        let seed = |s: u64| Json::Int(s as i64);
        let violations = self.violations.iter().map(|v| {
            Json::Obj(vec![
                field("invariant", Json::Str(v.invariant.label().into())),
                field("subject", Json::Str(v.subject.clone())),
                field("seed", seed(v.seed)),
                field("detail", Json::Str(v.detail.clone())),
                field("plan", labels(&v.plan)),
                field("shrunk", labels(&v.shrunk)),
                field("replay", Json::Str(v.replay.clone())),
            ])
        });
        let injected = self.injected.iter().map(|&(label, n)| field(label, int(n)));
        Json::Obj(vec![
            field("subjects", labels(&self.subjects)),
            field(
                "seeds",
                Json::Arr(self.seeds.iter().map(|&s| seed(s)).collect()),
            ),
            field(
                "jobs",
                Json::Arr(self.jobs.iter().map(|&j| int(j)).collect()),
            ),
            field("mode", Json::Str(self.mode.into())),
            field("mutate_bounds", Json::Bool(self.mutate_bounds)),
            field("runs", int(self.runs)),
            field("checks", int(self.checks)),
            field("injected", Json::Obj(injected.collect())),
            field("violations", Json::Arr(violations.collect())),
        ])
        .pretty()
    }
}

/// A JSON array of the items' display strings.
fn labels(items: &[impl Display]) -> Json {
    Json::Arr(strings(items).into_iter().map(Json::Str).collect())
}

/// The items' display strings.
fn strings(items: &[impl Display]) -> Vec<String> {
    items.iter().map(ToString::to_string).collect()
}

/// Parses a comma-separated event list — `fate:recipe` for [`FaultEvent`]s
/// (`--events`), `fate:ordinal` for [`ServerEvent`]s (`--server-events`);
/// the reproducer vocabulary. An empty list is the no-fault plan.
///
/// # Errors
///
/// Returns [`PipelineError::Events`] naming the offending token when an
/// entry does not parse or repeats an earlier token. Repeats are an error
/// rather than a no-op because a plan stores an event *set*: a silently
/// deduplicated repeat would make a reproducer line claim more injections
/// than it performs.
pub fn parse_events<E>(spec: &str) -> Result<Vec<E>, PipelineError>
where
    E: FromStr<Err = String> + PartialEq,
{
    let mut events: Vec<E> = Vec::new();
    for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let bad = |message: String| PipelineError::Events {
            token: token.to_string(),
            message,
        };
        let event: E = token.parse().map_err(bad)?;
        if events.contains(&event) {
            return Err(bad(
                "duplicate event (a plan is a set; the repeat would be dropped)".to_string(),
            ));
        }
        events.push(event);
    }
    Ok(events)
}

/// What one pipeline execution produced, as the invariant checks see it.
#[derive(Default)]
struct RunResult {
    /// The report's rendering (empty when the run errored).
    render: String,
    /// Infrastructure error or escaped-panic text, if any.
    error: Option<String>,
    /// Worst-status exit code (0–4), when a report was produced.
    exit_code: Option<u8>,
    /// `(low, high, product_nodes, low_transitions)` for every certificate
    /// the store served as a cache hit.
    served_hits: Vec<(String, String, usize, usize)>,
    /// Same, for every certificate in the report regardless of source.
    certs: Vec<(String, String, usize, usize)>,
    /// `armada recheck` rejections for an exit-0 run's certificates
    /// (serialized, then validated and replayed against the subject's own
    /// source). Always empty for nonzero exits.
    recheck_failures: Vec<String>,
    /// The report's recipe names, in declaration order.
    recipes: Vec<String>,
    /// Wall-clock duration (checked against the hang budget; never
    /// reported).
    elapsed: Duration,
}

/// Runs the pipeline once for `subject` under `plan`, against a scratch
/// cert store rooted at `store_dir`.
fn run_once(
    subject: &FuzzSubject,
    plan: &FaultPlan,
    jobs: usize,
    store_dir: &Path,
    mutant_unchecked_loads: bool,
    sim: &SimConfig,
) -> RunResult {
    let start = Instant::now();
    let source = subject.source.clone();
    let plan = plan.clone();
    let sim = sim.clone().with_jobs(jobs);
    let store = CertStore::open(store_dir).with_faults(StoreShim {
        unchecked_loads: mutant_unchecked_loads,
        ..StoreShim::default()
    });
    let outcome = catch_unwind(AssertUnwindSafe(move || {
        let pipeline = Pipeline::from_source(&source)
            .map_err(|e| e.to_string())?
            .with_sim_config(sim)
            .with_cert_store(store)
            .with_fault_plan(plan);
        pipeline.run().map_err(|e| e.to_string())
    }))
    .unwrap_or_else(|payload| {
        Err(format!(
            "panic escaped the pipeline: {}",
            panic_text(&*payload)
        ))
    });
    let elapsed = start.elapsed();
    let report = match outcome {
        Ok(report) => report,
        Err(message) => {
            return RunResult {
                error: Some(message),
                elapsed,
                ..RunResult::default()
            }
        }
    };
    let certs: Vec<(String, String, usize, usize)> = report
        .refinements
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|c| {
            (
                c.low.clone(),
                c.high.clone(),
                c.product_nodes,
                c.low_transitions,
            )
        })
        .collect();
    let served_hits = report
        .outcomes
        .iter()
        .filter(|o| o.cache == CacheDisposition::Hit)
        .filter_map(|o| {
            certs
                .iter()
                .find(|(low, high, _, _)| *low == o.low && *high == o.high)
                .cloned()
        })
        .collect();
    let exit_code = if report.verified() {
        0
    } else {
        report.worst_status().exit_code()
    };
    // Invariant #6: every certificate of an exit-0 run must survive the
    // independent checker — serialize, then structurally validate and
    // semantically replay against the subject source.
    let mut recheck_failures = Vec::new();
    if exit_code == 0 {
        for cert in report.refinements.iter().filter_map(|r| r.as_ref().ok()) {
            let record = crate::recheck::write_record(cert);
            if let Err(e) = crate::recheck::recheck_record(&record, Some(&subject.source)) {
                recheck_failures.push(format!("{}⊑{}: {e}", cert.low, cert.high));
            }
        }
    }
    RunResult {
        render: report.to_string(),
        error: None,
        exit_code: Some(exit_code),
        served_hits,
        certs,
        recheck_failures,
        recipes: report.outcomes.iter().map(|o| o.recipe.clone()).collect(),
        elapsed,
    }
}

/// Erases cache-disposition annotations, so a cold (miss) and warm (hit)
/// run of the same verdict normalize identically — the equality
/// `verdict-invariance` asserts against the baseline.
fn normalize_render(render: &str) -> String {
    render
        .replace(" (cert cache hit)", "")
        .replace(" (cert cache miss)", "")
        .replace(" (from cert store)", "")
}

/// The fault-free reference for one subject under one set of bounds.
struct Baseline {
    /// The bounds the baseline ran under (and its cells run under).
    sim: SimConfig,
    /// Normalized render of a clean jobs=1 run.
    render_norm: String,
    /// `(low, high)` → `(product_nodes, low_transitions)`.
    certs: BTreeMap<(String, String), (usize, usize)>,
    /// The subject's recipe names (what seeded pipeline plans draw over).
    recipes: Vec<String>,
    /// Baseline infrastructure failure, if any (the subject is unusable).
    error: Option<String>,
}

/// One fault-free jobs=1 run of `subject` under `sim`.
fn compute_baseline(subject: &FuzzSubject, scratch: &Path, sim: SimConfig) -> Baseline {
    let dir = scratch.join("baseline");
    let result = run_once(subject, &FaultPlan::new(), 1, &dir, false, &sim);
    let _ = std::fs::remove_dir_all(&dir);
    Baseline {
        sim,
        render_norm: normalize_render(&result.render),
        certs: result
            .certs
            .into_iter()
            .map(|(low, high, nodes, transitions)| ((low, high), (nodes, transitions)))
            .collect(),
        recipes: result.recipes,
        error: result.error,
    }
}

/// What one cell (or one shrink trial) produced.
#[derive(Debug, Default)]
struct Cell {
    /// Each tripped invariant with its specifics, in detection order.
    violations: Vec<(Invariant, String)>,
    /// Pipeline runs (pipeline mode) or daemon requests (serve mode).
    runs: usize,
    /// Invariant evaluations.
    checks: usize,
}

impl Cell {
    /// Counts one evaluation of `invariant`, tripping it unless `ok`.
    fn check(&mut self, invariant: Invariant, ok: bool, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations.push((invariant, detail()));
        }
    }
}

/// What a campaign mode supplies to the shared [`sweep`]: its fate
/// vocabulary, its seeded plans, its cell runner and its replay line.
trait Mode {
    /// One plan entry (`fate:target`).
    type Event: Clone + Ord + Display;
    /// The report's `mode` label.
    const NAME: &'static str;
    /// The mode's fate labels, in report order.
    fn fates() -> Vec<&'static str>;
    /// The fate label of one event.
    fn fate(event: &Self::Event) -> &'static str;
    /// The plan `seed` derives for the subject `baseline` describes.
    fn seeded(&self, seed: u64, baseline: &Baseline) -> Vec<Self::Event>;
    /// Bounds `seed`'s cells run under when they are not the defaults (the
    /// seed then gets a baseline of its own).
    fn bounds(&self, _seed: u64) -> Option<SimConfig> {
        None
    }
    /// Runs `events` over the whole jobs grid and checks the invariants,
    /// cross-jobs determinism included.
    fn run_cell(
        &self,
        subject: &FuzzSubject,
        events: &[Self::Event],
        jobs: &[usize],
        baseline: &Baseline,
        scratch: &Path,
    ) -> Cell;
    /// The CLI line that reruns `events` (already rendered, never empty)
    /// on `subject` at `seed` over jobs `{1, jobs}`.
    fn replay(&self, subject: &str, seed: u64, jobs: usize, events: &str) -> String;
}

/// Greedy delta-debugging: drop events one at a time, keeping removals
/// whose `cell` still trips `invariant`, to fixpoint. Returns the minimal
/// plan plus the runs and checks its trial cells spent.
fn shrink<E: Clone>(
    events: &[E],
    invariant: Invariant,
    mut cell: impl FnMut(&[E]) -> Cell,
) -> (Vec<E>, usize, usize) {
    let mut current = events.to_vec();
    let (mut runs, mut checks) = (0, 0);
    let mut progress = true;
    while progress && !current.is_empty() {
        progress = false;
        for i in 0..current.len() {
            let mut trial = current.clone();
            trial.remove(i);
            let result = cell(&trial);
            runs += result.runs;
            checks += result.checks;
            if result.violations.iter().any(|(inv, _)| *inv == invariant) {
                current = trial;
                progress = true;
                break;
            }
        }
    }
    (current, runs, checks)
}

/// Silences the default panic hook's report (message + backtrace) for
/// panics whose payload marks them as injected faults — a campaign
/// deliberately triggers hundreds of them, and each is caught and turned
/// into an outcome row. Genuine panics keep the full default report.
/// Installed once per process, never uninstalled (the filter is inert
/// outside campaigns).
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !panic_text(info.payload()).contains("injected fault") {
                previous(info);
            }
        }));
    });
}

/// The one campaign driver both modes run through (see the module docs).
fn sweep<M: Mode>(
    mode: &M,
    subjects: &[FuzzSubject],
    seeds: &[u64],
    jobs: &[usize],
    scratch_root: &Path,
    plan_override: Option<&[M::Event]>,
) -> CampaignReport {
    quiet_injected_panics();
    let mut grid: Vec<usize> = Vec::new();
    for &j in jobs {
        if !grid.contains(&j.max(1)) {
            grid.push(j.max(1));
        }
    }
    if grid.is_empty() {
        grid.push(1);
    }
    let max_jobs = grid.iter().copied().max().unwrap_or(1);
    let mut injected: Vec<(&'static str, usize)> = M::fates().into_iter().map(|f| (f, 0)).collect();
    // A plan is an event set, sorted and deduplicated like the plan types.
    let plan_override: Option<BTreeSet<_>> = plan_override.map(|e| e.iter().cloned().collect());
    let mut violations: Vec<Violation> = Vec::new();
    let (mut runs, mut checks) = (0, 0);
    let failed_baseline = |subject: &FuzzSubject, seed, detail| Violation {
        invariant: Invariant::Taxonomy,
        subject: subject.name.clone(),
        seed,
        detail,
        plan: Vec::new(),
        shrunk: Vec::new(),
        replay: format!("armada verify {}", subject.name),
    };

    for (subject_index, subject) in subjects.iter().enumerate() {
        let scratch = scratch_root.join(format!("s{subject_index}"));
        let base = compute_baseline(subject, &scratch, SimConfig::default());
        runs += 1;
        if let Some(error) = &base.error {
            let detail = format!("fault-free baseline failed: {error}");
            violations.push(failed_baseline(subject, 0, detail));
            continue;
        }
        for &seed in seeds {
            let events = match &plan_override {
                Some(events) => events.iter().cloned().collect(),
                None => mode.seeded(seed, &base),
            };
            for (label, count) in injected.iter_mut() {
                *count += events.iter().filter(|e| M::fate(e) == *label).count();
            }
            let cell_scratch = scratch.join(format!("seed{seed}"));
            // Mutated bounds change verdicts legitimately (a tighter node
            // cap is a real budget-exhaustion), so each mutated seed gets
            // its own like-for-like baseline.
            let mutated;
            let baseline = match mode.bounds(seed) {
                Some(sim) => {
                    mutated = compute_baseline(subject, &cell_scratch, sim);
                    runs += 1;
                    if let Some(error) = &mutated.error {
                        let detail = format!("mutated-bounds baseline failed: {error}");
                        violations.push(failed_baseline(subject, seed, detail));
                        continue;
                    }
                    &mutated
                }
                None => &base,
            };
            let run =
                |trial: &[M::Event]| mode.run_cell(subject, trial, &grid, baseline, &cell_scratch);
            let cell = run(&events);
            runs += cell.runs;
            checks += cell.checks;
            for (invariant, detail) in cell.violations {
                let (shrunk, shrink_runs, shrink_checks) = shrink(&events, invariant, run);
                runs += shrink_runs;
                checks += shrink_checks;
                let spec = strings(&shrunk).join(",");
                let spec = if spec.is_empty() { "''" } else { &spec };
                violations.push(Violation {
                    invariant,
                    subject: subject.name.clone(),
                    seed,
                    detail,
                    plan: strings(&events),
                    shrunk: strings(&shrunk),
                    replay: mode.replay(&subject.name, seed, max_jobs, spec),
                });
            }
            let _ = std::fs::remove_dir_all(&cell_scratch);
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let _ = std::fs::remove_dir_all(scratch_root);
    CampaignReport {
        subjects: subjects.iter().map(|s| s.name.clone()).collect(),
        seeds: seeds.to_vec(),
        jobs: grid,
        runs,
        checks,
        injected,
        violations,
        mode: M::NAME,
        mutate_bounds: false,
    }
}

/// Runs a pipeline campaign (see the module docs).
pub fn run_campaign(subjects: &[FuzzSubject], config: &FuzzConfig) -> CampaignReport {
    CampaignReport {
        mutate_bounds: config.mutate_bounds,
        ..sweep(
            config,
            subjects,
            &config.seeds,
            &config.jobs,
            &config.scratch_root,
            config.plan_override.as_deref(),
        )
    }
}

impl Mode for FuzzConfig {
    type Event = FaultEvent;
    const NAME: &'static str = "pipeline";

    fn fates() -> Vec<&'static str> {
        ALL_FATES.iter().map(|f| f.label()).collect()
    }

    fn fate(event: &FaultEvent) -> &'static str {
        event.fate.label()
    }

    fn seeded(&self, seed: u64, baseline: &Baseline) -> Vec<FaultEvent> {
        FaultPlan::seeded(seed, baseline.recipes.iter().map(String::as_str)).events()
    }

    fn bounds(&self, seed: u64) -> Option<SimConfig> {
        (self.mutate_bounds && seed != 0).then(|| mutated_sim(seed))
    }

    /// Cold + warm runs at every job count, then the invariant checks.
    fn run_cell(
        &self,
        subject: &FuzzSubject,
        events: &[FaultEvent],
        jobs: &[usize],
        baseline: &Baseline,
        scratch: &Path,
    ) -> Cell {
        let plan = FaultPlan::from_events(events.iter().cloned());
        let mut cell = Cell::default();
        let mut colds: Vec<(usize, RunResult)> = Vec::new();
        let mut warms: Vec<(usize, RunResult)> = Vec::new();
        for &jobs in jobs {
            // A fresh store per job count, so cold/warm pairs are
            // comparable across the grid.
            let dir = scratch.join(format!("j{jobs}"));
            let _ = std::fs::remove_dir_all(&dir);
            let run = || {
                run_once(
                    subject,
                    &plan,
                    jobs,
                    &dir,
                    self.mutant_unchecked_loads,
                    &baseline.sim,
                )
            };
            let cold = run();
            let warm = run();
            let _ = std::fs::remove_dir_all(&dir);
            cell.runs += 2;

            for (phase, result) in [("cold", &cold), ("warm", &warm)] {
                // Taxonomy: no escaped panic, no infra error, exit code 0–4.
                let code = result.exit_code;
                cell.check(
                    Invariant::Taxonomy,
                    result.error.is_none() && code.is_some_and(|c| c <= 4),
                    || match &result.error {
                        Some(error) => {
                            format!("{phase} jobs={jobs}: run left the outcome taxonomy: {error}")
                        }
                        None => format!("{phase} jobs={jobs}: exit code {code:?} outside 0-4"),
                    },
                );
                cell.check(Invariant::NoHang, result.elapsed <= HANG_BUDGET, || {
                    format!(
                        "{phase} jobs={jobs}: run took {:?}, budget {HANG_BUDGET:?}",
                        result.elapsed
                    )
                });
                // No-corrupt-cert-served: every hit matches the baseline cert.
                cell.checks += 1;
                for (low, high, nodes, transitions) in &result.served_hits {
                    let detail = match baseline.certs.get(&(low.clone(), high.clone())) {
                        Some(&base) if base == (*nodes, *transitions) => continue,
                        Some((base_nodes, base_transitions)) => format!(
                            "{phase} jobs={jobs}: hit for {low}⊑{high} served \
                             ({nodes}, {transitions}), baseline ({base_nodes}, {base_transitions})"
                        ),
                        None => format!(
                            "{phase} jobs={jobs}: hit for {low}⊑{high} has no baseline certificate"
                        ),
                    };
                    cell.violations.push((Invariant::CorruptCertServed, detail));
                }
                // Recheck: an exit-0 run's certificates all pass the
                // independent checker (structural witness validation plus
                // semantic replay).
                cell.checks += 1;
                for failure in &result.recheck_failures {
                    cell.violations.push((
                        Invariant::RecheckFailed,
                        format!("{phase} jobs={jobs}: certificate failed recheck: {failure}"),
                    ));
                }
                // Verdict-invariance: recoverable faults leave the
                // normalized render byte-identical to the baseline.
                if plan.is_recoverable_only() && result.error.is_none() {
                    let norm = normalize_render(&result.render);
                    cell.check(
                        Invariant::VerdictInvariance,
                        norm == baseline.render_norm,
                        || {
                            format!(
                                "{phase} jobs={jobs}: recoverable faults changed the verdict:\n\
                             --- baseline ---\n{}--- faulted ---\n{norm}",
                                baseline.render_norm
                            )
                        },
                    );
                }
            }
            colds.push((jobs, cold));
            warms.push((jobs, warm));
        }

        // Determinism: renders byte-identical across job counts.
        for (phase, results) in [("cold", &colds), ("warm", &warms)] {
            cell.checks += 1;
            let Some(((first_jobs, first), rest)) = results.split_first() else {
                continue;
            };
            for (jobs, result) in rest {
                if result.render != first.render || result.error != first.error {
                    cell.violations.push((
                        Invariant::Determinism,
                        format!(
                            "{phase}: render differs between jobs={first_jobs} and jobs={jobs}"
                        ),
                    ));
                }
            }
        }
        cell
    }

    fn replay(&self, subject: &str, seed: u64, jobs: usize, events: &str) -> String {
        // An explicit event plan replays on any seed; mutated bounds are a
        // function of the seed, so the replay must sweep up to the failing
        // one to reproduce them.
        if self.mutate_bounds {
            format!(
                "armada fuzz {subject} --seeds {} --jobs {jobs} --mutate-bounds --events {events}",
                seed + 1
            )
        } else {
            format!("armada fuzz {subject} --seeds 1 --jobs {jobs} --events {events}")
        }
    }
}

/// Parameters for a daemon-level campaign (`armada fuzz --serve`).
#[derive(Debug, Clone)]
pub struct ServeFuzzConfig {
    /// The seed grid; each seed derives one [`ServerPlan`] per subject.
    pub seeds: Vec<u64>,
    /// Job counts each request is sent at (deduplicated in order, clamped
    /// to at least 1).
    pub jobs: Vec<usize>,
    /// Root directory for per-cell scratch cert stores (never reported).
    pub scratch_root: PathBuf,
    /// When set, every cell uses exactly this plan instead of a seeded one
    /// (the reproducer path: `armada fuzz --serve … --server-events …`).
    pub plan_override: Option<Vec<ServerEvent>>,
}

impl Default for ServeFuzzConfig {
    fn default() -> ServeFuzzConfig {
        ServeFuzzConfig {
            seeds: (0..8).collect(),
            jobs: vec![1],
            scratch_root: std::env::temp_dir()
                .join(format!("armada-serve-fuzz-{}", std::process::id())),
            plan_override: None,
        }
    }
}

/// Deadline attached to every serve-campaign request.
const REQUEST_DEADLINE: Duration = Duration::from_secs(20);
/// Grace window the campaign's daemons are configured with.
const GRACE: Duration = Duration::from_secs(5);
/// Extra slack past deadline + grace before a slow answer counts as a
/// `deadline_overrun` violation (absorbs scheduler noise; never reported).
const OVERRUN_SLACK: Duration = Duration::from_secs(5);
/// Concurrent clients in a same-key storm.
const STORM_WIDTH: usize = 4;

/// Admission ordinals a seeded server plan can pin fates on. The
/// sequential phase sends exactly this many requests one at a time, so
/// admission order — and therefore which request each fate lands on — is
/// deterministic. Storm requests are admitted concurrently (racy
/// ordinals ≥ `SEQ_ORDINALS`) and deliberately carry no fates.
const SEQ_ORDINALS: usize = 3;

/// Runs a daemon-level campaign (see the module docs): the pipeline
/// invariants that transfer plus `deadline_overrun` and
/// `coalesce_divergence`, with `armada fuzz --serve … --server-events …`
/// reproducer lines.
pub fn run_serve_campaign(subjects: &[FuzzSubject], config: &ServeFuzzConfig) -> CampaignReport {
    sweep(
        config,
        subjects,
        &config.seeds,
        &config.jobs,
        &config.scratch_root,
        config.plan_override.as_deref(),
    )
}

impl Mode for ServeFuzzConfig {
    type Event = ServerEvent;
    const NAME: &'static str = "serve";

    fn fates() -> Vec<&'static str> {
        ALL_SERVER_FATES.iter().map(|f| f.label()).collect()
    }

    fn fate(event: &ServerEvent) -> &'static str {
        event.fate.label()
    }

    fn seeded(&self, seed: u64, _baseline: &Baseline) -> Vec<ServerEvent> {
        ServerPlan::seeded(seed, SEQ_ORDINALS).events()
    }

    /// One daemon per job count, then the cross-jobs determinism check:
    /// sequential renders must agree wherever both job counts produced one.
    fn run_cell(
        &self,
        subject: &FuzzSubject,
        events: &[ServerEvent],
        jobs: &[usize],
        baseline: &Baseline,
        scratch: &Path,
    ) -> Cell {
        let plan = ServerPlan::from_events(events.iter().copied());
        let mut cell = Cell::default();
        let renders: Vec<(usize, Vec<Option<String>>)> = jobs
            .iter()
            .map(|&j| {
                let dir = scratch.join(format!("j{j}"));
                (j, run_daemon(subject, &plan, j, baseline, &dir, &mut cell))
            })
            .collect();
        if let Some(((first_jobs, first), rest)) = renders.split_first() {
            for (other_jobs, other) in rest {
                let agree = first
                    .iter()
                    .zip(other)
                    .all(|(a, b)| !matches!((a, b), (Some(a), Some(b)) if a != b));
                cell.check(Invariant::Determinism, agree, || {
                    format!("daemon renders differ between jobs={first_jobs} and jobs={other_jobs}")
                });
            }
        }
        cell
    }

    fn replay(&self, subject: &str, _seed: u64, jobs: usize, events: &str) -> String {
        format!("armada fuzz --serve {subject} --seeds 1 --jobs {jobs} --server-events {events}")
    }
}

/// Boots a fresh daemon over a fresh tiered store in `store_dir`, drives
/// the sequential phase (cold at ordinal 0, warm after), then — when the
/// plan calls for it — a same-key storm behind the worker gate, then a
/// clean shutdown. Records into `cell`; returns the sequential renders,
/// `None` where the request was jittered or failed.
fn run_daemon(
    subject: &FuzzSubject,
    plan: &ServerPlan,
    jobs: usize,
    baseline: &Baseline,
    store_dir: &Path,
    cell: &mut Cell,
) -> Vec<Option<String>> {
    let mut renders = Vec::new();
    let _ = std::fs::remove_dir_all(store_dir);
    let store = TieredStore::disk(CertStore::open(store_dir)).with_mem(MemTier::with_capacity(32));
    let gate = Gate::open();
    let mut serve_config = ServeConfig::new(store);
    serve_config.default_deadline = REQUEST_DEADLINE;
    serve_config.grace = GRACE;
    serve_config.plan = plan.clone();
    serve_config.gate = Some(gate.clone());
    let handle = match Server::start(serve_config) {
        Ok(handle) => handle,
        Err(e) => {
            cell.violations
                .push((Invariant::Taxonomy, format!("daemon failed to start: {e}")));
            return renders;
        }
    };
    let addr = handle.addr().to_string();
    // The client-side timeout sits well past the daemon's no-hang
    // guarantee: hitting it means the guarantee broke, which the
    // deadline-overrun check below turns into a violation.
    let timeout = REQUEST_DEADLINE + GRACE + Duration::from_secs(10);
    let ceiling = REQUEST_DEADLINE + GRACE + OVERRUN_SLACK;
    let verify_request = || {
        Request::Verify(VerifyRequest {
            source: Some(subject.source.clone()),
            path: None,
            name: Some(subject.name.clone()),
            deadline_ms: Some(REQUEST_DEADLINE.as_millis() as u64),
            jobs: Some(jobs),
        })
    };

    for ordinal in 0..SEQ_ORDINALS {
        let start = Instant::now();
        let response = client_request(&addr, &verify_request(), timeout);
        let elapsed = start.elapsed();
        cell.runs += 1;
        let jittered = plan.has(ServerFate::AcceptJitter, ordinal);
        cell.check(Invariant::DeadlineOverrun, elapsed <= ceiling, || {
            format!(
                "request {ordinal} answered after {}ms (ceiling {}ms)",
                elapsed.as_millis(),
                ceiling.as_millis()
            )
        });
        cell.checks += 1;
        let mut render = None;
        match response {
            Err(message) => cell.violations.push((
                Invariant::Taxonomy,
                format!("request {ordinal} failed: {message}"),
            )),
            Ok(Response::Result {
                exit_code,
                render: text,
                ..
            }) => {
                if exit_code > 4 {
                    cell.violations.push((
                        Invariant::Taxonomy,
                        format!(
                            "request {ordinal} exit code {exit_code} is outside the 0-4 taxonomy"
                        ),
                    ));
                }
                // A collapsed deadline legitimately degrades the verdict;
                // the render is excluded from invariance and determinism
                // comparisons.
                if !jittered {
                    cell.check(
                        Invariant::VerdictInvariance,
                        normalize_render(&text) == baseline.render_norm,
                        || {
                            format!(
                                "request {ordinal} verdict diverged from the fault-free \
                                 baseline under recoverable faults"
                            )
                        },
                    );
                    render = Some(text);
                }
            }
            Ok(Response::Deadline { .. }) => {
                if !jittered {
                    cell.violations.push((
                        Invariant::Taxonomy,
                        format!("request {ordinal} hit its deadline without injected jitter"),
                    ));
                }
            }
            Ok(other) => cell.violations.push((
                Invariant::Taxonomy,
                format!(
                    "request {ordinal} got an unexpected response kind (exit {})",
                    other.exit_code()
                ),
            )),
        }
        renders.push(render);
    }

    if plan.count_of(ServerFate::SameKeyStorm) > 0 {
        // Close the gate so the storm's leader blocks mid-verification and
        // the herd piles up behind its in-flight entry.
        gate.hold();
        let waiters_before = handle.stats().waiters();
        let verifications_before = handle.stats().verifications();
        let results: Vec<Result<Response, String>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..STORM_WIDTH)
                .map(|_| {
                    let addr = addr.clone();
                    let request = verify_request();
                    scope.spawn(move || client_request(&addr, &request, timeout))
                })
                .collect();
            // Release only once every member is registered as a waiter, so
            // coalescing (not timing luck) is what the checks exercise. The
            // cap keeps a broken daemon from wedging the campaign.
            let pile_up_by = Instant::now() + Duration::from_secs(10);
            while handle.stats().waiters() < waiters_before + STORM_WIDTH as u64
                && Instant::now() < pile_up_by
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            gate.release();
            clients
                .into_iter()
                .map(|c| {
                    c.join()
                        .unwrap_or_else(|_| Err("storm client panicked".to_string()))
                })
                .collect()
        });
        cell.runs += STORM_WIDTH;
        cell.checks += 1;
        let mut rows: Vec<(u8, bool, String, bool)> = Vec::new();
        for (member, result) in results.into_iter().enumerate() {
            let detail = match result {
                Ok(Response::Result {
                    exit_code,
                    verified,
                    render,
                    coalesced,
                    ..
                }) => {
                    rows.push((exit_code, verified, render, coalesced));
                    continue;
                }
                Ok(other) => format!(
                    "storm member {member} got a non-result response (exit {})",
                    other.exit_code()
                ),
                Err(message) => format!("storm member {member} failed: {message}"),
            };
            cell.violations
                .push((Invariant::CoalesceDivergence, detail));
        }
        if rows.len() == STORM_WIDTH {
            let delta = handle.stats().verifications() - verifications_before;
            let leaders = rows.iter().filter(|r| !r.3).count();
            let first = &rows[0];
            let differ = rows
                .iter()
                .any(|r| (r.0, r.1, &r.2) != (first.0, first.1, &first.2));
            let mut diverged = |detail: String| {
                cell.violations
                    .push((Invariant::CoalesceDivergence, detail))
            };
            if delta != 1 {
                diverged(format!(
                    "same-key storm cost {delta} verifications (want exactly 1)"
                ));
            }
            if leaders != 1 {
                diverged(format!("storm produced {leaders} leaders (want exactly 1)"));
            }
            if differ {
                diverged("storm members observed differing responses".to_string());
            }
            let cold = normalize_render(&first.2) == baseline.render_norm;
            cell.check(Invariant::CoalesceDivergence, cold, || {
                "coalesced verdict diverged from a cold run".to_string()
            });
        }
    }

    cell.checks += 1;
    if let Err(message) = handle.shutdown() {
        cell.violations.push((
            Invariant::Taxonomy,
            format!("clean shutdown failed: {message}"),
        ));
    }
    let _ = std::fs::remove_dir_all(store_dir);
    renders
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultFate;

    const TINY: &str = r#"
        level Impl {
            var x: uint32;
            void main() { x := 2; print(x); }
        }
        level Spec {
            var x: uint32;
            void main() { x := *; print(x); }
        }
        proof P { refinement Impl Spec nondet_weakening }
    "#;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("armada-fuzz-unit-{tag}-{}", std::process::id()))
    }

    #[test]
    fn event_specs_round_trip() {
        let events = parse_events::<FaultEvent>("torn_cert_write:P1, worker_abort:P2").unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].fate, FaultFate::TornCertWrite);
        assert_eq!(events[1].recipe, "P2");
        assert!(parse_events::<FaultEvent>("no_separator").is_err());
        assert!(parse_events::<FaultEvent>("").unwrap().is_empty());
    }

    #[test]
    fn event_specs_reject_unknown_fates_naming_the_token() {
        let err = parse_events::<FaultEvent>("bogus:P").unwrap_err();
        match &err {
            PipelineError::Events { token, message } => {
                assert_eq!(token, "bogus:P");
                assert!(message.contains("unknown fault fate `bogus`"), "{message}");
            }
            other => panic!("expected Events error, got {other:?}"),
        }
        assert!(err.to_string().contains("bogus:P"));
    }

    #[test]
    fn event_specs_reject_duplicate_tokens() {
        // A FaultPlan stores a set: without rejection the second token
        // would silently vanish and the reproducer line would lie about
        // how many faults it injects.
        let err = parse_events::<FaultEvent>("worker_abort:P1,torn_cert_write:P2,worker_abort:P1")
            .unwrap_err();
        match &err {
            PipelineError::Events { token, .. } => assert_eq!(token, "worker_abort:P1"),
            other => panic!("expected Events error, got {other:?}"),
        }
        // Same fate on different recipes is not a duplicate.
        assert_eq!(
            parse_events::<FaultEvent>("worker_abort:P1,worker_abort:P2")
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn server_event_specs_round_trip_and_reject_bad_tokens() {
        let events = parse_events::<ServerEvent>("worker_kill:0, same_key_storm:2").unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].fate, ServerFate::WorkerKill);
        assert_eq!(events[1].ordinal, 2);
        let spec = events
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(parse_events::<ServerEvent>(&spec).unwrap(), events);
        for bad in [
            "dance:0",
            "worker_kill",
            "worker_kill:zero",
            "worker_kill:0,worker_kill:0",
        ] {
            assert!(
                matches!(
                    parse_events::<ServerEvent>(bad),
                    Err(PipelineError::Events { .. })
                ),
                "`{bad}` should be rejected"
            );
        }
    }

    /// Drives the one greedy shrinker with a synthetic cell that trips
    /// `Taxonomy` iff `culprit` is in the trial plan (and always trips a
    /// decoy invariant the shrink must ignore).
    fn shrinks_to_the_culprit<E: Clone + PartialEq + std::fmt::Debug>(events: &[E], culprit: &E) {
        let mut trials = 0;
        let mut cell = |trial: &[E]| {
            trials += 1;
            let mut cell = Cell {
                runs: 2,
                checks: 3,
                ..Cell::default()
            };
            cell.violations
                .push((Invariant::NoHang, "decoy".to_string()));
            if trial.contains(culprit) {
                cell.violations
                    .push((Invariant::Taxonomy, "culprit present".to_string()));
            }
            cell
        };
        let (shrunk, runs, checks) = shrink(events, Invariant::Taxonomy, &mut cell);
        assert_eq!(shrunk, vec![culprit.clone()]);
        // Fixpoint: shrinking the result again removes nothing and costs
        // exactly one trial (dropping the culprit, which clears the trip).
        let (again, again_runs, again_checks) = shrink(&shrunk, Invariant::Taxonomy, &mut cell);
        assert_eq!(again, shrunk);
        assert_eq!((again_runs, again_checks), (2, 3));
        // Every trial cell's runs and checks are accounted for. With the
        // culprit third of four, the greedy passes cost 1 + 1 + 2 + 1
        // trials, plus the one re-shrink trial.
        assert_eq!(trials, 6);
        assert_eq!((runs, checks), (2 * 5, 3 * 5));
    }

    /// The pipeline mode with a cell that trips whatever the plan: the
    /// violation needs no fault at all.
    struct AlwaysTrips(FuzzConfig);

    impl Mode for AlwaysTrips {
        type Event = FaultEvent;
        const NAME: &'static str = "always_trips";

        fn fates() -> Vec<&'static str> {
            FuzzConfig::fates()
        }

        fn fate(event: &FaultEvent) -> &'static str {
            FuzzConfig::fate(event)
        }

        fn seeded(&self, seed: u64, baseline: &Baseline) -> Vec<FaultEvent> {
            self.0.seeded(seed, baseline)
        }

        fn run_cell(
            &self,
            _: &FuzzSubject,
            _: &[FaultEvent],
            _: &[usize],
            _: &Baseline,
            _: &Path,
        ) -> Cell {
            Cell {
                violations: vec![(Invariant::Taxonomy, "always".to_string())],
                runs: 1,
                checks: 1,
            }
        }

        fn replay(&self, subject: &str, seed: u64, jobs: usize, events: &str) -> String {
            self.0.replay(subject, seed, jobs, events)
        }
    }

    #[test]
    fn a_fault_free_violation_replays_with_an_explicitly_empty_plan() {
        let config = FuzzConfig {
            seeds: vec![0],
            jobs: vec![2, 0, 2],
            scratch_root: scratch("always-trips"),
            ..FuzzConfig::default()
        };
        let events: Vec<FaultEvent> = parse_events("worker_abort:P,torn_cert_write:P").unwrap();
        let subjects = [FuzzSubject::new("tiny", TINY)];
        let report = sweep(
            &AlwaysTrips(config.clone()),
            &subjects,
            &config.seeds,
            &config.jobs,
            &config.scratch_root,
            Some(&events),
        );
        // The grid that ran: clamped to ≥ 1 and deduplicated in order.
        assert_eq!(report.jobs, vec![2, 1]);
        assert_eq!(report.total_injected(), 2);
        let [violation] = &report.violations[..] else {
            panic!("want one violation: {}", report.to_json());
        };
        // The plan is stored as a set, in fate order.
        assert_eq!(violation.plan, ["torn_cert_write:P", "worker_abort:P"]);
        assert!(violation.shrunk.is_empty());
        assert_eq!(
            violation.replay,
            "armada fuzz tiny --seeds 1 --jobs 2 --events ''"
        );
        // Baseline + cell + two shrink trials (each removal still trips).
        assert_eq!((report.runs, report.checks), (4, 3));
    }

    #[test]
    fn shrink_keeps_exactly_the_culprit_for_both_event_types() {
        let event = |fate, recipe: &str| FaultEvent {
            fate,
            recipe: recipe.to_string(),
        };
        let culprit = event(FaultFate::BitFlipCertWrite, "P");
        shrinks_to_the_culprit(
            &[
                event(FaultFate::WaveStall, "P"),
                event(FaultFate::CancelDelay, "P"),
                culprit.clone(),
                event(FaultFate::WorkerAbort, "Q"),
            ],
            &culprit,
        );
        let server = |fate, ordinal| ServerEvent { fate, ordinal };
        let culprit = server(ServerFate::Tier2Corrupt, 1);
        shrinks_to_the_culprit(
            &[
                server(ServerFate::WorkerKill, 0),
                server(ServerFate::AcceptJitter, 2),
                culprit,
                server(ServerFate::SameKeyStorm, 0),
            ],
            &culprit,
        );
    }

    #[test]
    fn tiny_serve_campaign_covers_every_server_fate_and_stays_clean() {
        let subjects = [FuzzSubject::new("tiny", TINY)];
        let config = ServeFuzzConfig {
            seeds: vec![0],
            jobs: vec![1],
            scratch_root: scratch("serve-campaign"),
            plan_override: Some(
                parse_events("worker_kill:0,tier2_corrupt:1,accept_jitter:2,same_key_storm:0")
                    .unwrap(),
            ),
        };
        let report = run_serve_campaign(&subjects, &config);
        assert_eq!(report.mode, "serve");
        assert!(
            report.ok(),
            "serve campaign tripped invariants: {}",
            report.to_json()
        );
        assert!(report.all_fates_injected(), "{:?}", report.injected);
        // Byte-identical rerun: the report is a pure function of
        // (subjects, config).
        let again = run_serve_campaign(&subjects, &config);
        assert_eq!(report.to_json(), again.to_json());
    }

    #[test]
    fn tiny_campaign_is_clean_and_deterministic() {
        let subjects = [FuzzSubject::new("tiny", TINY)];
        let config = FuzzConfig {
            seeds: (0..4).collect(),
            jobs: vec![1, 2],
            scratch_root: scratch("clean"),
            ..FuzzConfig::default()
        };
        let first = run_campaign(&subjects, &config);
        assert!(
            first.ok(),
            "violations: {:?}",
            first
                .violations
                .iter()
                .map(|v| &v.detail)
                .collect::<Vec<_>>()
        );
        assert!(first.runs > 0 && first.checks > 0);
        let second = run_campaign(&subjects, &config);
        assert_eq!(first.to_json(), second.to_json());
    }

    #[test]
    fn spill_and_checkpoint_fates_recover_byte_identically() {
        // The two storage fates are recoverable: a torn checkpoint manifest
        // must fall back to a cold start, and a corrupt spill-page read
        // must be checksum-rejected and re-read — never decoded into
        // states. Either failure would change the verdict (or panic), so a
        // clean campaign with verdict-invariance checked is the assertion
        // that a corrupt page is never served and a torn checkpoint never
        // resumed.
        let subjects = [FuzzSubject::new("tiny", TINY)];
        let config = FuzzConfig {
            seeds: vec![0],
            jobs: vec![1, 2],
            scratch_root: scratch("spill-ck"),
            plan_override: Some(
                parse_events("torn_checkpoint_write:P,corrupt_spill_read:P").unwrap(),
            ),
            ..FuzzConfig::default()
        };
        let report = run_campaign(&subjects, &config);
        assert!(
            report.ok(),
            "violations: {:?}",
            report
                .violations
                .iter()
                .map(|v| (v.invariant, &v.detail))
                .collect::<Vec<_>>()
        );
        assert_eq!(report.total_injected(), 2);
        // Both fates must be recoverable, or the campaign above would have
        // skipped the verdict-invariance comparison entirely.
        assert!(FaultPlan::from_events(config.plan_override.unwrap()).is_recoverable_only());
    }

    /// A report with one pipeline and one serve violation, details that
    /// need escaping, and empty plans.
    fn report_with_violations(detail_tail: &str) -> CampaignReport {
        let event = |fate, recipe: &str| FaultEvent {
            fate,
            recipe: recipe.to_string(),
        };
        let server = |fate, ordinal| ServerEvent { fate, ordinal };
        CampaignReport {
            subjects: vec!["counter.arm".into(), "odd \"name\".arm".into()],
            seeds: vec![0, 1, 7],
            jobs: vec![1, 4],
            runs: 42,
            checks: 99,
            injected: vec![("worker_abort", 3), ("torn_cert_write", 0)],
            violations: vec![
                Violation {
                    invariant: Invariant::CorruptCertServed,
                    subject: "counter.arm".into(),
                    seed: 7,
                    detail: format!("quote \" backslash \\ tab \t ctl \u{1} end{detail_tail}"),
                    plan: strings(&[
                        event(FaultFate::BitFlipCertWrite, "P"),
                        event(FaultFate::WorkerAbort, "Q"),
                    ]),
                    shrunk: vec![],
                    replay: "armada verify counter.arm --events bit_flip_cert_write:P".into(),
                },
                Violation {
                    invariant: Invariant::DeadlineOverrun,
                    subject: "odd \"name\".arm".into(),
                    seed: 0,
                    detail: "line one\nline two ⊑".into(),
                    plan: strings(&[
                        server(ServerFate::WorkerKill, 0),
                        server(ServerFate::SameKeyStorm, 2),
                    ]),
                    shrunk: strings(&[server(ServerFate::SameKeyStorm, 2)]),
                    replay: String::new(),
                },
            ],
            mode: "serve",
            mutate_bounds: true,
        }
    }

    #[test]
    fn report_with_violations_renders_the_pinned_layout() {
        let expected = r#"{
  "subjects": ["counter.arm", "odd \"name\".arm"],
  "seeds": [0, 1, 7],
  "jobs": [1, 4],
  "mode": "serve",
  "mutate_bounds": true,
  "runs": 42,
  "checks": 99,
  "injected": {
    "worker_abort": 3,
    "torn_cert_write": 0
  },
  "violations": [
    {
      "invariant": "corrupt_cert_served",
      "subject": "counter.arm",
      "seed": 7,
      "detail": "quote \" backslash \\ tab \t ctl \u0001 end",
      "plan": ["bitflip_cert_write:P", "worker_abort:Q"],
      "shrunk": [],
      "replay": "armada verify counter.arm --events bit_flip_cert_write:P"
    },
    {
      "invariant": "deadline_overrun",
      "subject": "odd \"name\".arm",
      "seed": 0,
      "detail": "line one\nline two ⊑",
      "plan": ["worker_kill:0", "same_key_storm:2"],
      "shrunk": ["same_key_storm:2"],
      "replay": ""
    }
  ]
}
"#;
        assert_eq!(report_with_violations("").to_json(), expected);
        let clean = CampaignReport {
            violations: vec![],
            ..report_with_violations("")
        };
        assert!(clean.to_json().ends_with("\n  \"violations\": []\n}\n"));
    }

    #[test]
    fn report_escapes_carriage_return() {
        // By name, as in the serve wire format and the bench reports.
        let json = report_with_violations("\r").to_json();
        assert!(json.contains(r#"ctl \u0001 end\r","#), "{json}");
    }

    #[test]
    fn mutant_store_trips_the_corrupt_cert_invariant() {
        let subjects = [FuzzSubject::new("tiny", TINY)];
        let config = FuzzConfig {
            seeds: vec![0],
            jobs: vec![1],
            scratch_root: scratch("mutant"),
            mutant_unchecked_loads: true,
            plan_override: Some(vec![FaultEvent {
                fate: FaultFate::BitFlipCertWrite,
                recipe: "P".to_string(),
            }]),
            ..FuzzConfig::default()
        };
        let report = run_campaign(&subjects, &config);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == Invariant::CorruptCertServed),
            "mutant not caught: {:?}",
            report
                .violations
                .iter()
                .map(|v| (v.invariant, &v.detail))
                .collect::<Vec<_>>()
        );
        let caught = report
            .violations
            .iter()
            .find(|v| v.invariant == Invariant::CorruptCertServed)
            .unwrap();
        assert!(caught.shrunk.len() <= 3, "shrunk: {:?}", caught.shrunk);
        assert!(caught.replay.contains("--events"));
    }
}
