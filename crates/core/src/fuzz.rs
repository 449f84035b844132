//! Deterministic fault-fuzzing campaigns over the verification pipeline.
//!
//! A campaign sweeps a corpus of subjects (Armada source files) over a
//! seed grid. Each `(subject, seed)` cell derives a [`FaultPlan`] from the
//! seed (see [`FaultPlan::seeded`]), runs the pipeline cold and warm
//! (against a fresh certificate store, then against the store the cold run
//! populated) at every configured job count, and checks the campaign
//! invariants:
//!
//! * **taxonomy** — every run lands inside the documented outcome space:
//!   no escaped panic, no infrastructure error on a well-formed subject,
//!   and a worst-status exit code in the 0–4 vocabulary;
//! * **no-hang** — every run finishes inside the hang budget (faults may
//!   slow a run down, never wedge it);
//! * **no-corrupt-cert-served** — whenever the store reports a cache hit,
//!   the served certificate is identical to the fault-free baseline's
//!   certificate for that level pair (a mangled record must be a miss,
//!   never a lie);
//! * **verdict-invariance** — when every injected fault is recoverable
//!   (see [`FaultFate::is_recoverable`]), the report is byte-identical to
//!   the fault-free baseline after erasing cache-disposition annotations;
//! * **determinism** — for one `(subject, seed)` cell, renders are
//!   byte-identical across job counts (cold vs cold, warm vs warm);
//! * **recheck** — every certificate an exit-0 run emits carries a witness
//!   that passes the independent `armada recheck` checker: structural
//!   validation plus semantic replay against the subject's own source.
//!
//! When an invariant trips, the campaign greedily shrinks the plan — retry
//! the cell with each event removed, keep removals that preserve the
//! violation, repeat to fixpoint — and records a minimal event list plus a
//! ready-to-run `armada fuzz … --events …` reproducer line.
//!
//! Everything is a pure function of `(subjects, config)`: the campaign
//! report (see [`CampaignReport::to_json`]) contains no timestamps, paths,
//! or durations, so reruns are byte-identical — the determinism gate
//! `scripts/verify.sh` relies on.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::time::{Duration, Instant};

use armada_runtime::hash::fnv1a_64;
use armada_runtime::SplitMix64;

use crate::fault::{
    FaultEvent, FaultFate, FaultPlan, ServerEvent, ServerFate, ServerPlan, ALL_FATES,
    ALL_SERVER_FATES,
};
use crate::proto::{Json, Request, Response, VerifyRequest};
use crate::serve::{client_request, Gate, ServeConfig, Server};
use crate::verify::store::{CertStore, StoreShim};
use crate::verify::tier::{MemTier, TieredStore};
use crate::verify::SimConfig;
use crate::{CacheDisposition, Pipeline, PipelineError};

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

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// The seed grid; each seed derives one fault plan per subject.
    pub seeds: Vec<u64>,
    /// Job counts to run each cell at (deduplicated in order).
    pub jobs: Vec<usize>,
    /// Wall-clock ceiling per pipeline run; exceeding it is a `no-hang`
    /// violation.
    pub hang_budget: Duration,
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
            hang_budget: Duration::from_secs(30),
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
    /// The full plan that tripped the invariant.
    pub plan: Vec<FaultEvent>,
    /// The greedily shrunk minimal plan that still trips it.
    pub shrunk: Vec<FaultEvent>,
    /// Serve campaigns: the full server-level plan that tripped the
    /// invariant (empty for pipeline campaigns).
    pub server_plan: Vec<ServerEvent>,
    /// Serve campaigns: the shrunk minimal server-level plan.
    pub server_shrunk: Vec<ServerEvent>,
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
    /// The job-count grid.
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
            let (plan, shrunk) = if v.server_plan.is_empty() {
                (labels(&v.plan), labels(&v.shrunk))
            } else {
                (labels(&v.server_plan), labels(&v.server_shrunk))
            };
            Json::Obj(vec![
                field("invariant", Json::Str(v.invariant.label().into())),
                field("subject", Json::Str(v.subject.clone())),
                field("seed", seed(v.seed)),
                field("detail", Json::Str(v.detail.clone())),
                field("plan", plan),
                field("shrunk", shrunk),
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
fn labels(items: &[impl std::fmt::Display]) -> Json {
    Json::Arr(
        items
            .iter()
            .map(|item| Json::Str(item.to_string()))
            .collect(),
    )
}

/// Parses a comma-separated `fate:recipe` event list (the `--events` CLI
/// argument and the reproducer vocabulary).
///
/// # Errors
///
/// Returns [`PipelineError::Events`] naming the offending token when an
/// entry is malformed, names an unknown fate, or repeats an earlier
/// token. Repeats are an error rather than a no-op because a
/// [`FaultPlan`] stores an event *set*: a silently deduplicated repeat
/// would make a reproducer line claim more injections than it performs.
pub fn parse_events(spec: &str) -> Result<Vec<FaultEvent>, PipelineError> {
    let bad = |token: &str, message: String| PipelineError::Events {
        token: token.to_string(),
        message,
    };
    let mut events: Vec<FaultEvent> = Vec::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let entry = entry.trim();
        let (label, recipe) = entry
            .split_once(':')
            .ok_or_else(|| bad(entry, "want fate:recipe".to_string()))?;
        let fate = FaultFate::parse(label)
            .ok_or_else(|| bad(entry, format!("unknown fault fate `{label}`")))?;
        let event = FaultEvent {
            fate,
            recipe: recipe.to_string(),
        };
        if events.contains(&event) {
            return Err(bad(
                entry,
                "duplicate event (a fault plan is a set; the repeat would be dropped)".to_string(),
            ));
        }
        events.push(event);
    }
    Ok(events)
}

/// What one pipeline execution produced, as the invariant checks see it.
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
    }));
    let elapsed = start.elapsed();
    match outcome {
        Err(payload) => {
            let text = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            RunResult {
                render: String::new(),
                error: Some(format!("panic escaped the pipeline: {text}")),
                exit_code: None,
                served_hits: Vec::new(),
                certs: Vec::new(),
                recheck_failures: Vec::new(),
                elapsed,
            }
        }
        Ok(Err(message)) => RunResult {
            render: String::new(),
            error: Some(message),
            exit_code: None,
            served_hits: Vec::new(),
            certs: Vec::new(),
            recheck_failures: Vec::new(),
            elapsed,
        },
        Ok(Ok(report)) => {
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
            // Invariant #6: every certificate of an exit-0 run must survive
            // the independent checker — serialize, then structurally
            // validate and semantically replay against the subject source.
            let mut recheck_failures = Vec::new();
            if exit_code == 0 {
                for cert in report.refinements.iter().filter_map(|r| r.as_ref().ok()) {
                    let record = crate::verify::store::serialize(cert);
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
                elapsed,
            }
        }
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

/// The fault-free reference for one subject.
struct Baseline {
    /// Normalized render of a clean jobs=1 run.
    render_norm: String,
    /// `(low, high)` → `(product_nodes, low_transitions)`.
    certs: BTreeMap<(String, String), (usize, usize)>,
    /// Baseline infrastructure failure, if any (the subject is unusable).
    error: Option<String>,
}

fn compute_baseline(subject: &FuzzSubject, scratch: &Path, sim: &SimConfig) -> (Baseline, usize) {
    let dir = scratch.join("baseline");
    let result = run_once(subject, &FaultPlan::new(), 1, &dir, false, sim);
    let _ = std::fs::remove_dir_all(&dir);
    let baseline = Baseline {
        render_norm: normalize_render(&result.render),
        certs: result
            .certs
            .iter()
            .map(|(low, high, nodes, transitions)| {
                ((low.clone(), high.clone()), (*nodes, *transitions))
            })
            .collect(),
        error: result.error,
    };
    (baseline, 1)
}

/// One `(subject, plan)` cell: cold + warm runs at every job count, then
/// the invariant checks. Returns `(violations, runs, checks)`.
fn run_cell(
    subject: &FuzzSubject,
    plan: &FaultPlan,
    config: &FuzzConfig,
    baseline: &Baseline,
    scratch: &Path,
    sim: &SimConfig,
) -> (Vec<(Invariant, String)>, usize, usize) {
    let mut violations: Vec<(Invariant, String)> = Vec::new();
    let mut runs = 0usize;
    let mut checks = 0usize;
    let mut colds: Vec<(usize, RunResult)> = Vec::new();
    let mut warms: Vec<(usize, RunResult)> = Vec::new();

    let mut jobs_grid: Vec<usize> = Vec::new();
    for &j in &config.jobs {
        let j = j.max(1);
        if !jobs_grid.contains(&j) {
            jobs_grid.push(j);
        }
    }

    for &jobs in &jobs_grid {
        // A fresh store per job count, so cold/warm pairs are comparable
        // across the grid.
        let dir = scratch.join(format!("j{jobs}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = run_once(
            subject,
            plan,
            jobs,
            &dir,
            config.mutant_unchecked_loads,
            sim,
        );
        let warm = run_once(
            subject,
            plan,
            jobs,
            &dir,
            config.mutant_unchecked_loads,
            sim,
        );
        let _ = std::fs::remove_dir_all(&dir);
        runs += 2;

        for (phase, result) in [("cold", &cold), ("warm", &warm)] {
            // Taxonomy: no escaped panic, no infra error, exit code 0–4.
            checks += 1;
            if let Some(error) = &result.error {
                violations.push((
                    Invariant::Taxonomy,
                    format!("{phase} jobs={jobs}: run left the outcome taxonomy: {error}"),
                ));
            } else if result.exit_code.is_none_or(|code| code > 4) {
                violations.push((
                    Invariant::Taxonomy,
                    format!(
                        "{phase} jobs={jobs}: exit code {:?} outside 0-4",
                        result.exit_code
                    ),
                ));
            }
            // No-hang: the run finished inside the budget.
            checks += 1;
            if result.elapsed > config.hang_budget {
                violations.push((
                    Invariant::NoHang,
                    format!(
                        "{phase} jobs={jobs}: run took {:?}, budget {:?}",
                        result.elapsed, config.hang_budget
                    ),
                ));
            }
            // No-corrupt-cert-served: every hit matches the baseline cert.
            checks += 1;
            for (low, high, nodes, transitions) in &result.served_hits {
                match baseline.certs.get(&(low.clone(), high.clone())) {
                    Some(&(base_nodes, base_transitions))
                        if base_nodes == *nodes && base_transitions == *transitions => {}
                    Some(&(base_nodes, base_transitions)) => violations.push((
                        Invariant::CorruptCertServed,
                        format!(
                            "{phase} jobs={jobs}: hit for {low}⊑{high} served \
                             ({nodes}, {transitions}), baseline ({base_nodes}, {base_transitions})"
                        ),
                    )),
                    None => violations.push((
                        Invariant::CorruptCertServed,
                        format!(
                            "{phase} jobs={jobs}: hit for {low}⊑{high} has no baseline certificate"
                        ),
                    )),
                }
            }
            // Recheck: an exit-0 run's certificates all pass the
            // independent checker (structural witness validation plus
            // semantic replay).
            checks += 1;
            for failure in &result.recheck_failures {
                violations.push((
                    Invariant::RecheckFailed,
                    format!("{phase} jobs={jobs}: certificate failed recheck: {failure}"),
                ));
            }
            // Verdict-invariance: recoverable faults leave the normalized
            // render byte-identical to the baseline.
            if plan.is_recoverable_only() && baseline.error.is_none() && result.error.is_none() {
                checks += 1;
                let norm = normalize_render(&result.render);
                if norm != baseline.render_norm {
                    violations.push((
                        Invariant::VerdictInvariance,
                        format!(
                            "{phase} jobs={jobs}: recoverable faults changed the verdict:\n\
                             --- baseline ---\n{}--- faulted ---\n{norm}",
                            baseline.render_norm
                        ),
                    ));
                }
            }
        }
        colds.push((jobs, cold));
        warms.push((jobs, warm));
    }

    // Determinism: renders byte-identical across job counts.
    for (phase, results) in [("cold", &colds), ("warm", &warms)] {
        checks += 1;
        if let Some((first_jobs, first)) = results.first() {
            for (jobs, result) in &results[1..] {
                if result.render != first.render || result.error != first.error {
                    violations.push((
                        Invariant::Determinism,
                        format!(
                            "{phase}: render differs between jobs={first_jobs} and jobs={jobs}"
                        ),
                    ));
                }
            }
        }
    }
    (violations, runs, checks)
}

/// Greedy delta-debugging: drop events one at a time, keeping removals
/// that preserve a violation of `invariant`, to fixpoint. Returns the
/// minimal plan and the number of pipeline runs spent shrinking.
fn shrink(
    subject: &FuzzSubject,
    events: &[FaultEvent],
    invariant: Invariant,
    config: &FuzzConfig,
    baseline: &Baseline,
    scratch: &Path,
    sim: &SimConfig,
) -> (Vec<FaultEvent>, usize, usize) {
    let mut current: Vec<FaultEvent> = events.to_vec();
    let mut runs = 0usize;
    let mut checks = 0usize;
    let still_violates = |trial: &[FaultEvent], runs: &mut usize, checks: &mut usize| -> bool {
        let plan = FaultPlan::from_events(trial.iter().cloned());
        let (violations, r, c) = run_cell(subject, &plan, config, baseline, scratch, sim);
        *runs += r;
        *checks += c;
        violations.iter().any(|(inv, _)| *inv == invariant)
    };
    let mut progress = true;
    while progress && !current.is_empty() {
        progress = false;
        for i in 0..current.len() {
            let mut trial = current.clone();
            trial.remove(i);
            if still_violates(&trial, &mut runs, &mut checks) {
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
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Runs the whole campaign (see the module docs).
pub fn run_campaign(subjects: &[FuzzSubject], config: &FuzzConfig) -> CampaignReport {
    quiet_injected_panics();
    let mut injected: Vec<(&'static str, usize)> =
        ALL_FATES.iter().map(|f| (f.label(), 0)).collect();
    let mut violations: Vec<Violation> = Vec::new();
    let mut runs = 0usize;
    let mut checks = 0usize;
    let max_jobs = config.jobs.iter().copied().max().unwrap_or(1);

    for (subject_index, subject) in subjects.iter().enumerate() {
        let scratch = config.scratch_root.join(format!("s{subject_index}"));
        let (baseline, baseline_runs) = compute_baseline(subject, &scratch, &SimConfig::default());
        runs += baseline_runs;
        if let Some(error) = &baseline.error {
            violations.push(Violation {
                invariant: Invariant::Taxonomy,
                subject: subject.name.clone(),
                seed: 0,
                detail: format!("fault-free baseline failed: {error}"),
                plan: Vec::new(),
                shrunk: Vec::new(),
                server_plan: Vec::new(),
                server_shrunk: Vec::new(),
                replay: format!("armada verify {}", subject.name),
            });
            continue;
        }
        let recipe_names: Vec<String> = {
            // The baseline succeeded, so the source parses.
            let pipeline = Pipeline::from_source(&subject.source).expect("baseline parsed");
            pipeline
                .typed()
                .module
                .recipes
                .iter()
                .map(|r| r.name.clone())
                .collect()
        };
        for &seed in &config.seeds {
            let plan = match &config.plan_override {
                Some(events) => FaultPlan::from_events(events.iter().cloned()),
                None => FaultPlan::seeded(seed, recipe_names.iter().map(|n| n.as_str())),
            };
            for entry in injected.iter_mut() {
                entry.1 += plan
                    .events()
                    .iter()
                    .filter(|e| e.fate.label() == entry.0)
                    .count();
            }
            let cell_scratch = scratch.join(format!("seed{seed}"));
            // Mutated bounds change verdicts legitimately (a tighter node
            // cap is a real budget-exhaustion), so each mutated seed gets
            // its own like-for-like baseline.
            let sim = if config.mutate_bounds {
                mutated_sim(seed)
            } else {
                SimConfig::default()
            };
            let cell_baseline;
            let baseline = if config.mutate_bounds && seed != 0 {
                let (b, baseline_runs) = compute_baseline(subject, &cell_scratch, &sim);
                runs += baseline_runs;
                cell_baseline = b;
                if let Some(error) = &cell_baseline.error {
                    violations.push(Violation {
                        invariant: Invariant::Taxonomy,
                        subject: subject.name.clone(),
                        seed,
                        detail: format!("mutated-bounds baseline failed: {error}"),
                        plan: Vec::new(),
                        shrunk: Vec::new(),
                        server_plan: Vec::new(),
                        server_shrunk: Vec::new(),
                        replay: format!("armada verify {}", subject.name),
                    });
                    continue;
                }
                &cell_baseline
            } else {
                &baseline
            };
            let (cell_violations, cell_runs, cell_checks) =
                run_cell(subject, &plan, config, baseline, &cell_scratch, &sim);
            runs += cell_runs;
            checks += cell_checks;
            for (invariant, detail) in cell_violations {
                let (shrunk, shrink_runs, shrink_checks) = shrink(
                    subject,
                    &plan.events(),
                    invariant,
                    config,
                    baseline,
                    &cell_scratch,
                    &sim,
                );
                runs += shrink_runs;
                checks += shrink_checks;
                let events_spec = shrunk
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                // An explicit event plan replays on any seed; mutated
                // bounds are a function of the seed, so the replay must
                // sweep up to the failing one to reproduce them.
                let replay = if config.mutate_bounds {
                    format!(
                        "armada fuzz {} --seeds {} --jobs {max_jobs} --mutate-bounds \
                         --events {events_spec}",
                        subject.name,
                        seed + 1
                    )
                } else {
                    format!(
                        "armada fuzz {} --seeds 1 --jobs {max_jobs} --events {events_spec}",
                        subject.name
                    )
                };
                violations.push(Violation {
                    invariant,
                    subject: subject.name.clone(),
                    seed,
                    detail,
                    plan: plan.events(),
                    shrunk,
                    server_plan: Vec::new(),
                    server_shrunk: Vec::new(),
                    replay,
                });
            }
            let _ = std::fs::remove_dir_all(&cell_scratch);
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let _ = std::fs::remove_dir_all(&config.scratch_root);
    CampaignReport {
        subjects: subjects.iter().map(|s| s.name.clone()).collect(),
        seeds: config.seeds.clone(),
        jobs: config.jobs.clone(),
        runs,
        checks,
        injected,
        violations,
        mode: "pipeline",
        mutate_bounds: config.mutate_bounds,
    }
}

/// Parses a comma-separated `fate:ordinal` server-event list (the
/// `--server-events` CLI argument and the serve-campaign reproducer
/// vocabulary).
///
/// # Errors
///
/// Returns [`PipelineError::Events`] naming the offending token when an
/// entry is malformed, names an unknown server fate, has a non-numeric
/// ordinal, or repeats an earlier token (a [`ServerPlan`] is a set; see
/// [`parse_events`] for the rationale).
pub fn parse_server_events(spec: &str) -> Result<Vec<ServerEvent>, PipelineError> {
    let bad = |token: &str, message: String| PipelineError::Events {
        token: token.to_string(),
        message,
    };
    let mut events: Vec<ServerEvent> = Vec::new();
    for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
        let entry = entry.trim();
        let (label, ordinal) = entry
            .split_once(':')
            .ok_or_else(|| bad(entry, "want fate:ordinal".to_string()))?;
        let fate = ServerFate::parse(label)
            .ok_or_else(|| bad(entry, format!("unknown server fate `{label}`")))?;
        let ordinal: usize = ordinal
            .parse()
            .map_err(|_| bad(entry, format!("ordinal `{ordinal}` is not a number")))?;
        let event = ServerEvent { fate, ordinal };
        if events.contains(&event) {
            return Err(bad(
                entry,
                "duplicate event (a server plan is a set; the repeat would be dropped)".to_string(),
            ));
        }
        events.push(event);
    }
    Ok(events)
}

/// Parameters for a daemon-level campaign (`armada fuzz --serve`).
#[derive(Debug, Clone)]
pub struct ServeFuzzConfig {
    /// The seed grid; each seed derives one [`ServerPlan`] per subject.
    pub seeds: Vec<u64>,
    /// Job counts each request is sent at (deduplicated in order).
    pub jobs: Vec<usize>,
    /// Deadline attached to every fuzz request.
    pub request_deadline: Duration,
    /// Grace window the daemon is configured with.
    pub grace: Duration,
    /// Extra slack past `deadline + grace` before a slow answer counts as
    /// a `deadline_overrun` violation (absorbs scheduler noise; never
    /// reported).
    pub overrun_slack: Duration,
    /// Concurrent clients in a same-key storm.
    pub storm_width: usize,
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
            request_deadline: Duration::from_secs(20),
            grace: Duration::from_secs(5),
            overrun_slack: Duration::from_secs(5),
            storm_width: 4,
            scratch_root: std::env::temp_dir()
                .join(format!("armada-serve-fuzz-{}", std::process::id())),
            plan_override: None,
        }
    }
}

/// Admission ordinals a seeded server plan can pin fates on. The
/// sequential phase sends exactly this many requests one at a time, so
/// admission order — and therefore which request each fate lands on — is
/// deterministic. Storm requests are admitted concurrently (racy
/// ordinals ≥ `SEQ_ORDINALS`) and deliberately carry no fates.
const SEQ_ORDINALS: usize = 3;

/// What one daemon cell produced.
struct ServeCell {
    violations: Vec<(Invariant, String)>,
    runs: usize,
    checks: usize,
    /// Renders from the sequential phase, `None` where the request was
    /// jittered or failed (used for the cross-jobs determinism check).
    seq_renders: Vec<Option<String>>,
}

/// One `(subject, plan, jobs)` daemon cell: boot a fresh daemon over a
/// fresh tiered store, drive the sequential phase (cold at ordinal 0,
/// warm after), then — when the plan calls for it — a same-key storm
/// behind the worker gate, then a clean shutdown.
fn run_serve_cell(
    subject: &FuzzSubject,
    plan: &ServerPlan,
    jobs: usize,
    config: &ServeFuzzConfig,
    baseline: &Baseline,
) -> ServeCell {
    static CELL_SEQ: AtomicUsize = AtomicUsize::new(0);
    let cell_id = CELL_SEQ.fetch_add(1, AtomicOrdering::SeqCst);
    let store_dir = config.scratch_root.join(format!("serve{cell_id}"));
    let mut cell = ServeCell {
        violations: Vec::new(),
        runs: 0,
        checks: 0,
        seq_renders: Vec::new(),
    };

    let store = TieredStore::disk(CertStore::open(&store_dir)).with_mem(MemTier::with_capacity(32));
    let gate = Gate::open();
    let mut serve_config = ServeConfig::new(store);
    serve_config.default_deadline = config.request_deadline;
    serve_config.grace = config.grace;
    serve_config.plan = plan.clone();
    serve_config.gate = Some(gate.clone());
    let handle = match Server::start(serve_config) {
        Ok(handle) => handle,
        Err(e) => {
            cell.violations
                .push((Invariant::Taxonomy, format!("daemon failed to start: {e}")));
            return cell;
        }
    };
    let addr = handle.addr().to_string();
    // The client-side timeout sits well past the daemon's no-hang
    // guarantee: hitting it means the guarantee broke, which the
    // deadline-overrun check below turns into a violation.
    let timeout = config.request_deadline + config.grace + Duration::from_secs(10);
    let ceiling = config.request_deadline + config.grace + config.overrun_slack;
    let verify_request = || {
        Request::Verify(VerifyRequest {
            source: Some(subject.source.clone()),
            path: None,
            name: Some(subject.name.clone()),
            deadline_ms: Some(config.request_deadline.as_millis() as u64),
            jobs: Some(jobs),
        })
    };

    for ordinal in 0..SEQ_ORDINALS {
        let start = Instant::now();
        let response = client_request(&addr, &verify_request(), timeout);
        let elapsed = start.elapsed();
        cell.runs += 1;
        let jittered = plan.has(ServerFate::AcceptJitter, ordinal);
        cell.checks += 1;
        if elapsed > ceiling {
            cell.violations.push((
                Invariant::DeadlineOverrun,
                format!(
                    "request {ordinal} answered after {}ms (ceiling {}ms)",
                    elapsed.as_millis(),
                    ceiling.as_millis()
                ),
            ));
        }
        cell.checks += 1;
        match response {
            Err(message) => {
                cell.violations.push((
                    Invariant::Taxonomy,
                    format!("request {ordinal} failed: {message}"),
                ));
                cell.seq_renders.push(None);
            }
            Ok(Response::Result {
                exit_code, render, ..
            }) => {
                if exit_code > 4 {
                    cell.violations.push((
                        Invariant::Taxonomy,
                        format!(
                            "request {ordinal} exit code {exit_code} is outside the 0-4 taxonomy"
                        ),
                    ));
                }
                if jittered {
                    // A collapsed deadline legitimately degrades the
                    // verdict; the render is excluded from invariance and
                    // determinism comparisons.
                    cell.seq_renders.push(None);
                } else {
                    cell.checks += 1;
                    if normalize_render(&render) != baseline.render_norm {
                        cell.violations.push((
                            Invariant::VerdictInvariance,
                            format!(
                                "request {ordinal} verdict diverged from the fault-free \
                                 baseline under recoverable faults"
                            ),
                        ));
                    }
                    cell.seq_renders.push(Some(render));
                }
            }
            Ok(Response::Deadline { .. }) => {
                if !jittered {
                    cell.violations.push((
                        Invariant::Taxonomy,
                        format!("request {ordinal} hit its deadline without injected jitter"),
                    ));
                }
                cell.seq_renders.push(None);
            }
            Ok(other) => {
                cell.violations.push((
                    Invariant::Taxonomy,
                    format!(
                        "request {ordinal} got an unexpected response kind (exit {})",
                        other.exit_code()
                    ),
                ));
                cell.seq_renders.push(None);
            }
        }
    }

    if plan.count_of(ServerFate::SameKeyStorm) > 0 {
        let width = config.storm_width;
        // Close the gate so the storm's leader blocks mid-verification and
        // the herd piles up behind its in-flight entry.
        gate.hold();
        let waiters_before = handle.stats().waiters();
        let verifications_before = handle.stats().verifications();
        let results: Vec<Result<Response, String>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..width)
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
            while handle.stats().waiters() < waiters_before + width as u64
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
        cell.runs += width;
        cell.checks += 1;
        let mut rows: Vec<(u8, bool, String, bool)> = Vec::new();
        let mut broken = false;
        for (member, result) in results.into_iter().enumerate() {
            match result {
                Ok(Response::Result {
                    exit_code,
                    verified,
                    render,
                    coalesced,
                    ..
                }) => rows.push((exit_code, verified, render, coalesced)),
                Ok(other) => {
                    broken = true;
                    cell.violations.push((
                        Invariant::CoalesceDivergence,
                        format!(
                            "storm member {member} got a non-result response (exit {})",
                            other.exit_code()
                        ),
                    ));
                }
                Err(message) => {
                    broken = true;
                    cell.violations.push((
                        Invariant::CoalesceDivergence,
                        format!("storm member {member} failed: {message}"),
                    ));
                }
            }
        }
        if !broken {
            let delta = handle.stats().verifications() - verifications_before;
            if delta != 1 {
                cell.violations.push((
                    Invariant::CoalesceDivergence,
                    format!("same-key storm cost {delta} verifications (want exactly 1)"),
                ));
            }
            let leaders = rows.iter().filter(|r| !r.3).count();
            if leaders != 1 {
                cell.violations.push((
                    Invariant::CoalesceDivergence,
                    format!("storm produced {leaders} leaders (want exactly 1)"),
                ));
            }
            let first = &rows[0];
            if rows
                .iter()
                .any(|r| (r.0, r.1, &r.2) != (first.0, first.1, &first.2))
            {
                cell.violations.push((
                    Invariant::CoalesceDivergence,
                    "storm members observed differing responses".to_string(),
                ));
            }
            cell.checks += 1;
            if normalize_render(&first.2) != baseline.render_norm {
                cell.violations.push((
                    Invariant::CoalesceDivergence,
                    "coalesced verdict diverged from a cold run".to_string(),
                ));
            }
        }
    }

    cell.checks += 1;
    if let Err(message) = handle.shutdown() {
        cell.violations.push((
            Invariant::Taxonomy,
            format!("clean shutdown failed: {message}"),
        ));
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    cell
}

/// Greedy shrink over a server plan (the daemon analogue of [`shrink`]).
fn shrink_serve(
    subject: &FuzzSubject,
    events: &[ServerEvent],
    invariant: Invariant,
    jobs: usize,
    config: &ServeFuzzConfig,
    baseline: &Baseline,
) -> (Vec<ServerEvent>, usize, usize) {
    let mut current: Vec<ServerEvent> = events.to_vec();
    let mut runs = 0usize;
    let mut checks = 0usize;
    let still_violates = |trial: &[ServerEvent], runs: &mut usize, checks: &mut usize| -> bool {
        let plan = ServerPlan::from_events(trial.iter().copied());
        let cell = run_serve_cell(subject, &plan, jobs, config, baseline);
        *runs += cell.runs;
        *checks += cell.checks;
        cell.violations.iter().any(|(inv, _)| *inv == invariant)
    };
    let mut progress = true;
    while progress && !current.is_empty() {
        progress = false;
        for i in 0..current.len() {
            let mut trial = current.clone();
            trial.remove(i);
            if still_violates(&trial, &mut runs, &mut checks) {
                current = trial;
                progress = true;
                break;
            }
        }
    }
    (current, runs, checks)
}

/// Runs a daemon-level campaign: per `(subject, seed, jobs)` cell, boot a
/// fresh `armada serve` daemon, drive it through the seeded [`ServerPlan`]
/// (killed workers, corrupted tier-2 entries under live readers, accept
/// jitter, same-key storms), and check the pipeline invariants that
/// transfer plus the two daemon-specific ones: `deadline_overrun` (every
/// request is answered within deadline + grace) and `coalesce_divergence`
/// (a herd costs one verification and every member sees the leader's
/// bytes). Violations shrink and get `armada fuzz --serve …
/// --server-events …` reproducer lines. The report is as deterministic as
/// the pipeline campaign's: same `(subjects, config)` → byte-identical
/// JSON.
pub fn run_serve_campaign(subjects: &[FuzzSubject], config: &ServeFuzzConfig) -> CampaignReport {
    quiet_injected_panics();
    let mut injected: Vec<(&'static str, usize)> =
        ALL_SERVER_FATES.iter().map(|f| (f.label(), 0)).collect();
    let mut violations: Vec<Violation> = Vec::new();
    let mut runs = 0usize;
    let mut checks = 0usize;
    let mut jobs_grid: Vec<usize> = Vec::new();
    for &jobs in &config.jobs {
        if !jobs_grid.contains(&jobs) {
            jobs_grid.push(jobs);
        }
    }
    if jobs_grid.is_empty() {
        jobs_grid.push(1);
    }

    for (subject_index, subject) in subjects.iter().enumerate() {
        let scratch = config.scratch_root.join(format!("s{subject_index}"));
        let (baseline, baseline_runs) = compute_baseline(subject, &scratch, &SimConfig::default());
        runs += baseline_runs;
        if let Some(error) = &baseline.error {
            violations.push(Violation {
                invariant: Invariant::Taxonomy,
                subject: subject.name.clone(),
                seed: 0,
                detail: format!("fault-free baseline failed: {error}"),
                plan: Vec::new(),
                shrunk: Vec::new(),
                server_plan: Vec::new(),
                server_shrunk: Vec::new(),
                replay: format!("armada verify {}", subject.name),
            });
            continue;
        }
        for &seed in &config.seeds {
            let plan = match &config.plan_override {
                Some(events) => ServerPlan::from_events(events.iter().copied()),
                None => ServerPlan::seeded(seed, SEQ_ORDINALS),
            };
            for entry in injected.iter_mut() {
                entry.1 += plan
                    .events()
                    .iter()
                    .filter(|e| e.fate.label() == entry.0)
                    .count();
            }
            let mut renders_by_jobs: Vec<(usize, Vec<Option<String>>)> = Vec::new();
            for &jobs in &jobs_grid {
                let cell = run_serve_cell(subject, &plan, jobs, config, &baseline);
                runs += cell.runs;
                checks += cell.checks;
                for (invariant, detail) in cell.violations {
                    let (shrunk, shrink_runs, shrink_checks) =
                        shrink_serve(subject, &plan.events(), invariant, jobs, config, &baseline);
                    runs += shrink_runs;
                    checks += shrink_checks;
                    let events_spec = shrunk
                        .iter()
                        .map(|e| e.to_string())
                        .collect::<Vec<_>>()
                        .join(",");
                    let replay = if events_spec.is_empty() {
                        format!(
                            "armada fuzz --serve {} --seeds 1 --jobs {jobs}",
                            subject.name
                        )
                    } else {
                        format!(
                            "armada fuzz --serve {} --seeds 1 --jobs {jobs} \
                             --server-events {events_spec}",
                            subject.name
                        )
                    };
                    violations.push(Violation {
                        invariant,
                        subject: subject.name.clone(),
                        seed,
                        detail,
                        plan: Vec::new(),
                        shrunk: Vec::new(),
                        server_plan: plan.events(),
                        server_shrunk: shrunk,
                        replay,
                    });
                }
                renders_by_jobs.push((jobs, cell.seq_renders));
            }
            // Cross-jobs determinism: sequential renders must agree
            // wherever both job counts produced one.
            if let Some((first_jobs, first_renders)) = renders_by_jobs.first() {
                for (other_jobs, other_renders) in renders_by_jobs.iter().skip(1) {
                    checks += 1;
                    let diverged = first_renders
                        .iter()
                        .zip(other_renders.iter())
                        .any(|(a, b)| matches!((a, b), (Some(a), Some(b)) if a != b));
                    if diverged {
                        violations.push(Violation {
                            invariant: Invariant::Determinism,
                            subject: subject.name.clone(),
                            seed,
                            detail: format!(
                                "daemon renders differ between jobs={first_jobs} and \
                                 jobs={other_jobs}"
                            ),
                            plan: Vec::new(),
                            shrunk: Vec::new(),
                            server_plan: plan.events(),
                            server_shrunk: plan.events(),
                            replay: format!(
                                "armada fuzz --serve {} --seeds {} --jobs {}",
                                subject.name,
                                seed + 1,
                                jobs_grid
                                    .iter()
                                    .map(|j| j.to_string())
                                    .collect::<Vec<_>>()
                                    .join(",")
                            ),
                        });
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let _ = std::fs::remove_dir_all(&config.scratch_root);
    CampaignReport {
        subjects: subjects.iter().map(|s| s.name.clone()).collect(),
        seeds: config.seeds.clone(),
        jobs: jobs_grid,
        runs,
        checks,
        injected,
        violations,
        mode: "serve",
        mutate_bounds: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let events = parse_events("torn_cert_write:P1, worker_abort:P2").unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].fate, FaultFate::TornCertWrite);
        assert_eq!(events[1].recipe, "P2");
        assert!(parse_events("no_separator").is_err());
        assert!(parse_events("").unwrap().is_empty());
    }

    #[test]
    fn event_specs_reject_unknown_fates_naming_the_token() {
        let err = parse_events("bogus:P").unwrap_err();
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
        let err = parse_events("worker_abort:P1,torn_cert_write:P2,worker_abort:P1").unwrap_err();
        match &err {
            PipelineError::Events { token, .. } => assert_eq!(token, "worker_abort:P1"),
            other => panic!("expected Events error, got {other:?}"),
        }
        // Same fate on different recipes is not a duplicate.
        assert_eq!(
            parse_events("worker_abort:P1,worker_abort:P2")
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn server_event_specs_round_trip_and_reject_bad_tokens() {
        let events = parse_server_events("worker_kill:0, same_key_storm:2").unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].fate, ServerFate::WorkerKill);
        assert_eq!(events[1].ordinal, 2);
        let spec = events
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(parse_server_events(&spec).unwrap(), events);
        for bad in [
            "dance:0",
            "worker_kill",
            "worker_kill:zero",
            "worker_kill:0,worker_kill:0",
        ] {
            assert!(
                matches!(parse_server_events(bad), Err(PipelineError::Events { .. })),
                "`{bad}` should be rejected"
            );
        }
    }

    #[test]
    fn tiny_serve_campaign_covers_every_server_fate_and_stays_clean() {
        let subjects = [FuzzSubject::new("tiny", TINY)];
        let config = ServeFuzzConfig {
            seeds: vec![0],
            jobs: vec![1],
            storm_width: 3,
            scratch_root: scratch("serve-campaign"),
            plan_override: Some(
                parse_server_events(
                    "worker_kill:0,tier2_corrupt:1,accept_jitter:2,same_key_storm:0",
                )
                .unwrap(),
            ),
            ..ServeFuzzConfig::default()
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
                    plan: vec![
                        event(FaultFate::BitFlipCertWrite, "P"),
                        event(FaultFate::WorkerAbort, "Q"),
                    ],
                    shrunk: vec![],
                    server_plan: vec![],
                    server_shrunk: vec![],
                    replay: "armada verify counter.arm --events bit_flip_cert_write:P".into(),
                },
                Violation {
                    invariant: Invariant::DeadlineOverrun,
                    subject: "odd \"name\".arm".into(),
                    seed: 0,
                    detail: "line one\nline two ⊑".into(),
                    plan: vec![],
                    shrunk: vec![],
                    server_plan: vec![
                        server(ServerFate::WorkerKill, 0),
                        server(ServerFate::SameKeyStorm, 2),
                    ],
                    server_shrunk: vec![server(ServerFate::SameKeyStorm, 2)],
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
