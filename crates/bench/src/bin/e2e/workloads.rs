//! The four workloads. Each runs in a process of its own: set-up (done
//! several times, its median reported), then a timed phase of `--seconds`
//! of work, then, with `--trace 1`, one traced cycle. Every verdict is
//! checked against the expected table as it arrives.

use std::path::{Path, PathBuf};
use std::time::Instant;

use armada::serve::{ServeConfig, Server, ServerHandle};
use armada::verify::store::CertStore;
use armada::verify::tier::{MemTier, TieredStore};
use armada::verify::SimConfig;
use armada::{Pipeline, PipelineReport};
use armada_runtime::SplitMix64;

use crate::client;
use crate::corpus::Module;
use crate::expected::{expected, Verdict};
use crate::stats::{self, Sample};
use crate::trace::{self, Layers};

// The serve traffic mix. These three numbers are assumptions, not
// measurements: no log of a real daemon's requests exists to derive them
// from. Replace them from such a log once one is available.

/// Closed-loop serve clients, each waiting for its verdict before asking
/// again (assumed to be CI jobs and editors).
pub const ASSUMED_CLIENTS: usize = 2;

/// Serve requests come in blocks of this many, of which
/// [`ASSUMED_FRESH_PER_BLOCK`] are fresh (8%).
const ASSUMED_BLOCK: usize = 25;
const ASSUMED_FRESH_PER_BLOCK: usize = 2;

/// Smoke mode's fixed amounts of work, in place of `--seconds`.
const SMOKE_COLD_PASSES: usize = 1;
const SMOKE_WARM_PAIRS: usize = 10;
const SMOKE_REQUESTS_PER_CLIENT: usize = 10;

/// Set-up repetitions outside smoke mode; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// First-time `armada verify --cert-cache`, one module at a time.
    ColdSerial,
    /// The same at two engine threads: the recipe fan-out and the
    /// pinned-role ring pipeline.
    ColdParallel,
    /// Repeat runs over a filled store, plain and `--recheck` in turn.
    Warm,
    /// An in-process daemon answering mostly repeat requests.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdSerial,
        Workload::ColdParallel,
        Workload::Warm,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSerial => "cold_serial",
            Workload::ColdParallel => "cold_parallel",
            Workload::Warm => "warm",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine threads per verification.
    fn jobs(self) -> usize {
        match self {
            Workload::ColdParallel => 2,
            _ => 1,
        }
    }
}

/// Everything a workload run depends on.
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    /// Fixed small amounts of work instead of `seconds`, one set-up.
    pub smoke: bool,
    pub trace: bool,
    pub corpus: Vec<Module>,
    /// Scratch directory for cert stores and the trace file.
    pub work: PathBuf,
}

impl Plan {
    /// Whether the timed phase goes on after `done` units of work that
    /// took `elapsed` seconds.
    fn more(&self, done: usize, smoke_units: usize, elapsed: f64) -> bool {
        if self.smoke {
            done < smoke_units
        } else {
            done == 0 || elapsed < self.seconds
        }
    }

    fn store(&self) -> PathBuf {
        self.work.join("store")
    }

    /// The traced cycle's own store.
    pub fn trace_store(&self) -> PathBuf {
        self.work.join("trace-store")
    }
}

/// One measured unit of work: a cold pass, a warm pair of passes, or one
/// client's round of serve requests.
pub struct Unit {
    pub seconds: f64,
    /// One entry per verdict: a module's `Pipeline::run`, or a request's
    /// round trip.
    pub samples: Vec<Sample>,
    /// The process's peak resident set size since the previous unit ended
    /// (or the timed phase began).
    pub peak_rss_mb: f64,
}

/// Verdict bookkeeping shared by every phase of a run.
#[derive(Default)]
pub struct Ledger {
    pub attempted: usize,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts one verdict for `module`; a wrong verdict or an error is a
    /// failure.
    pub fn check(&mut self, module: &str, got: Result<Verdict, String>) {
        self.attempted += 1;
        let want = expected(module);
        match got {
            Ok(verdict) if verdict == want => {}
            Ok(verdict) => self
                .failures
                .push(format!("{module}: got {verdict:?}, expected {want:?}")),
            Err(e) => self.failures.push(format!("{module}: {e}")),
        }
    }
}

/// What one workload run measured.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub units: Vec<Unit>,
    /// Callers sending units of work at the same time; throughput counts
    /// all of them.
    pub clients: usize,
    /// Workload-specific timings: name, unit, samples.
    pub timings: Vec<(&'static str, &'static str, Vec<f64>)>,
    /// Daemon counter deltas over the timed phase (serve only).
    pub counters: Vec<(&'static str, u64)>,
    pub ledger: Ledger,
    pub layers: Option<Layers>,
}

/// Runs `workload` under `plan`.
///
/// # Errors
///
/// Infrastructure failures: an unwritable scratch directory, a daemon that
/// will not start or stop. Wrong verdicts are not errors; they land in the
/// outcome's ledger.
pub fn run(workload: Workload, plan: &Plan) -> Result<Outcome, String> {
    std::fs::create_dir_all(&plan.work)
        .map_err(|e| format!("create {}: {e}", plan.work.display()))?;
    let mut rng = SplitMix64::new(plan.seed);
    let mut ledger = Ledger::default();
    let mut outcome = match workload {
        Workload::ColdSerial | Workload::ColdParallel => {
            cold(plan, workload.jobs(), &mut rng, &mut ledger)?
        }
        Workload::Warm => warm(plan, &mut rng, &mut ledger)?,
        Workload::ServeMixed => serve(plan, &mut rng, &mut ledger)?,
    };
    if plan.trace {
        outcome.layers = Some(trace::cycle(
            plan,
            workload.name(),
            workload.jobs(),
            &mut rng,
            &mut ledger,
        )?);
    }
    outcome.ledger = ledger;
    // The stores are scratch; a serve run leaves tens of MB of fresh certs.
    for store in [plan.store(), plan.trace_store()] {
        clear(&store)?;
    }
    Ok(outcome)
}

/// Verifies one module as `armada verify --cert-cache <store>` does.
pub fn verify(
    module: &Module,
    jobs: usize,
    store: &Path,
    recheck: bool,
) -> Result<PipelineReport, String> {
    Pipeline::from_source(module.source)
        .map_err(|e| e.to_string())?
        .with_sim_config(SimConfig::default().with_jobs(jobs))
        .with_cert_store(CertStore::open(store))
        .with_recheck(recheck)
        .run()
        .map_err(|e| e.to_string())
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// The corpus in a seeded order.
pub fn shuffled(corpus: &[Module], rng: &mut SplitMix64) -> Vec<Module> {
    let mut order = corpus.to_vec();
    shuffle(&mut order, rng);
    order
}

pub fn clear(store: &Path) -> Result<(), String> {
    CertStore::open(store)
        .clear()
        .map_err(|e| format!("clear {}: {e}", store.display()))
}

/// One pass over the corpus in a seeded order, each module timed on its
/// own. `kind` is `cold` (into whatever the store holds), or `plain` or
/// `recheck` over a filled store, where a verified module must be answered
/// entirely from the store.
fn pass(
    plan: &Plan,
    rng: &mut SplitMix64,
    jobs: usize,
    kind: &'static str,
    ledger: &mut Ledger,
) -> Unit {
    let mut samples = Vec::with_capacity(plan.corpus.len());
    for module in shuffled(&plan.corpus, rng) {
        let started = Instant::now();
        let report = verify(&module, jobs, &plan.store(), kind == "recheck");
        samples.push(Sample {
            module: module.name,
            kind,
            ms: started.elapsed().as_secs_f64() * 1e3,
        });
        let verdict = report.and_then(|r| {
            let verified = matches!(expected(module.name), Verdict::Verified(_));
            if kind != "cold" && verified && r.cache_misses() > 0 {
                Err(format!(
                    "{} recipe(s) missed the cert store",
                    r.cache_misses()
                ))
            } else {
                Ok(Verdict::of(&r))
            }
        });
        ledger.check(module.name, verdict);
    }
    Unit {
        seconds: samples.iter().map(|s| s.ms).sum::<f64>() / 1e3,
        samples,
        peak_rss_mb: f64::NAN,
    }
}

/// The set-up every workload shares: an empty store filled by one cold
/// serial pass (for the cold workloads, a warm-up that the first timed
/// pass clears again).
fn fill(plan: &Plan, rng: &mut SplitMix64, ledger: &mut Ledger) -> Result<(), String> {
    clear(&plan.store())?;
    pass(plan, rng, 1, "cold", ledger);
    Ok(())
}

fn setups(plan: &Plan) -> usize {
    if plan.smoke {
        1
    } else {
        SETUPS
    }
}

fn timed_fill(plan: &Plan, rng: &mut SplitMix64, ledger: &mut Ledger) -> Result<Vec<f64>, String> {
    (0..setups(plan))
        .map(|_| {
            let started = Instant::now();
            fill(plan, rng, ledger)?;
            Ok(started.elapsed().as_secs_f64())
        })
        .collect()
}

fn outcome(setup_s: Vec<f64>, units: Vec<Unit>) -> Outcome {
    Outcome {
        setup_s,
        units,
        clients: 1,
        timings: Vec::new(),
        counters: Vec::new(),
        ledger: Ledger::default(),
        layers: None,
    }
}

fn cold(
    plan: &Plan,
    jobs: usize,
    rng: &mut SplitMix64,
    ledger: &mut Ledger,
) -> Result<Outcome, String> {
    let setup_s = timed_fill(plan, rng, ledger)?;
    stats::take_peak_rss_mb();
    let mut units = Vec::new();
    let mut elapsed = 0.0;
    while plan.more(units.len(), SMOKE_COLD_PASSES, elapsed) {
        clear(&plan.store())?;
        let mut unit = pass(plan, rng, jobs, "cold", ledger);
        unit.peak_rss_mb = stats::take_peak_rss_mb();
        elapsed += unit.seconds;
        units.push(unit);
    }
    let pass_s = units.iter().map(|u| u.seconds).collect();
    let mut outcome = outcome(setup_s, units);
    outcome.timings.push(("pass_s", "s", pass_s));
    Ok(outcome)
}

/// Plain and `--recheck` passes alternate (ABAB), so drift hits both modes
/// equally.
fn warm(plan: &Plan, rng: &mut SplitMix64, ledger: &mut Ledger) -> Result<Outcome, String> {
    let setup_s = timed_fill(plan, rng, ledger)?;
    stats::take_peak_rss_mb();
    let (mut units, mut plain, mut rechecked) = (Vec::new(), Vec::new(), Vec::new());
    let mut elapsed = 0.0;
    while plan.more(units.len(), SMOKE_WARM_PAIRS, elapsed) {
        let a = pass(plan, rng, 1, "plain", ledger);
        let b = pass(plan, rng, 1, "recheck", ledger);
        plain.push(a.seconds);
        rechecked.push(b.seconds);
        elapsed += a.seconds + b.seconds;
        units.push(Unit {
            seconds: a.seconds + b.seconds,
            samples: [a.samples, b.samples].concat(),
            peak_rss_mb: stats::take_peak_rss_mb(),
        });
    }
    let mut outcome = outcome(setup_s, units);
    outcome.timings.push(("pass_s", "s", plain));
    outcome.timings.push(("recheck_pass_s", "s", rechecked));
    Ok(outcome)
}

/// Starts a daemon with two workers, an eight-deep admission queue, and a
/// 256-entry memory tier in front of the disk store at `store`.
pub fn start_server(store: &Path) -> Result<ServerHandle, String> {
    let tiered = TieredStore::disk(CertStore::open(store)).with_mem(MemTier::with_capacity(256));
    Server::start(ServeConfig {
        workers: 2,
        queue_depth: 8,
        ..ServeConfig::new(tiered)
    })
    .map_err(|e| format!("start daemon: {e}"))
}

/// One shuffled copy of the module indices per `copies`, back to back.
fn decks(rng: &mut SplitMix64, modules: usize, copies: usize) -> Vec<usize> {
    let mut cards = Vec::with_capacity(copies * modules);
    for _ in 0..copies {
        let start = cards.len();
        cards.extend(0..modules);
        shuffle(&mut cards[start..], rng);
    }
    cards
}

/// One client round: `(fresh, module index)` requests in blocks of
/// [`ASSUMED_BLOCK`], each block holding exactly [`ASSUMED_FRESH_PER_BLOCK`]
/// fresh ones, and every module requested the same number of times of each
/// kind. Every seed sends the same work per round; the seed only moves
/// positions.
fn round(rng: &mut SplitMix64, modules: usize) -> Vec<(bool, usize)> {
    let mut fresh = decks(rng, modules, ASSUMED_FRESH_PER_BLOCK);
    let mut repeats = decks(rng, modules, ASSUMED_BLOCK - ASSUMED_FRESH_PER_BLOCK);
    let mut requests = Vec::with_capacity(ASSUMED_BLOCK * modules);
    for _ in 0..modules {
        let mut block: Vec<bool> = (0..ASSUMED_BLOCK)
            .map(|i| i < ASSUMED_FRESH_PER_BLOCK)
            .collect();
        shuffle(&mut block, rng);
        for is_fresh in block {
            let deck = if is_fresh { &mut fresh } else { &mut repeats };
            requests.push((is_fresh, deck.pop().expect("decks hold one round")));
        }
    }
    requests
}

/// Each client sends whole rounds until `--seconds` have passed; a unit of
/// work is one client round.
fn serve(plan: &Plan, rng: &mut SplitMix64, ledger: &mut Ledger) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut server: Option<ServerHandle> = None;
    for _ in 0..setups(plan) {
        if let Some(previous) = server.take() {
            previous.shutdown()?;
        }
        let started = Instant::now();
        fill(plan, rng, ledger)?;
        server = Some(start_server(&plan.store())?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    let before = server.counters();
    let client_rngs: Vec<SplitMix64> = (0..ASSUMED_CLIENTS).map(|_| rng.fork()).collect();
    stats::take_peak_rss_mb();
    type Verdicts = Vec<(&'static str, Result<Verdict, String>)>;
    let per_client: Vec<(Vec<Unit>, Verdicts)> = std::thread::scope(|scope| {
        let clients: Vec<_> = client_rngs
            .into_iter()
            .enumerate()
            .map(|(client, mut rng)| {
                scope.spawn(move || {
                    let (mut rounds, mut verdicts, mut elapsed) = (Vec::new(), Vec::new(), 0.0);
                    while plan.more(rounds.len(), 1, elapsed) {
                        let mut requests = round(&mut rng, plan.corpus.len());
                        if plan.smoke {
                            requests.truncate(SMOKE_REQUESTS_PER_CLIENT);
                        }
                        let started = Instant::now();
                        let mut samples = Vec::with_capacity(requests.len());
                        for (fresh, index) in requests {
                            let module = plan.corpus[index];
                            let nonce = format!("{}-{client}-{}", plan.seed, verdicts.len());
                            let request = client::verify_request(&module, fresh.then_some(&*nonce));
                            let sent = Instant::now();
                            let verdict = client::exchange(addr, &request)
                                .and_then(|(response, _)| client::verdict(&response));
                            samples.push(Sample {
                                module: module.name,
                                kind: if fresh { "fresh" } else { "repeat" },
                                ms: sent.elapsed().as_secs_f64() * 1e3,
                            });
                            verdicts.push((module.name, verdict));
                        }
                        let unit = Unit {
                            seconds: started.elapsed().as_secs_f64(),
                            samples,
                            peak_rss_mb: stats::take_peak_rss_mb(),
                        };
                        elapsed += unit.seconds;
                        rounds.push(unit);
                    }
                    (rounds, verdicts)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("serve client thread"))
            .collect()
    });
    let after = server.counters();
    server.shutdown()?;

    let mut units = Vec::new();
    for (rounds, verdicts) in per_client {
        units.extend(rounds);
        for (module, verdict) in verdicts {
            ledger.check(module, verdict);
        }
    }
    let latencies = |kind: &str| -> Vec<f64> {
        units
            .iter()
            .flat_map(|u| &u.samples)
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .collect()
    };
    let timings = vec![
        ("repeat_ms", "ms", latencies("repeat")),
        ("fresh_ms", "ms", latencies("fresh")),
    ];
    let mut outcome = outcome(setup_s, units);
    outcome.clients = ASSUMED_CLIENTS;
    outcome.timings = timings;
    outcome.counters = after
        .entries()
        .iter()
        .map(|&(label, value)| (label, value.saturating_sub(before.get(label))))
        .collect();
    Ok(outcome)
}
