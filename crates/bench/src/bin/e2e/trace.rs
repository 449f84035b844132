//! The traced run, kept out of the end-to-end numbers. It repeats
//! `Pipeline::run_recipe`'s sequence from outside, through each layer's
//! public API, with a span around every call:
//!
//! parse → typecheck → core check, then per recipe: strategy → lower ×2 →
//! cert key → store load → (check → bind → save) or (validate → replay),
//! then chain composition. At more than one job the recipes fan out over
//! threads as `Pipeline::run` spreads them, so the traced pass has the
//! concurrency of the untraced one it is compared with.
//!
//! One traced cycle is one cold pass into an empty store followed by one
//! warm `--recheck` pass over the store it filled, plus a serve probe whose
//! client times each protocol call. Spans stay in memory and are written
//! out as JSON when the cycle ends.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use armada::lang::ast::Recipe;
use armada::lang::typeck::TypedModule;
use armada::lang::{check_module, core_check::check_core, parse_module};
use armada::proof::relation::StandardRelation;
use armada::recheck::{replay, subject_digest};
use armada::sm::lower;
use armada::strategies::run_recipe;
use armada::verify::store::{CertKey, CertStore};
use armada::verify::tier::TieredStore;
use armada::verify::{check_refinement_with_telemetry, RefinementCert, RefinementChain, SimConfig};
use armada_bench::json::Json;
use armada_runtime::{SplitMix64, Stage, StageTelemetry};

use crate::client::{self, Timings};
use crate::corpus::Module;
use crate::expected::Verdict;
use crate::stats::percentile;
use crate::workloads::{self, clear, Ledger, Plan};

/// Every per-layer metric with its unit, in report order.
pub const LAYER_METRICS: [(&str, &str); 39] = [
    ("lang.parse_us", "us"),
    ("lang.typeck_us", "us"),
    ("lang.core_check_us", "us"),
    ("strategies.run_recipe_us", "us"),
    ("strategies.obligations", "count"),
    ("strategies.obligations_failed", "count"),
    ("sm.lower_us", "us"),
    ("store.key_us", "us"),
    ("store.load_us", "us"),
    ("store.save_us", "us"),
    ("store.record_bytes", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("verify.check_us", "us"),
    ("verify.product_nodes", "count"),
    ("verify.low_transitions", "count"),
    ("verify.nodes_per_s", "1/s"),
    ("verify.ingress_us", "us"),
    ("verify.explore_us", "us"),
    ("verify.subsume_us", "us"),
    ("verify.commit_us", "us"),
    ("verify.explore_items_per_batch", "count"),
    ("verify.compose_us", "us"),
    ("recheck.validate_us", "us"),
    ("recheck.replay_us", "us"),
    ("recheck.obligations", "count"),
    ("recheck.replay_vs_check", "ratio"),
    ("proto.connect_us_p50", "us"),
    ("proto.write_us_p50", "us"),
    ("proto.decode_us_p50", "us"),
    ("proto.wait_ms_p50", "ms"),
    ("proto.wait_ms_p99", "ms"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.verifications", "count"),
    ("serve.fresh_ms_p50", "ms"),
    ("cache.mem_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_us", "us"),
];

/// Spans that only group layer calls: their self time is the benchmark's
/// own glue, reported as `trace.unaccounted_us`.
const GLUE: [&str; 2] = ["module", "recipe"];

/// One timed call.
struct Span {
    name: &'static str,
    pass: usize,
    subject: String,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

impl Span {
    fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// What the layers counted during the cycle.
#[derive(Default)]
struct Counts {
    obligations: u64,
    obligations_failed: u64,
    product_nodes: u64,
    low_transitions: u64,
    record_bytes: u64,
    recheck_obligations: u64,
    loads: u64,
    hits: u64,
    telemetry: StageTelemetry,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.obligations += other.obligations;
        self.obligations_failed += other.obligations_failed;
        self.product_nodes += other.product_nodes;
        self.low_transitions += other.low_transitions;
        self.record_bytes += other.record_bytes;
        self.recheck_obligations += other.recheck_obligations;
        self.loads += other.loads;
        self.hits += other.hits;
        self.telemetry.merge(&other.telemetry);
    }
}

/// An in-memory span recorder. Calls nest through [`Tracer::span`], so a
/// span's parent is whichever span was open when it started. Another
/// thread records into a [`Tracer::fork`], taken back with
/// [`Tracer::join`].
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: usize,
    subject: String,
    counts: Counts,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            subject: String::new(),
            counts: Counts::default(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn span<T>(&mut self, name: &'static str, call: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            pass: self.pass,
            subject: self.subject.clone(),
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: 0.0,
        });
        self.open.push(id);
        let out = call(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// An empty recorder for another thread, on the same clock and pass.
    fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            pass: self.pass,
            subject: self.subject.clone(),
            counts: Counts::default(),
        }
    }

    /// Takes back a fork's spans and counts; the fork's outermost spans
    /// become children of the span open here.
    fn join(&mut self, fork: Tracer) {
        let (base, parent) = (self.spans.len(), self.open.last().copied());
        self.spans.extend(fork.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base).or(parent);
            span
        }));
        self.counts.add(fork.counts);
    }

    /// Each span's time minus the part of it that its children cover.
    /// Children on different threads may overlap; overlap counts once.
    fn self_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_us, span.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut covered)| {
                covered.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut union, mut reach) = (0.0, f64::NEG_INFINITY);
                for (start, end) in covered {
                    let start = start.max(reach);
                    if end > start {
                        union += end - start;
                        reach = end;
                    }
                }
                span.us() - union
            })
            .collect()
    }

    /// Total time of the spans named `name`, over every pass.
    fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .sum()
    }
}

/// How one recipe ended in the traced sequence.
enum Status {
    Verified,
    Refuted,
    Inconclusive,
}

/// The level chain the recipes imply, implementation first (what
/// `Pipeline::level_chain` computes for a well-formed module).
fn level_chain(recipes: &[Recipe]) -> Vec<String> {
    let start = recipes
        .iter()
        .map(|r| &r.low)
        .find(|low| recipes.iter().all(|r| r.high != **low));
    let mut chain: Vec<String> = start.cloned().into_iter().collect();
    while let Some(next) = chain
        .last()
        .and_then(|level| recipes.iter().find(|r| r.low == *level))
    {
        if chain.contains(&next.high) {
            break;
        }
        chain.push(next.high.clone());
    }
    chain
}

fn traced_module(
    t: &mut Tracer,
    module: &Module,
    sim: &SimConfig,
    store: &TieredStore,
    recheck: bool,
) -> Result<Verdict, String> {
    t.subject = module.name.to_string();
    t.span("module", |t| {
        let ast = t
            .span("lang.parse", |_| parse_module(module.source))
            .map_err(|e| e.to_string())?;
        let typed = t
            .span("lang.typeck", |_| check_module(&ast))
            .map_err(|e| e.to_string())?;
        let chain = level_chain(&typed.module.recipes);
        if let Some(implementation) = chain.first() {
            // `Pipeline::run` does not gate on this check (the CLI does);
            // it is traced for its cost only.
            let _ = t.span("lang.core_check", |_| {
                let level = typed.module.level(implementation)?;
                let info = typed.level_info(implementation)?;
                Some(check_core(level, info))
            });
        }
        let relation = StandardRelation::new(typed.module.relation());
        let runs = fan_out(t, &typed.module.recipes, sim.bounds.jobs, |t, recipe| {
            t.subject = format!("{}/{}", module.name, recipe.name);
            t.span("recipe", |t| {
                traced_recipe(
                    t,
                    module.source,
                    &typed,
                    recipe,
                    &relation,
                    sim,
                    store,
                    recheck,
                )
            })
        });
        let (mut refuted, mut inconclusive) = (false, false);
        let mut certs = Vec::new();
        for run in runs {
            // The first error in recipe order wins, as in `Pipeline::run`.
            let (status, cert) = run?;
            refuted |= matches!(status, Status::Refuted);
            inconclusive |= matches!(status, Status::Inconclusive);
            certs.extend(cert);
        }
        t.subject = module.name.to_string();
        let ordered: Vec<RefinementCert> = chain
            .windows(2)
            .filter_map(|pair| {
                certs
                    .iter()
                    .find(|c| c.low == pair[0] && c.high == pair[1])
                    .cloned()
            })
            .collect();
        let claim = if ordered.len() + 1 == chain.len() {
            t.span("verify.compose", |_| RefinementChain::compose(ordered))
                .ok()
                .map(|c| c.claim())
        } else {
            None
        };
        Ok(if inconclusive {
            Verdict::Inconclusive
        } else if refuted {
            Verdict::Refuted
        } else {
            Verdict::Verified(claim.unwrap_or_default())
        })
    })
}

/// Runs `run` on every recipe with `Pipeline::run`'s fan-out: in order on
/// this thread at one job or one recipe, otherwise on `jobs` threads (at
/// most one per recipe) that each take the next recipe index from a shared
/// counter. Each thread records into its own fork of `t`, joined back once
/// all are done. Results come back in recipe order.
fn fan_out<T: Send>(
    t: &mut Tracer,
    recipes: &[Recipe],
    jobs: usize,
    run: impl Fn(&mut Tracer, &Recipe) -> T + Sync,
) -> Vec<T> {
    if jobs <= 1 || recipes.len() <= 1 {
        return recipes.iter().map(|recipe| run(t, recipe)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let threads: Vec<(Tracer, Vec<(usize, T)>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(recipes.len()))
            .map(|_| {
                let (mut fork, cursor, run) = (t.fork(), &cursor, &run);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(recipe) = recipes.get(index) else {
                            break;
                        };
                        done.push((index, run(&mut fork, recipe)));
                    }
                    (fork, done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("traced recipe thread"))
            .collect()
    });
    let mut results = Vec::with_capacity(recipes.len());
    for (fork, done) in threads {
        t.join(fork);
        results.extend(done);
    }
    results.sort_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

#[allow(clippy::too_many_arguments)]
fn traced_recipe(
    t: &mut Tracer,
    source: &str,
    typed: &TypedModule,
    recipe: &Recipe,
    relation: &StandardRelation,
    sim: &SimConfig,
    store: &TieredStore,
    recheck: bool,
) -> Result<(Status, Option<RefinementCert>), String> {
    let report = t.span("strategies.run_recipe", |_| {
        run_recipe(typed, recipe, sim.clone())
    })?;
    t.counts.obligations += report.obligations.len() as u64;
    t.counts.obligations_failed += report.failures().len() as u64;
    let lowered = |t: &mut Tracer, level: &str| {
        t.span("sm.lower", |_| lower(typed, level))
            .map_err(|e| e.to_string())
    };
    let low = lowered(t, &recipe.low)?;
    let high = lowered(t, &recipe.high)?;
    let (key, subject) = t.span("store.key", |_| {
        (
            CertKey::compute(source, &recipe.low, &recipe.high, sim),
            subject_digest(source, &recipe.low, &recipe.high),
        )
    });
    t.counts.loads += 1;
    let cert = match t.span("store.load", |_| {
        store.load(&key, &recipe.low, &recipe.high)
    }) {
        Some(cert) => {
            t.counts.hits += 1;
            if recheck {
                let witness = &cert.witness;
                t.span("recheck.validate", |_| {
                    witness.validate(cert.product_nodes, cert.low_transitions, Some(subject))
                })
                .and_then(|()| t.span("recheck.replay", |_| replay(witness, &low)))
                .map_err(|e| format!("recipe {}: witness rejected: {e}", recipe.name))?;
                t.counts.recheck_obligations += witness.obligations.len() as u64;
            }
            cert
        }
        None => {
            let (result, telemetry) = t.span("verify.check", |_| {
                check_refinement_with_telemetry(&low, &high, relation, sim)
            });
            t.counts.telemetry.merge(&telemetry);
            let mut cert = match result {
                Ok(cert) => cert,
                Err(cex) if cex.kind.is_budget() => return Ok((Status::Inconclusive, None)),
                Err(_) => return Ok((Status::Refuted, None)),
            };
            t.counts.product_nodes += cert.product_nodes as u64;
            t.counts.low_transitions += cert.low_transitions as u64;
            t.span("verify.bind", |_| cert.witness.bind_subject(subject));
            t.span("store.save", |_| store.save(&key, &cert))
                .map_err(|e| format!("recipe {}: save failed: {e}", recipe.name))?;
            t.counts.record_bytes += store
                .disk_store()
                .and_then(|disk| std::fs::metadata(disk.path_for(&key)).ok())
                .map_or(0, |meta| meta.len());
            cert
        }
    };
    let status = if report.success() {
        Status::Verified
    } else {
        Status::Refuted
    };
    Ok((status, Some(cert)))
}

/// What the serve probe's client and the daemon's counters saw.
struct Probe {
    timings: Vec<Timings>,
    fresh_ms: Vec<f64>,
    counters: BTreeMap<&'static str, f64>,
}

/// One probe request: the module, whether it was fresh, and its verdict
/// with the client's timings.
type ProbeAnswer = (&'static str, bool, Result<(Verdict, Timings), String>);

/// Two clients send the whole corpus twice in the same seeded order, so
/// same-module requests meet in flight and coalesce and the second round is
/// answered from the memory tier; then they split the corpus between them
/// as fresh requests, so every module is verified cold once.
fn probe(seed: u64, store: &Path, order: &[Module], ledger: &mut Ledger) -> Result<Probe, String> {
    let server = workloads::start_server(store)?;
    let addr: SocketAddr = server.addr();
    let before = server.counters();
    let answers: Vec<ProbeAnswer> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..workloads::ASSUMED_CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let repeats = order.iter().chain(order).map(|m| (*m, None));
                    let fresh = order
                        .iter()
                        .skip(client)
                        .step_by(workloads::ASSUMED_CLIENTS)
                        .map(|m| (*m, Some(format!("probe-{seed}-{}", m.name))));
                    let requests = repeats.chain(fresh);
                    requests
                        .map(|(module, nonce)| {
                            let request = client::verify_request(&module, nonce.as_deref());
                            let answer =
                                client::exchange(addr, &request).and_then(|(response, timings)| {
                                    Ok((client::verdict(&response)?, timings))
                                });
                            (module.name, nonce.is_some(), answer)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("probe client thread"))
            .collect()
    });
    let after = server.counters();
    server.shutdown()?;
    let mut probe = Probe {
        timings: Vec::new(),
        fresh_ms: Vec::new(),
        counters: BTreeMap::new(),
    };
    for (name, fresh, answer) in answers {
        let answer = answer.map(|(verdict, timings)| {
            probe.timings.push(timings);
            if fresh {
                probe.fresh_ms.push(timings.wait_ms);
            }
            verdict
        });
        ledger.check(name, answer);
    }
    for (label, value) in after.entries() {
        probe
            .counters
            .insert(label, value.saturating_sub(before.get(label)) as f64);
    }
    Ok(probe)
}

/// What a traced cycle produced.
pub struct Layers {
    /// One value per [`LAYER_METRICS`] entry, in the same order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Per module: the `Pipeline::run` verdict, then the traced cold and
    /// warm verdicts (read by the smoke test).
    #[allow(dead_code)]
    pub verdicts: Vec<(&'static str, [Verdict; 3])>,
    /// Where the spans were written.
    pub file: PathBuf,
}

/// Runs one traced cycle at `jobs` engine threads and writes its spans to
/// `<work>/trace-<workload>.json`.
pub fn cycle(
    plan: &Plan,
    workload: &str,
    jobs: usize,
    rng: &mut SplitMix64,
    ledger: &mut Ledger,
) -> Result<Layers, String> {
    let store_dir = plan.trace_store();
    let order = workloads::shuffled(&plan.corpus, rng);

    // The untraced reference: the same cold pass through `Pipeline::run`.
    clear(&store_dir)?;
    let started = Instant::now();
    let reference: Vec<Verdict> = order
        .iter()
        .map(|m| {
            let verdict = workloads::verify(m, jobs, &store_dir, false).map(|r| Verdict::of(&r));
            ledger.check(m.name, verdict.clone());
            verdict.unwrap_or(Verdict::Inconclusive)
        })
        .collect();
    let untraced_s = started.elapsed().as_secs_f64();

    clear(&store_dir)?;
    let store = TieredStore::disk(CertStore::open(&store_dir));
    let sim = SimConfig::default().with_jobs(jobs);
    let mut t = Tracer::new();
    let mut traced: Vec<Vec<Verdict>> = Vec::new();
    for (pass, recheck) in [(0, false), (1, true)] {
        t.pass = pass;
        let mut verdicts = Vec::new();
        for (module, want) in order.iter().zip(&reference) {
            let got = traced_module(&mut t, module, &sim, &store, recheck);
            if got.as_ref().is_ok_and(|v| v != want) {
                ledger.failures.push(format!(
                    "{}: traced pass {pass} disagrees with Pipeline::run ({want:?})",
                    module.name
                ));
            }
            ledger.check(module.name, got.clone());
            verdicts.push(got.unwrap_or(Verdict::Inconclusive));
        }
        traced.push(verdicts);
    }
    let probe = probe(plan.seed, &store_dir, &order, ledger)?;

    let cold_pass_s = t
        .spans
        .iter()
        .filter(|s| s.name == "module" && s.pass == 0)
        .map(Span::us)
        .sum::<f64>()
        / 1e6;
    let own = t.self_us();
    let unaccounted_us: f64 = t
        .spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| GLUE.contains(&s.name))
        .map(|(_, us)| us)
        .sum();
    let tel = &t.counts.telemetry;
    let stage_us = |stage: Stage| {
        let latency = tel.latency(stage);
        latency.mean() * latency.count() as f64 / 1e3
    };
    let check_us = t.total_us("verify.check");
    let proto = |pick: fn(&Timings) -> f64, q: f64| {
        percentile(&probe.timings.iter().map(pick).collect::<Vec<_>>(), q)
    };
    let counter = |label: &str| probe.counters.get(label).copied().unwrap_or(0.0);
    let c = &t.counts;
    let values: BTreeMap<&str, f64> = [
        ("lang.parse_us", t.total_us("lang.parse")),
        ("lang.typeck_us", t.total_us("lang.typeck")),
        ("lang.core_check_us", t.total_us("lang.core_check")),
        (
            "strategies.run_recipe_us",
            t.total_us("strategies.run_recipe"),
        ),
        ("strategies.obligations", c.obligations as f64),
        ("strategies.obligations_failed", c.obligations_failed as f64),
        ("sm.lower_us", t.total_us("sm.lower")),
        ("store.key_us", t.total_us("store.key")),
        ("store.load_us", t.total_us("store.load")),
        ("store.save_us", t.total_us("store.save")),
        ("store.record_bytes", c.record_bytes as f64),
        ("store.hit_ratio", c.hits as f64 / c.loads.max(1) as f64),
        ("verify.check_us", check_us),
        ("verify.product_nodes", c.product_nodes as f64),
        ("verify.low_transitions", c.low_transitions as f64),
        (
            "verify.nodes_per_s",
            c.product_nodes as f64 / (check_us / 1e6),
        ),
        ("verify.ingress_us", stage_us(Stage::Ingress)),
        ("verify.explore_us", stage_us(Stage::Explore)),
        ("verify.subsume_us", stage_us(Stage::Subsume)),
        ("verify.commit_us", stage_us(Stage::Commit)),
        (
            "verify.explore_items_per_batch",
            tel.occupancy(Stage::Explore).mean(),
        ),
        ("verify.compose_us", t.total_us("verify.compose")),
        ("recheck.validate_us", t.total_us("recheck.validate")),
        ("recheck.replay_us", t.total_us("recheck.replay")),
        ("recheck.obligations", c.recheck_obligations as f64),
        (
            "recheck.replay_vs_check",
            t.total_us("recheck.replay") / check_us,
        ),
        ("proto.connect_us_p50", proto(|t| t.connect_us, 0.5)),
        ("proto.write_us_p50", proto(|t| t.write_us, 0.5)),
        ("proto.decode_us_p50", proto(|t| t.decode_us, 0.5)),
        ("proto.wait_ms_p50", proto(|t| t.wait_ms, 0.5)),
        ("proto.wait_ms_p99", proto(|t| t.wait_ms, 0.99)),
        (
            "serve.coalesce_ratio",
            counter("serve.coalesced") / counter("serve.requests").max(1.0),
        ),
        ("serve.verifications", counter("serve.verifications")),
        ("serve.fresh_ms_p50", percentile(&probe.fresh_ms, 0.5)),
        ("cache.mem_hits", counter("cache.mem_hits")),
        ("cache.disk_hits", counter("cache.disk_hits")),
        ("cache.misses", counter("cache.misses")),
        ("trace.overhead_ratio", cold_pass_s / untraced_s - 1.0),
        ("trace.unaccounted_us", unaccounted_us),
    ]
    .into_iter()
    .collect();
    let metrics: Vec<(&str, &str, f64)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, unit, values[name]))
        .collect();

    let file = plan.work.join(format!("trace-{workload}.json"));
    let doc = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(plan.seed as f64)),
        ("jobs", Json::int(jobs)),
        ("metrics", crate::value_table(&metrics)),
        ("subjects", subjects(&t)),
        ("spans", spans(&t, &own)),
    ]);
    std::fs::write(&file, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    let verdicts = order
        .iter()
        .zip(reference)
        .zip(traced[0].iter().cloned().zip(traced[1].iter().cloned()))
        .map(|((module, pipeline), (cold, warm))| (module.name, [pipeline, cold, warm]))
        .collect();
    Ok(Layers {
        metrics,
        verdicts,
        file,
    })
}

/// Per subject (a module, or `module/recipe`): each layer's total per pass,
/// and for recipes the warm replay time over the cold check time.
fn subjects(t: &Tracer) -> Json {
    let mut by_subject: BTreeMap<&str, [BTreeMap<&str, f64>; 2]> = BTreeMap::new();
    for span in t.spans.iter().filter(|s| !GLUE.contains(&s.name)) {
        *by_subject.entry(&span.subject).or_default()[span.pass]
            .entry(span.name)
            .or_default() += span.us();
    }
    let layers = |totals: &BTreeMap<&str, f64>| {
        Json::Obj(
            totals
                .iter()
                .map(|(name, us)| (format!("{name}_us"), Json::Num(*us)))
                .collect(),
        )
    };
    Json::Arr(
        by_subject
            .iter()
            .map(|(subject, [cold, warm])| {
                let ratio = match (warm.get("recheck.replay"), cold.get("verify.check")) {
                    (Some(replay), Some(check)) => crate::num(replay / check),
                    _ => Json::Null,
                };
                Json::obj([
                    ("subject", Json::str(*subject)),
                    ("cold", layers(cold)),
                    ("warm_recheck", layers(warm)),
                    ("replay_vs_check", ratio),
                ])
            })
            .collect(),
    )
}

fn spans(t: &Tracer, own: &[f64]) -> Json {
    Json::Arr(
        t.spans
            .iter()
            .zip(own)
            .map(|(s, own_us)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("pass", Json::int(s.pass)),
                    ("subject", Json::str(s.subject.as_str())),
                    ("parent", s.parent.map_or(Json::Null, Json::int)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    ("self_us", Json::Num(*own_us)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64) -> Span {
        Span {
            name,
            pass: 0,
            subject: String::new(),
            parent: None,
            start_us,
            end_us,
        }
    }

    /// Two forks' recipe spans land under the span open at the join, and
    /// the parent's self time subtracts the union of its overlapping
    /// children, not their sum.
    #[test]
    fn joined_forks_nest_and_overlap_counts_once() {
        let mut t = Tracer::new();
        t.spans.push(span("module", 0.0, 100.0));
        t.open.push(0);
        let (mut a, mut b) = (t.fork(), t.fork());
        a.spans.push(span("recipe", 10.0, 60.0));
        a.spans.push(span("verify.check", 20.0, 50.0));
        a.spans[1].parent = Some(0);
        a.counts.obligations = 2;
        b.spans.push(span("recipe", 40.0, 90.0));
        b.counts.obligations = 3;
        t.join(a);
        t.join(b);
        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert_eq!(t.counts.obligations, 5);
        // The recipes cover 10..90 together: 80 of the module's 100 us.
        assert_eq!(t.self_us(), [20.0, 20.0, 30.0, 50.0]);
    }
}
