//! `e2e`: the end-to-end benchmark of `armada verify` and `armada serve`.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! e2e diff BASE.json NEW.json [--benchmark BENCHMARK.json]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is its result: `{"correct", "attempted", "failed",
//! "metrics"}`, the metrics being the end-to-end ones, or with `--trace 1`
//! the per-layer ones from a traced cycle. Without it, every workload runs
//! in a child process of its own and the reports are merged into `--out`.
//! `diff` compares two reports against the bounds in `BENCHMARK.json`.
//! README.md beside this file defines every metric and workload.

mod client;
mod corpus;
mod diff;
mod expected;
mod json;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::Command;

use armada_bench::json::Json;
use armada_bench::report;

use stats::{percentile, quartile_spread, Sample};
use workloads::{Outcome, Plan, Unit, Workload};

const USAGE: &str = "usage: e2e [--workload cold_serial|cold_parallel|warm|serve_mixed] \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n       \
e2e diff BASE.json NEW.json [--benchmark BENCHMARK.json]";

/// Scratch space for stores, per-workload reports and trace files.
const WORK: &str = "target/e2e";

/// Every end-to-end metric with its unit, in report order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p99", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// A report number; JSON has no NaN or infinity.
pub fn num(value: f64) -> Json {
    if value.is_finite() {
        Json::Num(value)
    } else {
        Json::Null
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 13.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/bench/e2e.json"),
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = rest
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("diff") => diff::main(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            0
        }
        _ => match parse_args(&args) {
            Ok(parsed) => match parsed.workload {
                Some(workload) => run_one(workload, &parsed),
                None => run_all(&parsed),
            },
            Err(e) => {
                eprintln!("e2e: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// One end-to-end metric of one run, with its pass-to-pass spread.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    spread: f64,
    samples: usize,
}

/// The raw 99th percentile latency of the workload's steady requests:
/// every verdict except serve's fresh requests. A fresh request is a cold
/// verification, which the cold workloads time; without them this is the
/// tail that repeats reach while waiting behind cold work.
fn steady_p99(samples: &[Sample]) -> f64 {
    let ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.kind != "fresh")
        .map(|s| s.ms)
        .collect();
    percentile(&ms, 0.99)
}

fn end_to_end(outcome: &Outcome) -> Vec<Metric> {
    let units = &outcome.units;
    let all: Vec<Sample> = units.iter().flat_map(|u| u.samples.clone()).collect();
    let seconds: f64 = units.iter().map(|u| u.seconds).sum();
    let per_unit = |metric: fn(&Unit) -> f64| -> Vec<f64> {
        units.iter().map(metric).filter(|v| v.is_finite()).collect()
    };
    let peaks = per_unit(|u| u.peak_rss_mb);
    let values = [
        (percentile(&outcome.setup_s, 0.5), outcome.setup_s.clone()),
        (
            // Concurrent clients each spend the summed unit time.
            outcome.clients as f64 * all.len() as f64 / seconds,
            per_unit(|u| u.samples.len() as f64 / u.seconds),
        ),
        (steady_p99(&all), per_unit(|u| steady_p99(&u.samples))),
        // A mean, not a median: a unit's peak takes one of a few values
        // (which module ran last, how far the allocator's arenas have
        // grown), and a median jumps between them from run to run.
        (peaks.iter().sum::<f64>() / peaks.len() as f64, peaks),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            spread: quartile_spread(&samples),
            samples: samples.len(),
        })
        .collect()
}

/// `{name: {"value", "unit"}}` for each `(name, unit, value)`.
pub fn value_table(metrics: &[(&str, &str, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                let fields = [("value", num(value)), ("unit", Json::str(unit))];
                (name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

/// The machine-readable result: the last line a workload run prints.
fn result_line(outcome: &Outcome, metrics: &[(&str, &str, f64)]) -> Json {
    let ledger = &outcome.ledger;
    Json::obj([
        ("correct", Json::Bool(ledger.failures.is_empty())),
        ("attempted", Json::int(ledger.attempted)),
        ("failed", Json::int(ledger.failures.len())),
        ("metrics", value_table(metrics)),
    ])
}

/// This workload's entry in the report's `summary`, and its `samples`.
fn summary(workload: Workload, outcome: &Outcome, metrics: &[Metric]) -> (Json, Vec<Json>) {
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([
                        ("value", num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("spread", num(m.spread)),
                        ("samples", Json::int(m.samples)),
                    ]),
                )
            })
            .collect(),
    );
    let all_samples: Vec<Sample> = outcome
        .units
        .iter()
        .flat_map(|u| u.samples.clone())
        .collect();
    let all: Vec<f64> = all_samples.iter().map(|s| s.ms).collect();
    let mut timings = vec![("latency_ms".to_string(), stats::timing(&all))];
    for (name, unit, values) in &outcome.timings {
        timings.push((format!("{name} ({unit})"), stats::timing(values)));
    }
    let groups = stats::group_medians(&all_samples);
    let ledger = &outcome.ledger;
    let mut fields = vec![
        ("metrics", metrics_json),
        ("timings", Json::Obj(timings)),
        (
            "group_median_ms",
            Json::Obj(
                groups
                    .into_iter()
                    .map(|(group, median, count)| {
                        let fields = [("median", Json::Num(median)), ("samples", Json::int(count))];
                        (group, Json::obj(fields))
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::Obj(
                outcome
                    .counters
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                    .collect(),
            ),
        ),
        ("attempted", Json::int(ledger.attempted)),
        ("failed", Json::int(ledger.failures.len())),
        (
            "failed_ratio",
            Json::Num(ledger.failures.len() as f64 / ledger.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(ledger.failures.iter().take(20).map(Json::str).collect()),
        ),
    ];
    if let Some(layers) = &outcome.layers {
        fields.push(("layers", value_table(&layers.metrics)));
        fields.push(("trace_file", Json::str(layers.file.display().to_string())));
    }
    let samples = outcome
        .units
        .iter()
        .enumerate()
        .map(|(index, unit)| {
            Json::obj([
                ("workload", Json::str(workload.name())),
                ("unit", Json::int(index)),
                ("seconds", Json::Num(unit.seconds)),
                ("ops", Json::int(unit.samples.len())),
                ("latency_ms_p99", num(steady_p99(&unit.samples))),
                ("peak_rss_mb", num(unit.peak_rss_mb)),
            ])
        })
        .collect();
    (Json::obj(fields), samples)
}

fn config(args: &Args, workloads: &[Workload], modules: usize) -> Json {
    Json::obj([
        (
            "workloads",
            Json::Arr(workloads.iter().map(|w| Json::str(w.name())).collect()),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("trace", Json::Bool(args.trace)),
        ("corpus_modules", Json::int(modules)),
    ])
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run_one(workload: Workload, args: &Args) -> i32 {
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        trace: args.trace,
        corpus: corpus::CORPUS.to_vec(),
        work: Path::new(WORK).join(workload.name()),
    };
    let outcome = match workloads::run(workload, &plan) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2e {}: {e}", workload.name());
            return 1;
        }
    };
    let metrics = end_to_end(&outcome);
    let name = workload.name();
    for m in &metrics {
        println!(
            "{name} {} = {:.6} {} (spread {:.3} over {} samples)",
            m.name, m.value, m.unit, m.spread, m.samples
        );
    }
    for (timing, unit, values) in &outcome.timings {
        print!(
            "{name} {timing}_p50 = {:.6} {unit}",
            percentile(values, 0.5)
        );
        if let Some(q) = stats::tail_quantile(values.len()) {
            print!(
                ", {timing}_p{} = {:.6} {unit}",
                q * 100.0,
                percentile(values, q)
            );
        }
        println!(" ({} samples)", values.len());
    }
    for failure in &outcome.ledger.failures {
        eprintln!("e2e {name}: FAILED {failure}");
    }
    let (workload_summary, samples) = summary(workload, &outcome, &metrics);
    let doc = report::report(
        "e2e",
        config(args, &[workload], plan.corpus.len()),
        samples,
        Json::Obj(vec![(name.to_string(), workload_summary)]),
    );
    if let Err(e) = write(&args.out, &doc) {
        eprintln!("e2e {name}: {e}");
        return 1;
    }
    let printed: Vec<(&str, &str, f64)> = match &outcome.layers {
        Some(layers) => {
            println!("{name} trace spans in {}", layers.file.display());
            layers.metrics.clone()
        }
        None => metrics.iter().map(|m| (m.name, m.unit, m.value)).collect(),
    };
    println!("{}", result_line(&outcome, &printed));
    if outcome.ledger.failures.is_empty() {
        0
    } else {
        1
    }
}

/// Runs every workload in a child process and merges their reports.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: cannot find own executable: {e}");
            return 1;
        }
    };
    let (mut samples, mut summaries, mut failed) = (Vec::new(), Vec::new(), false);
    for workload in Workload::ALL {
        let out = Path::new(WORK).join(format!("{}.json", workload.name()));
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&out);
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child.status();
        if !status.as_ref().is_ok_and(|s| s.success()) {
            eprintln!("e2e: workload {} failed: {status:?}", workload.name());
            failed = true;
        }
        let doc = std::fs::read_to_string(&out)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text));
        match doc {
            Ok(doc) => {
                if let Some(armada::proto::Json::Arr(rows)) = doc.get("samples") {
                    samples.extend(rows.iter().map(json::to_report));
                }
                if let Some(entry) = json::at(&doc, &["summary", workload.name()]) {
                    summaries.push((workload.name().to_string(), json::to_report(entry)));
                }
            }
            Err(e) => {
                eprintln!("e2e: no report from {}: {e}", workload.name());
                failed = true;
            }
        }
    }
    let doc = report::report(
        "e2e",
        config(args, &Workload::ALL, corpus::CORPUS.len()),
        samples,
        Json::Obj(summaries),
    );
    if let Err(e) = write(&args.out, &doc) {
        eprintln!("e2e: {e}");
        return 1;
    }
    println!("e2e: wrote {}", args.out.display());
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke mode on a three-module sub-corpus, traced: every workload
    /// answers correctly, and the traced sequence reaches the same
    /// verdicts as `Pipeline::run`.
    #[test]
    fn smoke_runs_every_workload_and_traced_verdicts_match_the_pipeline() {
        let work = std::env::temp_dir().join(format!("armada-e2e-smoke-{}", std::process::id()));
        for workload in Workload::ALL {
            let plan = Plan {
                seed: 7,
                seconds: 1.0,
                smoke: true,
                trace: true,
                corpus: corpus::smoke(),
                work: work.join(workload.name()),
            };
            let outcome = workloads::run(workload, &plan).expect("workload runs");
            assert!(
                outcome.ledger.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                outcome.ledger.failures
            );
            let metrics = end_to_end(&outcome);
            assert!(metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
            let layers = outcome.layers.expect("traced");
            assert_eq!(layers.verdicts.len(), plan.corpus.len());
            for (module, [pipeline, cold, warm]) in &layers.verdicts {
                assert_eq!(pipeline, cold, "{module}");
                assert_eq!(pipeline, warm, "{module}");
                assert_eq!(*pipeline, expected::expected(module));
            }
            assert!(layers.metrics.iter().all(|(_, _, v)| v.is_finite()));
        }
        let _ = std::fs::remove_dir_all(&work);
    }

    /// The names and units the benchmark prints are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let bench = json::parse(include_str!("../../../../../BENCHMARK.json")).expect("parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            match bench.get(key) {
                Some(armada::proto::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("");
                        (field("name").to_string(), field("unit").to_string())
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks `{key}`"),
            }
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&trace::LAYER_METRICS));
        let workloads: Vec<String> = match bench.get("workloads") {
            Some(armada::proto::Json::Arr(items)) => items
                .iter()
                .filter_map(|w| w.get("name").and_then(|n| n.as_str()).map(str::to_string))
                .collect(),
            _ => panic!("BENCHMARK.json lacks `workloads`"),
        };
        let own_workloads: Vec<String> =
            Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, own_workloads);
    }
}
