//! Stage-pipeline scaling benchmark: explores a wide-frontier TSO subject
//! through the state-space engine's stage pipeline (ingress → explore →
//! subsume → commit on a `wave::Pool`) at jobs ∈ {1, 2, 4}, and
//! reports per job count:
//!
//! - wall time and effective states/sec (interned states divided by mean
//!   wall time — the pipeline's headline throughput metric);
//! - the `--telemetry` overhead as a median of paired back-to-back ratios
//!   (load drift on a shared box poisons unpaired comparisons; pairing and
//!   order-alternation are the same discipline `examples/telemetry_gate.rs`
//!   uses to enforce the <2% budget). The overhead is clamped at zero — a
//!   negative measurement is physically impossible, so its magnitude is
//!   reported separately as `noise_floor`;
//! - speedup versus the jobs=1 inline pipeline.
//!
//! Every run asserts the interned state count against a reference
//! exploration first, so the timings only ever measure byte-identical
//! work (jobs=1 ≡ jobs=N is the engine's core invariant).
//!
//! ```text
//! cargo run --release -p armada-bench --bin pipeline_scaling [-- --quick]
//! ```
//!
//! Writes `BENCH_pipeline.json` at the repository root (stable
//! `{"name","config","samples","summary"}` schema); a `--quick` run only
//! prints it.

use armada::sm::{explore, explore_with_telemetry, lower, Bounds};
use armada_bench::harness::bench;
use armada_bench::json::Json;
use armada_bench::report;

/// Two racing writer threads of nondeterministic TSO writes: the frontier
/// widens into waves of hundreds of states, which is what the pipeline's
/// slot round-robin actually has to keep fed.
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick =
        args.iter().any(|a| a == "--quick") || std::env::var_os("ARMADA_BENCH_QUICK").is_some();
    let samples = if quick { 2 } else { 4 };
    let job_grid = [1usize, 2, 4];
    println!("pipeline_scaling: {samples} trials per job count, jobs {job_grid:?}");

    let module = armada::lang::parse_module(WIDE).expect("parse");
    let typed = armada::lang::check_module(&module).expect("check");
    let program = lower(&typed, "L").expect("lower");

    // Reference run: pins the byte-identity expectation for every trial.
    let reference = explore(&program, &Bounds::small());
    assert!(!reference.truncated, "subject must fit the bounds");
    let states = reference.arena.len();
    let transitions = reference.transitions;
    println!("  subject: {states} states, {transitions} transitions");

    let mut rows: Vec<Json> = Vec::new();
    let mut serial_secs = 0.0f64;
    let mut best_speedup = 1.0f64;
    let mut worst_overhead = 0.0f64;
    for &jobs in &job_grid {
        let bounds = Bounds::small().with_jobs(jobs);
        let plain = bench(&format!("explore/jobs={jobs}"), samples, || {
            let e = explore(&program, &bounds);
            assert_eq!(e.arena.len(), states);
            assert_eq!(e.transitions, transitions);
        })
        .secs_per_iter
        .mean
        .max(1e-9);
        // Telemetry overhead: median of paired ratios, order-alternated —
        // an unpaired mean comparison on a drifting box reads as tens of
        // percent of pure noise.
        let timed_plain = || {
            let t = std::time::Instant::now();
            let e = explore(&program, &bounds);
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(e.arena.len(), states);
            secs
        };
        let timed_tel = || {
            let t = std::time::Instant::now();
            let (e, tel) = explore_with_telemetry(&program, &bounds);
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(e.arena.len(), states);
            assert!(!tel.is_empty());
            secs
        };
        let pairs = samples * 2;
        let mut ratios = Vec::with_capacity(pairs);
        let mut tel_secs = 0.0;
        for pair in 0..pairs {
            let (p, t) = if pair % 2 == 0 {
                let p = timed_plain();
                let t = timed_tel();
                (p, t)
            } else {
                let t = timed_tel();
                let p = timed_plain();
                (p, t)
            };
            tel_secs += t;
            ratios.push(t / p);
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        let median_ratio = (ratios[pairs / 2 - 1] + ratios[pairs / 2]) / 2.0;
        let with_tel = (tel_secs / pairs as f64).max(1e-9);
        if jobs == 1 {
            serial_secs = plain;
        }
        let states_per_sec = states as f64 / plain;
        // A median ratio below 1.0 means the instrumented run measured
        // *faster* than the plain one — impossible as a real effect, so it
        // is run-to-run noise. Clamp the overhead at zero and report the
        // magnitude separately as `noise_floor`: the smallest overhead
        // this host could have distinguished from nothing.
        let overhead = (median_ratio - 1.0).max(0.0);
        let noise_floor = (1.0 - median_ratio).max(0.0);
        let speedup = serial_secs / plain;
        best_speedup = best_speedup.max(speedup);
        worst_overhead = worst_overhead.max(overhead);
        println!(
            "  jobs={jobs}: {:.1} ms, {:.0} states/sec, speedup {:.2}x, \
             telemetry overhead {:+.1}% (noise floor {:.1}%)",
            plain * 1e3,
            states_per_sec,
            speedup,
            overhead * 1e2,
            noise_floor * 1e2,
        );
        rows.push(Json::obj(vec![
            ("jobs", Json::int(jobs)),
            ("mean_ms", Json::Num(plain * 1e3)),
            ("states_per_sec", Json::Num(states_per_sec)),
            ("mean_ms_telemetry", Json::Num(with_tel * 1e3)),
            ("telemetry_overhead", Json::Num(overhead)),
            ("noise_floor", Json::Num(noise_floor)),
            ("speedup_vs_serial", Json::Num(speedup)),
        ]));
    }

    // One instrumented jobs=1 run exports the per-stage histograms into
    // the report: latency quantile bounds are power-of-two bucket upper
    // bounds (ns), occupancy is items per recorded batch.
    let (_, tel) = explore_with_telemetry(&program, &Bounds::small());
    let stages = [
        armada_runtime::telemetry::Stage::Ingress,
        armada_runtime::telemetry::Stage::Explore,
        armada_runtime::telemetry::Stage::Subsume,
        armada_runtime::telemetry::Stage::Commit,
    ];
    let histograms: Vec<Json> = stages
        .iter()
        .map(|&stage| {
            let latency = tel.latency(stage);
            let occupancy = tel.occupancy(stage);
            Json::obj(vec![
                ("stage", Json::str(stage.label())),
                ("latency_batches", Json::int(latency.count() as usize)),
                ("latency_mean_ns", Json::Num(latency.mean())),
                (
                    "latency_p50_ns",
                    Json::int(latency.quantile_bound(0.50) as usize),
                ),
                (
                    "latency_p99_ns",
                    Json::int(latency.quantile_bound(0.99) as usize),
                ),
                ("occupancy_batches", Json::int(occupancy.count() as usize)),
                ("occupancy_mean_items", Json::Num(occupancy.mean())),
            ])
        })
        .collect();

    let config = Json::obj(vec![
        ("subject", Json::str("wide_tso_writers")),
        ("jobs_grid", Json::str("1,2,4")),
        ("samples", Json::int(samples)),
        ("quick", Json::Bool(quick)),
    ]);
    let summary = Json::obj(vec![
        ("states", Json::int(states)),
        ("transitions", Json::int(transitions)),
        ("best_speedup", Json::Num(best_speedup)),
        ("worst_telemetry_overhead", Json::Num(worst_overhead)),
        ("stage_histograms", Json::Arr(histograms)),
    ]);
    let doc = report::report("pipeline", config, rows, summary);
    report::write("pipeline", &doc);
}
