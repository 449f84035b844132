//! Symmetry-reduction benchmark: explores the six symmetric-thread
//! subjects (`armada_cases::symmetric` — barrier, spinlock, queue at
//! k ∈ {2, 3} interchangeable workers) under every combination of
//! symmetry × local-step reduction, and reports, per subject:
//!
//! - interned-state counts for all four configurations, and the collapse
//!   factor `states(sym off) / states(sym on)` with reduction off — the
//!   clean quotient measurement, bounded by `k!` on a `k`-symmetric
//!   subject;
//! - wall time per configuration and the headline ratio
//!   `effective_speedup`: effective states/sec with symmetry on vs off,
//!   reduction on in both (the production configuration). Effective
//!   states/sec is the *unreduced, unsymmetric* state count divided by a
//!   configuration's wall time, so the ratio reduces to the wall-clock
//!   speedup on the same observable space.
//!
//! ```text
//! cargo run --release -p armada-bench --bin symmetry [-- --quick] [-- --jobs N]
//! ```
//!
//! Writes `BENCH_symmetry.json` at the repository root (stable
//! `{"name","config","samples","summary"}` schema); a `--quick` run only
//! prints it.

use armada::sm::{explore, lower, Bounds};
use armada_bench::harness::bench;
use armada_bench::json::Json;
use armada_bench::report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick =
        args.iter().any(|a| a == "--quick") || std::env::var_os("ARMADA_BENCH_QUICK").is_some();
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1);
    let samples = if quick { 2 } else { 5 };
    println!("symmetry: {samples} trials per configuration, jobs={jobs}");

    let mut rows: Vec<Json> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();
    let mut best_collapse: Option<(String, usize, f64)> = None;
    for subject in armada_cases::symmetric::subjects() {
        let pipeline = armada::Pipeline::from_source(&subject.source).expect("front end");
        let program = lower(pipeline.typed(), "Implementation").expect("lower");
        let base = Bounds::small().with_jobs(jobs);

        // One exploration per configuration for the state counts…
        let states = |sym: bool, red: bool| {
            let e = explore(
                &program,
                &base.clone().with_symmetry(sym).with_reduction(red),
            );
            assert!(
                !e.truncated,
                "{}: subject must fit the bounds",
                subject.name
            );
            e.arena.len()
        };
        let counts = [
            [states(false, false), states(false, true)],
            [states(true, false), states(true, true)],
        ];
        // …then timed trials. `expected` pins determinism across trials.
        let timed = |sym: bool, red: bool, expected: usize| {
            let bounds = base.clone().with_symmetry(sym).with_reduction(red);
            let result = bench(
                &format!(
                    "{}/sym={}+red={}",
                    subject.name,
                    if sym { "on" } else { "off" },
                    if red { "on" } else { "off" }
                ),
                samples,
                || {
                    let e = explore(&program, &bounds);
                    assert_eq!(e.arena.len(), expected);
                },
            );
            result.secs_per_iter.mean.max(1e-9)
        };
        let secs = [
            [
                timed(false, false, counts[0][0]),
                timed(false, true, counts[0][1]),
            ],
            [
                timed(true, false, counts[1][0]),
                timed(true, true, counts[1][1]),
            ],
        ];

        let full = counts[0][0] as f64; // unreduced, unsymmetric space
        let collapse = counts[0][0] as f64 / counts[1][0].max(1) as f64;
        let effective_speedup = secs[0][1] / secs[1][1];
        println!(
            "  {:<12} k={} | states off/on (red off): {}/{} collapse {:.2} \
             | effective speedup (red on): {:.2}x",
            subject.name, subject.threads, counts[0][0], counts[1][0], collapse, effective_speedup,
        );
        speedups.push((subject.name.clone(), effective_speedup));
        if best_collapse.as_ref().is_none_or(|(_, _, c)| collapse > *c) {
            best_collapse = Some((subject.name.clone(), subject.threads, collapse));
        }
        rows.push(Json::obj(vec![
            ("subject", Json::str(subject.name.as_str())),
            ("threads", Json::int(subject.threads)),
            ("states_sym_off_red_off", Json::int(counts[0][0])),
            ("states_sym_off_red_on", Json::int(counts[0][1])),
            ("states_sym_on_red_off", Json::int(counts[1][0])),
            ("states_sym_on_red_on", Json::int(counts[1][1])),
            ("collapse_factor_red_off", Json::Num(collapse)),
            ("mean_ms_sym_off_red_off", Json::Num(secs[0][0] * 1e3)),
            ("mean_ms_sym_off_red_on", Json::Num(secs[0][1] * 1e3)),
            ("mean_ms_sym_on_red_off", Json::Num(secs[1][0] * 1e3)),
            ("mean_ms_sym_on_red_on", Json::Num(secs[1][1] * 1e3)),
            (
                "effective_states_per_sec_sym_off",
                Json::Num(full / secs[0][1]),
            ),
            (
                "effective_states_per_sec_sym_on",
                Json::Num(full / secs[1][1]),
            ),
            ("effective_speedup", Json::Num(effective_speedup)),
        ]));
    }

    let hits = speedups.iter().filter(|(_, s)| *s >= 1.8).count();
    let config = Json::obj(vec![
        ("jobs", Json::int(jobs)),
        ("samples", Json::int(samples)),
        ("quick", Json::Bool(quick)),
        ("reduction", Json::str("off+on")),
        ("symmetry", Json::str("off+on")),
    ]);
    let (bc_name, bc_threads, bc_factor) = best_collapse.expect("at least one subject");
    let summary = Json::obj(vec![
        ("subjects", Json::int(speedups.len())),
        ("subjects_at_1_8x_or_better", Json::int(hits)),
        ("best_collapse_subject", Json::str(bc_name)),
        ("best_collapse_threads", Json::int(bc_threads)),
        ("best_collapse_factor", Json::Num(bc_factor)),
    ]);
    let doc = report::report("symmetry", config, rows, summary);
    report::write("symmetry", &doc);
}
