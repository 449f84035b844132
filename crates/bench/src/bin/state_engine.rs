//! State-space engine throughput benchmark: times `armada_sm::explore` over
//! the spec corpus and the case-study models and reports, per subject:
//!
//! - `states_per_sec` — arena states interned per second with reduction
//!   *off* (same state space as the seed engine: isolates the
//!   interning/fingerprint win);
//! - `effective_states_per_sec` — unreduced state count divided by the
//!   *reduced* run's wall time (the combined interning + reduction win:
//!   how fast the engine covers the spec's observable space);
//! - the macro/micro transition counts and the reduction ratio;
//! - wall time at `jobs = N` for the parallel-scaling note in
//!   EXPERIMENTS.md (on a single-core host this is ~1x by construction).
//!
//! ```text
//! cargo run --release -p armada-bench --bin state_engine [-- --quick] [-- --jobs N]
//! ```
//!
//! Writes `BENCH_state_engine.json` at the repository root (stable
//! `{"name","config","samples","summary"}` schema; a `--quick` run only
//! prints it), and prints the rows.

use armada::sm::{explore, lower, Bounds};
use armada_bench::harness::bench;
use armada_bench::json::Json;
use armada_bench::report;

struct Subject {
    name: &'static str,
    source: String,
    level: &'static str,
}

fn subjects() -> Vec<Subject> {
    let mut out = Vec::new();
    for file in ["counter", "spinlock", "handoff", "tracepoint"] {
        let path = format!("specs/{file}.arm");
        match std::fs::read_to_string(&path) {
            Ok(source) => out.push(Subject {
                name: Box::leak(format!("specs/{file}").into_boxed_str()),
                source,
                level: "Implementation",
            }),
            Err(err) => eprintln!("skipping {path}: {err}"),
        }
    }
    out.push(Subject {
        name: "cases/queue",
        source: armada_cases::queue::MODEL.to_string(),
        level: "Implementation",
    });
    out.push(Subject {
        name: "cases/mcs_lock",
        source: armada_cases::mcs_lock::MODEL.to_string(),
        level: "Implementation",
    });
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick =
        args.iter().any(|a| a == "--quick") || std::env::var_os("ARMADA_BENCH_QUICK").is_some();
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1);
    let samples = if quick { 2 } else { 5 };
    println!("state_engine: {samples} trials per row, parallel column at jobs={jobs}");

    let mut rows: Vec<Json> = Vec::new();
    for subject in subjects() {
        let pipeline = match armada::Pipeline::from_source(&subject.source) {
            Ok(p) => p,
            Err(err) => {
                eprintln!("skipping {}: front end: {err:?}", subject.name);
                continue;
            }
        };
        let typed = pipeline.typed();
        let program = lower(typed, subject.level).expect("lower");
        let unreduced = Bounds::small().with_reduction(false);
        let reduced = Bounds::small().with_reduction(true);

        let full = explore(&program, &unreduced);
        let fused = explore(&program, &reduced);
        let states_full = full.arena.len();
        let states_fused = fused.arena.len();

        let off = bench(&format!("{}/off", subject.name), samples, || {
            let e = explore(&program, &unreduced);
            assert_eq!(e.arena.len(), states_full);
        });
        let on = bench(&format!("{}/on", subject.name), samples, || {
            let e = explore(&program, &reduced);
            assert_eq!(e.arena.len(), states_fused);
        });
        let par = bench(&format!("{}/on x{jobs}", subject.name), samples, || {
            let e = explore(&program, &reduced.clone().with_jobs(jobs));
            assert_eq!(e.arena.len(), states_fused);
        });

        let secs_off = off.secs_per_iter.mean.max(1e-9);
        let secs_on = on.secs_per_iter.mean.max(1e-9);
        let secs_par = par.secs_per_iter.mean.max(1e-9);
        let states_per_sec = states_full as f64 / secs_off;
        let effective = states_full as f64 / secs_on;
        println!(
            "  {:<18} {:>7} states ({} fused) ratio {:>5.2} | {:>10.0} st/s off | {:>10.0} st/s effective | x{jobs}: {:.2}x",
            subject.name,
            states_full,
            states_fused,
            fused.reduction_ratio(),
            states_per_sec,
            effective,
            secs_on / secs_par,
        );
        rows.push(Json::obj(vec![
            ("subject", Json::str(subject.name)),
            ("states", Json::int(states_full)),
            ("states_reduced", Json::int(states_fused)),
            ("transitions", Json::int(full.transitions)),
            ("macro_transitions", Json::int(fused.transitions)),
            ("micro_steps", Json::int(fused.micro_steps)),
            ("reduction_ratio", Json::Num(fused.reduction_ratio())),
            ("mean_ms_off", Json::Num(secs_off * 1e3)),
            ("mean_ms_on", Json::Num(secs_on * 1e3)),
            ("mean_ms_on_parallel", Json::Num(secs_par * 1e3)),
            ("jobs", Json::int(jobs)),
            ("states_per_sec", Json::Num(states_per_sec)),
            ("effective_states_per_sec", Json::Num(effective)),
        ]));
    }

    // Both reduction settings are measured per row; symmetry stays at the
    // engine default (on) in every run, so the off/on timings differ only
    // by reduction.
    let config = Json::obj(vec![
        ("jobs", Json::int(jobs)),
        ("samples", Json::int(samples)),
        ("quick", Json::Bool(quick)),
        ("reduction", Json::str("off+on")),
        ("symmetry", Json::Bool(Bounds::small().symmetry)),
    ]);
    let summary = Json::obj(vec![("subjects", Json::int(rows.len()))]);
    let doc = report::report("state_engine", config, rows, summary);
    report::write("state_engine", &doc);
}
