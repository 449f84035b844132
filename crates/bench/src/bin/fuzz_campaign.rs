//! Fault-fuzzing campaign benchmark: sweeps the shipped `specs/*.arm`
//! corpus through `armada::fuzz::run_campaign` — 64 seeds (8 under
//! `--quick` / `ARMADA_BENCH_QUICK`) at jobs ∈ {1, 4} — and records the
//! campaign's shape: runs executed, invariant checks evaluated, faults
//! injected per fate, violations found (zero on a healthy pipeline), and
//! whether the grid exercised every fate in the taxonomy.
//!
//! ```text
//! cargo run --release -p armada-bench --bin fuzz_campaign [-- --quick] [-- --jobs N]
//! ```
//!
//! Writes `BENCH_fuzz.json` at the repository root (stable
//! `{"name","config","samples","summary"}` schema; a `--quick` run only
//! prints it). The campaign itself is deterministic — same grid,
//! byte-identical campaign JSON — which this bench double-checks by
//! running the grid twice and comparing.

use std::time::Instant;

use armada::fuzz::{run_campaign, FuzzConfig, FuzzSubject};
use armada_bench::json::Json;
use armada_bench::report;

fn spec_corpus() -> Vec<FuzzSubject> {
    let dir = if std::path::Path::new("specs").is_dir() {
        "specs".to_string()
    } else {
        format!("{}/../../specs", env!("CARGO_MANIFEST_DIR"))
    };
    let mut paths: Vec<String> = std::fs::read_dir(&dir)
        .expect("read specs/")
        .filter_map(|entry| {
            let path = entry.expect("dir entry").path();
            (path.extension().is_some_and(|ext| ext == "arm"))
                .then(|| path.to_str().expect("utf8 path").to_string())
        })
        .collect();
    paths.sort();
    assert!(paths.len() >= 4, "expected the full spec corpus in {dir}");
    paths
        .iter()
        .map(|p| FuzzSubject::from_path(p).expect("spec readable"))
        .collect()
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
        .unwrap_or(4)
        .max(1);
    let seeds: u64 = if quick { 8 } else { 64 };
    println!("fuzz_campaign: {seeds} seeds over the spec corpus, jobs {{1, {jobs}}}");

    let subjects = spec_corpus();
    let config = FuzzConfig {
        seeds: (0..seeds).collect(),
        jobs: if jobs > 1 { vec![1, jobs] } else { vec![1] },
        scratch_root: std::env::temp_dir()
            .join(format!("armada-bench-fuzz-{}", std::process::id())),
        ..FuzzConfig::default()
    };

    let start = Instant::now();
    let campaign = run_campaign(&subjects, &config);
    let secs = start.elapsed().as_secs_f64();
    // The campaign report is a pure function of the grid; a rerun must be
    // byte-identical or the fuzzer itself is nondeterministic.
    let rerun = run_campaign(&subjects, &config);
    assert_eq!(
        campaign.to_json(),
        rerun.to_json(),
        "campaign report not deterministic across reruns"
    );

    println!(
        "  {} subjects × {seeds} seeds: {} runs, {} checks, {} faults, \
         {} violations in {:.2}s (rerun byte-identical)",
        campaign.subjects.len(),
        campaign.runs,
        campaign.checks,
        campaign.total_injected(),
        campaign.violations.len(),
        secs
    );

    let rows: Vec<Json> = campaign
        .injected
        .iter()
        .map(|&(fate, count)| {
            Json::obj(vec![
                ("fate", Json::str(fate)),
                ("injected", Json::int(count)),
            ])
        })
        .collect();
    let config_json = Json::obj(vec![
        ("subjects", Json::int(campaign.subjects.len())),
        ("seeds", Json::int(seeds as usize)),
        ("jobs_grid", Json::str(format!("{:?}", campaign.jobs))),
        ("quick", Json::Bool(quick)),
    ]);
    let summary = Json::obj(vec![
        ("runs", Json::int(campaign.runs)),
        ("checks", Json::int(campaign.checks)),
        ("faults_injected", Json::int(campaign.total_injected())),
        ("violations", Json::int(campaign.violations.len())),
        (
            "all_fates_injected",
            Json::Bool(campaign.all_fates_injected()),
        ),
        ("deterministic_rerun", Json::Bool(true)),
        ("campaign_secs", Json::Num(secs)),
    ]);
    let doc = report::report("fuzz", config_json, rows, summary);
    report::write("fuzz", &doc);
    assert!(
        campaign.ok(),
        "fuzz campaign found violations:\n{}",
        campaign.to_json()
    );
}
