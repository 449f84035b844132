//! Spillable-state-space benchmark: the "states explored per GB" axis.
//!
//! Drives symmetric subjects at `k ≥ 4` — where the arena footprint is
//! large enough for a memory cap to matter — through the state-space
//! engine three ways per subject:
//!
//! 1. **resident** — the plain all-in-memory exploration (the reference:
//!    every capped run must intern exactly this state count);
//! 2. **footprint** — the same exploration through the pager at an
//!    unbounded cap, to measure the total encoded arena footprint without
//!    evicting anything;
//! 3. **spilled** — the exploration under `mem_cap = footprint / 4` at
//!    jobs ∈ {1, 4}: cold pages evict to disk and fault back on demand,
//!    and the run must still intern the identical state count.
//!
//! The headline axis is **states per GB of peak resident arena**: how much
//! state space a fixed memory budget buys. A spilled run's peak residency
//! is pinned near the cap, so its states-per-GB multiplies by roughly the
//! footprint/cap ratio — that multiplier (at the cost of the reported
//! wall-time ratio) is the whole point of the pager.
//!
//! ```text
//! cargo run --release -p armada-bench --bin spill [-- --quick|--smoke]
//! ```
//!
//! `--quick` runs one subject at one trial; `--smoke` additionally drops
//! to `k = 3` (a seconds-long wiring gate for `scripts/verify.sh`).
//! Writes `BENCH_spill.json` at the repository root (stable
//! `{"name","config","samples","summary"}` schema); a `--quick` or
//! `--smoke` run only prints it.

use armada::sm::{explore, explore_with_telemetry, lower, Bounds, SpillSpec};
use armada_bench::harness::bench;
use armada_bench::json::Json;
use armada_bench::report;
use armada_cases::symmetric;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let quick = smoke
        || args.iter().any(|a| a == "--quick")
        || std::env::var_os("ARMADA_BENCH_QUICK").is_some();
    let samples = if quick { 1 } else { 2 };
    let k = if smoke { 3 } else { 4 };
    let shapes: &[&str] = if quick {
        &["barrier"]
    } else {
        &["barrier", "queue"]
    };
    let job_grid = [1usize, 4];
    println!("spill: {samples} trial(s) per mode, k={k}, shapes {shapes:?}");

    let scratch = std::env::temp_dir().join(format!("armada-bench-spill-{}", std::process::id()));

    let mut rows: Vec<Json> = Vec::new();
    let mut spilled_subjects = 0usize;
    let mut best_multiplier = 1.0f64;
    for shape in shapes {
        let subject = symmetric::subject(shape, k).expect("known shape");
        let pipeline = armada::Pipeline::from_source(&subject.source).expect("front end");
        let program = lower(pipeline.typed(), "Implementation").expect("lower");

        // Reference: the resident exploration pins the identity expectation.
        let reference = explore(&program, &Bounds::small());
        assert!(
            !reference.truncated,
            "{}: subject must fit the bounds",
            subject.name
        );
        let states = reference.arena.len();
        let transitions = reference.transitions;

        // Footprint: pager enabled, cap unbounded — nothing evicts, and the
        // total encoded bytes of all sealed pages is the arena footprint a
        // mem-cap has to beat.
        let probe = Bounds::small().with_spill(SpillSpec::new(
            u64::MAX,
            scratch.join(format!("{shape}-probe")),
        ));
        let (probed, tel) = explore_with_telemetry(&program, &probe);
        assert_eq!(probed.arena.len(), states);
        let footprint = tel.counters().get("spill.total_bytes");
        assert_eq!(tel.counters().get("spill.evictions"), 0);
        let footprint_gb = footprint as f64 / 1e9;
        println!(
            "  {}: {states} states, {transitions} transitions, {footprint} encoded bytes",
            subject.name
        );

        let resident = bench(&format!("spill/{}/resident", subject.name), samples, || {
            let e = explore(&program, &Bounds::small());
            assert_eq!(e.arena.len(), states);
        })
        .secs_per_iter
        .mean
        .max(1e-9);
        let resident_states_per_gb = states as f64 / footprint_gb.max(1e-12);
        rows.push(Json::obj(vec![
            ("subject", Json::str(subject.name.clone())),
            ("mode", Json::str("resident")),
            ("jobs", Json::int(1)),
            ("states", Json::int(states)),
            ("transitions", Json::int(transitions)),
            ("mean_ms", Json::Num(resident * 1e3)),
            ("footprint_bytes", Json::int(footprint as usize)),
            ("peak_resident_bytes", Json::int(footprint as usize)),
            ("states_per_gb", Json::Num(resident_states_per_gb)),
        ]));

        // Spilled: a quarter of the footprint forces roughly 3/4 of the
        // pages cold at any moment.
        let mem_cap = (footprint / 4).max(1);
        for &jobs in &job_grid {
            let bounds = Bounds::small().with_jobs(jobs).with_spill(SpillSpec::new(
                mem_cap,
                scratch.join(format!("{shape}-j{jobs}")),
            ));
            let mut peak = 0u64;
            let mut evictions = 0u64;
            let mut misses = 0u64;
            let mut corrupt = 0u64;
            let spilled = bench(
                &format!("spill/{}/cap4/jobs={jobs}", subject.name),
                samples,
                || {
                    let (e, tel) = explore_with_telemetry(&program, &bounds);
                    assert_eq!(e.arena.len(), states, "capped run must intern identically");
                    assert_eq!(e.transitions, transitions);
                    peak = tel.counters().get("spill.peak_resident_bytes");
                    evictions = tel.counters().get("spill.evictions");
                    misses = tel.counters().get("spill.misses");
                    corrupt = tel.counters().get("spill.corrupt_rejected");
                },
            )
            .secs_per_iter
            .mean
            .max(1e-9);
            assert!(
                evictions > 0,
                "{}: the cap must force evictions",
                subject.name
            );
            assert_eq!(
                corrupt, 0,
                "{}: clean disk must never reject pages",
                subject.name
            );
            let peak_gb = peak as f64 / 1e9;
            let states_per_gb = states as f64 / peak_gb.max(1e-12);
            let multiplier = states_per_gb / resident_states_per_gb.max(1e-12);
            best_multiplier = best_multiplier.max(multiplier);
            println!(
                "    jobs={jobs}: cap {mem_cap} B, peak {peak} B, {evictions} evictions, \
                 {misses} faults, {:.2e} states/GB ({multiplier:.2}x resident), {:.2}x wall",
                states_per_gb,
                spilled / resident,
            );
            rows.push(Json::obj(vec![
                ("subject", Json::str(subject.name.clone())),
                ("mode", Json::str("spilled")),
                ("jobs", Json::int(jobs)),
                ("states", Json::int(states)),
                ("transitions", Json::int(transitions)),
                ("mean_ms", Json::Num(spilled * 1e3)),
                ("footprint_bytes", Json::int(footprint as usize)),
                ("mem_cap_bytes", Json::int(mem_cap as usize)),
                ("peak_resident_bytes", Json::int(peak as usize)),
                ("evictions", Json::int(evictions as usize)),
                ("page_faults", Json::int(misses as usize)),
                ("states_per_gb", Json::Num(states_per_gb)),
                ("states_per_gb_vs_resident", Json::Num(multiplier)),
                ("wall_ratio_vs_resident", Json::Num(spilled / resident)),
            ]));
        }
        spilled_subjects += 1;
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let config = Json::obj(vec![
        ("k", Json::int(k)),
        (
            "shapes",
            Json::Arr(shapes.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("jobs_grid", Json::str("1,4")),
        ("mem_cap_policy", Json::str("footprint/4")),
        ("samples", Json::int(samples)),
        ("quick", Json::Bool(quick)),
        ("smoke", Json::Bool(smoke)),
    ]);
    let summary = Json::obj(vec![
        ("subjects", Json::int(spilled_subjects)),
        ("best_states_per_gb_multiplier", Json::Num(best_multiplier)),
    ]);
    let doc = report::report("spill", config, rows, summary);
    report::write("spill", &doc);
}
