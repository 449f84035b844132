//! Fixed-seed fault-fuzzing invariant suite over the shipped spec corpus
//! and the case-study models — the tier-1 face of `armada fuzz`.
//!
//! Every test drives `armada::fuzz::run_campaign` with a deterministic
//! seed grid, so failures reproduce from the committed source alone. The
//! campaign checks, per `(subject, seed)` cell: the outcome taxonomy
//! (exit codes 0–4, no escaped panics), the hang budget, the
//! no-corrupt-cert-served store invariant, verdict invariance under
//! recoverable faults, byte-identical renders across jobs ∈ {1, 4}, and —
//! invariant #6 — that every certificate of an exit-0 run carries a
//! witness the independent `armada recheck` checker accepts (structural
//! validation plus semantic replay against the subject source).

use std::path::PathBuf;
use std::time::Duration;

use armada::fault::{FaultEvent, FaultFate, FaultPlan, ALL_FATES};
use armada::fuzz::{run_campaign, FuzzConfig, FuzzSubject, Invariant};
use armada::Pipeline;
use armada_cases::all_cases;

const SPEC_FILES: [&str; 4] = [
    "specs/counter.arm",
    "specs/spinlock.arm",
    "specs/handoff.arm",
    "specs/tracepoint.arm",
];

fn spec_subjects() -> Vec<FuzzSubject> {
    SPEC_FILES
        .iter()
        .map(|rel| {
            let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
            FuzzSubject::from_path(&path).expect("shipped spec readable")
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("armada-fault-fuzz-{tag}-{}", std::process::id()))
}

/// The spec corpus over a fixed seed grid at jobs ∈ {1, 4}: zero invariant
/// violations, and the grid is rich enough to actually exercise faults.
#[test]
fn spec_corpus_fixed_seed_grid_is_clean() {
    let subjects = spec_subjects();
    let config = FuzzConfig {
        seeds: (0..8).collect(),
        jobs: vec![1, 4],
        scratch_root: scratch("specs"),
        ..FuzzConfig::default()
    };
    let report = run_campaign(&subjects, &config);
    assert!(
        report.ok(),
        "violations: {:#?}",
        report
            .violations
            .iter()
            .map(|v| (v.invariant, &v.detail, &v.replay))
            .collect::<Vec<_>>()
    );
    assert!(
        report.total_injected() > 0,
        "grid injected no faults at all"
    );
    assert!(report.runs > subjects.len(), "cells did not run");
    assert!(report.checks > report.runs, "invariants were not evaluated");
}

/// The case-study models (skipping Queue, whose bounded instance is too
/// slow for a grid) under the same invariants.
#[test]
fn case_models_fixed_seed_grid_is_clean() {
    let subjects: Vec<FuzzSubject> = all_cases()
        .into_iter()
        .filter(|case| case.name != "Queue")
        .map(|case| FuzzSubject::new(case.name, case.model_source))
        .collect();
    assert_eq!(subjects.len(), 3);
    let config = FuzzConfig {
        seeds: (0..6).collect(),
        jobs: vec![1, 4],
        scratch_root: scratch("cases"),
        ..FuzzConfig::default()
    };
    let report = run_campaign(&subjects, &config);
    assert!(
        report.ok(),
        "violations: {:#?}",
        report
            .violations
            .iter()
            .map(|v| (v.invariant, &v.detail, &v.replay))
            .collect::<Vec<_>>()
    );
    assert!(report.total_injected() > 0);
}

/// Same command line → byte-identical campaign report (the determinism
/// gate `scripts/verify.sh` diffs on).
#[test]
fn campaign_reports_are_byte_identical_across_reruns() {
    let subjects = vec![spec_subjects().remove(0)];
    let config = FuzzConfig {
        seeds: (0..4).collect(),
        jobs: vec![1, 2],
        scratch_root: scratch("determinism"),
        ..FuzzConfig::default()
    };
    let first = run_campaign(&subjects, &config);
    let second = run_campaign(&subjects, &config);
    assert_eq!(first.to_json(), second.to_json());
    assert!(first.ok());
}

/// `--mutate-bounds` over a small grid: every mutated seed gets a
/// like-for-like baseline of its own, so the campaign stays clean, and the
/// mutation is a pure function of the seed, so reruns are byte-identical.
#[test]
fn mutated_bounds_grid_is_clean_and_byte_identical() {
    let subjects = vec![spec_subjects().remove(0)];
    let config = FuzzConfig {
        seeds: (0..4).collect(),
        jobs: vec![1, 2],
        scratch_root: scratch("mutate-bounds"),
        mutate_bounds: true,
        ..FuzzConfig::default()
    };
    let first = run_campaign(&subjects, &config);
    assert!(
        first.ok(),
        "violations: {:#?}",
        first
            .violations
            .iter()
            .map(|v| (v.invariant, &v.detail, &v.replay))
            .collect::<Vec<_>>()
    );
    assert!(first.to_json().contains("\"mutate_bounds\": true"));
    // Seeds 1–3 each ran their own baseline on top of the unmutated
    // campaign's runs.
    let unmutated = run_campaign(
        &subjects,
        &FuzzConfig {
            mutate_bounds: false,
            scratch_root: scratch("mutate-bounds-off"),
            ..config.clone()
        },
    );
    assert_eq!(first.runs, unmutated.runs + 3);
    let second = run_campaign(&subjects, &config);
    assert_eq!(first.to_json(), second.to_json());
}

/// Mutant refutation: with the store's checksum re-validation disabled
/// (test-only hook), a bit-flipped cert write must surface as a
/// corrupt-cert-served violation, shrunk to a ≤ 3-event plan — proof the
/// fuzzer has teeth. The same plan with validation intact is clean.
#[test]
fn unchecked_loads_mutant_is_caught_and_shrunk() {
    let subject = spec_subjects().remove(0);
    let plan: Vec<FaultEvent> = vec![
        FaultEvent {
            fate: FaultFate::BitFlipCertWrite,
            recipe: "CountIsSequential".to_string(),
        },
        // Two recoverable decoys, so shrinking has something to remove.
        FaultEvent {
            fate: FaultFate::WaveStall,
            recipe: "CountIsSequential".to_string(),
        },
        FaultEvent {
            fate: FaultFate::CancelDelay,
            recipe: "CountIsSequential".to_string(),
        },
    ];
    let mutant = FuzzConfig {
        seeds: vec![0],
        jobs: vec![1],
        scratch_root: scratch("mutant"),
        mutant_unchecked_loads: true,
        plan_override: Some(plan.clone()),
        ..FuzzConfig::default()
    };
    let report = run_campaign(std::slice::from_ref(&subject), &mutant);
    let caught = report
        .violations
        .iter()
        .find(|v| v.invariant == Invariant::CorruptCertServed)
        .unwrap_or_else(|| {
            panic!(
                "mutant not caught; violations: {:#?}",
                report
                    .violations
                    .iter()
                    .map(|v| (v.invariant, &v.detail))
                    .collect::<Vec<_>>()
            )
        });
    assert!(
        caught.shrunk.len() <= 3 && !caught.shrunk.is_empty(),
        "shrunk plan not minimal: {:?}",
        caught.shrunk
    );
    assert!(
        caught
            .shrunk
            .iter()
            .any(|e| e.starts_with("bitflip_cert_write:")),
        "shrinking dropped the culprit: {:?}",
        caught.shrunk
    );
    assert!(
        caught.replay.contains("--events"),
        "replay line must carry the shrunk events: {}",
        caught.replay
    );

    // With checksum re-validation intact, the identical plan is absorbed.
    let healthy = FuzzConfig {
        mutant_unchecked_loads: false,
        scratch_root: scratch("healthy"),
        ..mutant
    };
    let report = run_campaign(&[subject], &healthy);
    assert!(
        report.ok(),
        "healthy store flagged: {:#?}",
        report
            .violations
            .iter()
            .map(|v| (v.invariant, &v.detail))
            .collect::<Vec<_>>()
    );
}

/// Corrupt cert reads damage both regions the dual-flip targets — a
/// counter digit *and* the witness digest — so a loader that validated
/// only one of the two would serve the other corruption. This pins the
/// recovery contract: the read is answered as a miss, the recompute's
/// render is byte-identical to the fault-free baseline (the
/// verdict-invariance check, at jobs ∈ {1, 4}), and every recomputed
/// certificate still passes `armada recheck`.
#[test]
fn corrupt_cert_reads_recover_byte_identical() {
    let subject = spec_subjects().remove(0);
    let plan: Vec<FaultEvent> = vec![FaultEvent {
        fate: FaultFate::CorruptCertRead,
        recipe: "CountIsSequential".to_string(),
    }];
    let config = FuzzConfig {
        seeds: vec![0],
        jobs: vec![1, 4],
        scratch_root: scratch("corrupt-read"),
        plan_override: Some(plan),
        ..FuzzConfig::default()
    };
    let report = run_campaign(&[subject], &config);
    assert!(
        report.ok(),
        "corrupt reads did not recover cleanly: {:#?}",
        report
            .violations
            .iter()
            .map(|v| (v.invariant, &v.detail))
            .collect::<Vec<_>>()
    );
    assert!(report.total_injected() > 0, "plan injected nothing");
}

/// Pure plan generation over the acceptance grid: 64 seeds × the corpus
/// recipe names inject every fate in the taxonomy at least once, and stay
/// order-independent (jobs cannot change the plan).
#[test]
fn seeded_plans_cover_every_fate_over_the_acceptance_grid() {
    let mut names: Vec<String> = Vec::new();
    for subject in spec_subjects() {
        let pipeline = Pipeline::from_source(&subject.source).expect("spec parses");
        names.extend(
            pipeline
                .typed()
                .module
                .recipes
                .iter()
                .map(|r| r.name.clone()),
        );
    }
    for case in all_cases() {
        let pipeline = Pipeline::from_source(case.model_source).expect("model parses");
        names.extend(
            pipeline
                .typed()
                .module
                .recipes
                .iter()
                .map(|r| r.name.clone()),
        );
    }
    assert!(names.len() >= 8, "corpus has {} recipes", names.len());
    let mut counts = vec![0usize; ALL_FATES.len()];
    for seed in 0..64u64 {
        let plan = FaultPlan::seeded(seed, names.iter().map(|n| n.as_str()));
        let mut reversed: Vec<&str> = names.iter().map(|n| n.as_str()).collect();
        reversed.reverse();
        assert_eq!(plan, FaultPlan::seeded(seed, reversed));
        for (i, fate) in ALL_FATES.into_iter().enumerate() {
            counts[i] += plan.count_of(fate);
        }
    }
    for (i, fate) in ALL_FATES.into_iter().enumerate() {
        assert!(
            counts[i] > 0,
            "fate {} never injected over 64 seeds × {} recipes",
            fate.label(),
            names.len()
        );
    }
}

/// Keep the suite honest about its own budget: the grids above must stay
/// inside tier-1 time. This test is a tripwire for someone growing the
/// grids past the budget, not a benchmark.
#[test]
fn hang_budget_default_is_generous() {
    assert!(armada::fuzz::HANG_BUDGET >= Duration::from_secs(10));
}
