//! Fault-tolerance integration tests: panic isolation, graceful budget
//! degradation, and crash-safe certificate resumability — the guarantees
//! the pipeline makes when a *worker* (not a proof) goes wrong. Faults are
//! injected deterministically via [`FaultPlan`], so every assertion here
//! holds byte-identically at any job count.

use armada::verify::store::CertStore;
use armada::verify::SimConfig;
use armada::{CacheDisposition, FaultFate, FaultPlan, Pipeline, RecipeStatus};

const TWO_STEP: &str = r#"
    level Impl {
        var x: uint32;
        void main() { x := 2; print(x); }
    }
    level Mid {
        var x: uint32;
        void main() { x := *; print(x); }
    }
    level Spec {
        var x: uint32;
        ghost var g: int;
        void main() { x := *; g := 1; print(x); }
    }
    proof P1 { refinement Impl Mid nondet_weakening }
    proof P2 { refinement Mid Spec var_intro }
"#;

fn pipeline(jobs: usize) -> Pipeline {
    Pipeline::from_source(TWO_STEP)
        .expect("front end")
        .with_sim_config(SimConfig::default().with_jobs(jobs))
}

/// A scratch cert store rooted in a unique temp directory, cleaned up on
/// drop.
struct ScratchStore {
    store: CertStore,
}

impl ScratchStore {
    fn new(tag: &str) -> ScratchStore {
        let root = std::env::temp_dir().join(format!("armada_fault_tolerance_{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        ScratchStore {
            store: CertStore::open(root),
        }
    }

    fn store(&self) -> CertStore {
        CertStore::open(self.store.root())
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.store.root());
    }
}

#[test]
fn injected_panic_is_isolated_to_its_recipe() {
    let mut rendered = Vec::new();
    for jobs in [1, 4] {
        let report = pipeline(jobs)
            .with_fault_plan(FaultPlan::new().with_fate(FaultFate::StrategyPanic, "P1"))
            .run()
            .expect("panics are outcomes, not errors");
        assert!(!report.verified());
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.outcomes[0].status, RecipeStatus::Crashed);
        assert!(report.outcomes[0].detail.contains("injected fault"));
        // The sibling recipe is untouched by P1's crash.
        assert_eq!(report.outcomes[1].status, RecipeStatus::Verified);
        assert_eq!(report.worst_status(), RecipeStatus::Crashed);
        // The crashed recipe contributes no strategy report or refinement
        // entry; its outcome row carries the record.
        assert_eq!(report.strategy_reports.len(), 1);
        assert_eq!(report.refinements.len(), 1);
        assert!(report.chain.is_none());
        assert!(report.failure_summary().contains("crashed"));
        rendered.push(report.to_string());
    }
    assert_eq!(
        rendered[0], rendered[1],
        "partial report must not depend on jobs"
    );
}

#[test]
fn injected_check_panic_is_isolated_too() {
    let report = pipeline(2)
        .with_fault_plan(FaultPlan::new().with_fate(FaultFate::CheckPanic, "P2"))
        .run()
        .expect("panics are outcomes, not errors");
    assert_eq!(report.outcomes[0].status, RecipeStatus::Verified);
    assert_eq!(report.outcomes[1].status, RecipeStatus::Crashed);
    assert!(report.outcomes[1].detail.contains("semantic check"));
    // P2's strategy ran fine before its check crashed.
    assert_eq!(report.strategy_reports.len(), 2);
    assert_eq!(report.refinements.len(), 1);
}

#[test]
fn injected_budget_exhaustion_degrades_gracefully() {
    let report = pipeline(1)
        .with_fault_plan(FaultPlan::new().with_fate(FaultFate::BudgetExhaustion, "P1"))
        .run()
        .expect("budget exhaustion is an outcome, not an error");
    assert_eq!(report.outcomes[0].status, RecipeStatus::BudgetExhausted);
    assert!(report.outcomes[0].detail.contains("budget"));
    assert_eq!(report.outcomes[1].status, RecipeStatus::Verified);
    assert_eq!(report.worst_status(), RecipeStatus::BudgetExhausted);
    assert!(report.chain.is_none());
}

#[test]
fn seeded_faults_are_identical_across_job_counts() {
    // Whatever a seed injects, the report must be byte-identical at one
    // worker and four.
    for seed in 0..8u64 {
        let plan = FaultPlan::seeded(seed, ["P1", "P2"]);
        let serial = pipeline(1).with_fault_plan(plan.clone()).run().unwrap();
        let parallel = pipeline(4).with_fault_plan(plan).run().unwrap();
        assert_eq!(
            serial.to_string(),
            parallel.to_string(),
            "seed {seed} diverged between jobs=1 and jobs=4"
        );
    }
}

#[test]
fn aborted_run_leaves_a_resumable_store() {
    let scratch = ScratchStore::new("abort_resume");

    // A run killed before recipe index 1: P1 completes (and persists its
    // cert); P2 is reported skipped.
    let aborted = pipeline(2)
        .with_cert_store(scratch.store())
        .with_fault_plan(FaultPlan::new().abort_at(1))
        .run()
        .expect("aborted runs still report");
    assert_eq!(aborted.outcomes[0].status, RecipeStatus::Verified);
    assert_eq!(aborted.outcomes[0].cache, CacheDisposition::Miss);
    assert_eq!(aborted.outcomes[1].status, RecipeStatus::Skipped);
    assert!(aborted.chain.is_none());

    // Rerun without the fault: P1's cert is reused, P2 is computed fresh,
    // and the composed chain matches a run that never used a store.
    let resumed = pipeline(2)
        .with_cert_store(scratch.store())
        .run()
        .expect("resumed run");
    assert!(resumed.verified(), "{}", resumed.failure_summary());
    assert_eq!(
        resumed.cache_hits(),
        1,
        "P1's persisted cert must be reused"
    );
    assert_eq!(resumed.cache_misses(), 1);
    assert_eq!(resumed.outcomes[0].cache, CacheDisposition::Hit);

    let fresh = pipeline(2).run().expect("storeless run");
    assert_eq!(
        format!("{:?}", resumed.chain),
        format!("{:?}", fresh.chain),
        "resumed chain must be byte-identical to an uncached run"
    );
}

#[test]
fn corrupted_cert_falls_back_to_recomputation() {
    let scratch = ScratchStore::new("corruption");

    let first = pipeline(1)
        .with_cert_store(scratch.store())
        .run()
        .expect("first run");
    assert!(first.verified());
    assert_eq!(first.cache_misses(), 2);

    // Flip one byte in every stored record.
    let mut flipped = 0;
    for entry in std::fs::read_dir(scratch.store.root()).expect("store populated") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|ext| ext != "cert") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("read cert");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, bytes).expect("write corrupted cert");
        flipped += 1;
    }
    assert_eq!(flipped, 2, "both recipes must have persisted certs");

    // The corrupted records are silently ignored: everything recomputes,
    // and the final result is unchanged.
    let second = pipeline(1)
        .with_cert_store(scratch.store())
        .run()
        .expect("second run");
    assert!(second.verified());
    assert_eq!(second.cache_hits(), 0, "corrupted certs must not hit");
    assert_eq!(second.cache_misses(), 2);
    assert_eq!(format!("{:?}", second.chain), format!("{:?}", first.chain));

    // The recomputation re-persisted valid records: a third run hits.
    let third = pipeline(1)
        .with_cert_store(scratch.store())
        .run()
        .expect("third run");
    assert_eq!(third.cache_hits(), 2);
}

#[test]
fn deadline_overshoot_is_bounded_even_mid_wave() {
    use std::time::{Duration, Instant};

    // Three threads of nondeterministic TSO writes: the frontier widens
    // into waves of thousands of states, and the full space takes far
    // longer than the deadline to exhaust. The engine used to check the
    // deadline only at wave boundaries, so one wide wave could overshoot
    // the budget by its whole processing time; the commit stage now
    // re-checks every `DEADLINE_CHECK_EDGES` committed edges, so the
    // overshoot is bounded by a constant amount of work regardless of
    // wave width.
    const WIDE: &str = r#"level L {
        var a: uint32;
        var b: uint32;
        var c: uint32;
        void w1() { a := *; a := *; }
        void w2() { b := *; b := *; }
        void w3() { c := *; c := *; }
        void main() {
            var t1: uint64 := create_thread w1();
            var t2: uint64 := create_thread w2();
            var t3: uint64 := create_thread w3();
            join t1;
            join t2;
            join t3;
        }
    }"#;
    let module = armada::lang::parse_module(WIDE).expect("parse");
    let typed = armada::lang::check_module(&module).expect("check");
    let program = armada::sm::lower(&typed, "L").expect("lower");

    // At `jobs > 1` a wide wave is expanded a bounded group of chunks at a
    // time ahead of commit, so the group bound caps the overshoot there.
    let deadline = Duration::from_millis(50);
    for jobs in [1, 2] {
        let bounds = armada::sm::Bounds::small()
            .with_jobs(jobs)
            .with_deadline(deadline);
        let started = Instant::now();
        let exploration = armada::sm::explore(&program, &bounds);
        let elapsed = started.elapsed();
        assert!(
            exploration.truncated,
            "jobs={jobs}: the deadline must cut this exploration short \
             ({} states reached)",
            exploration.arena.len()
        );
        // Generous margin for a loaded CI machine: the point is that the
        // overshoot no longer scales with wave width (the full space takes
        // many times this long to exhaust).
        let margin = Duration::from_secs(2);
        assert!(
            elapsed < deadline + margin,
            "jobs={jobs}: deadline {deadline:?} overshot to {elapsed:?} (bound {:?})",
            deadline + margin
        );
    }
}

#[test]
fn structured_errors_keep_front_end_diagnostics() {
    // A type error is a structured `PipelineError` with a span, not a bare
    // string; its rendering still matches the front end's own diagnostic.
    let err = Pipeline::from_source("level A { void main() { x := 1; } }")
        .expect_err("unknown variable is a front-end error");
    assert!(err.recipe().is_none());
    assert!(err.span().line >= 1);
    // The legacy bridge renders identically, so stringly callers see the
    // same messages as before.
    let legacy: String = err.clone().into();
    assert_eq!(legacy, err.to_string());
}
