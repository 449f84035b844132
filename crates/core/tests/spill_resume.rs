//! Pipeline-level identity gates for the spill pager and wave-boundary
//! checkpoints: a memory-capped run and a killed-then-resumed run must
//! both render byte-identically to a plain uninterrupted run, at any job
//! count. These are the end-to-end versions of the engine-level gates in
//! `armada-sm` and `armada-verify` — they additionally cross the
//! per-recipe checkpoint-scoping and report-assembly layers.

use std::path::PathBuf;
use std::time::Duration;

use armada::sm::SpillSpec;
use armada::verify::{CheckpointSpec, SimConfig};
use armada::{Pipeline, RecipeStatus};

fn subject() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/counter.arm");
    std::fs::read_to_string(path).expect("read specs/counter.arm")
}

fn tmp(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("armada-spill-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(source: &str, sim: SimConfig) -> String {
    let pipeline = Pipeline::from_source(source)
        .expect("subject parses")
        .with_sim_config(sim);
    pipeline.run().expect("no infrastructure error").to_string()
}

#[test]
fn spilled_pipeline_render_matches_resident_at_many_job_counts() {
    let source = subject();
    let plain = run(&source, SimConfig::default());
    for jobs in [1usize, 4] {
        let dir = tmp(&format!("spill-{jobs}"));
        let mut sim = SimConfig::default().with_jobs(jobs);
        // A 1-byte cap forces every sealed page out: the whole search runs
        // through the pager's evict/fault path.
        sim.bounds = sim.bounds.with_spill(SpillSpec::new(1, dir.clone()));
        let spilled = run(&source, sim);
        assert_eq!(plain, spilled, "jobs={jobs}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn deadline_killed_pipeline_resumes_to_identical_report() {
    let source = subject();
    let plain = run(&source, SimConfig::default());
    for jobs in [1usize, 4] {
        let dir = tmp(&format!("ck-{jobs}"));

        // Kill: a zero deadline cuts the check at its first wave boundary,
        // leaving a checkpoint behind.
        let mut cut_sim = SimConfig::default()
            .with_jobs(jobs)
            .with_checkpoint(CheckpointSpec::new(dir.clone()));
        cut_sim.bounds = cut_sim.bounds.with_deadline(Duration::ZERO);
        let pipeline = Pipeline::from_source(&source)
            .expect("subject parses")
            .with_sim_config(cut_sim);
        let cut = pipeline.run().expect("no infrastructure error");
        assert_eq!(
            cut.worst_status(),
            RecipeStatus::BudgetExhausted,
            "jobs={jobs}: the zero deadline must cut the check"
        );

        // Resume: same module and bounds, deadline lifted.
        let resume_sim = SimConfig::default()
            .with_jobs(jobs)
            .with_checkpoint(CheckpointSpec::new(dir.clone()).with_resume(true));
        let resumed = run(&source, resume_sim);
        assert_eq!(plain, resumed, "jobs={jobs}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn spill_checkpoint_and_resume_compose() {
    // Both knobs at once: cut a memory-capped run, resume it memory-capped.
    let source = subject();
    let plain = run(&source, SimConfig::default());
    let ck = tmp("both-ck");
    let spill = tmp("both-spill");

    let mut cut_sim = SimConfig::default().with_checkpoint(CheckpointSpec::new(ck.clone()));
    cut_sim.bounds = cut_sim
        .bounds
        .with_deadline(Duration::ZERO)
        .with_spill(SpillSpec::new(1, spill.clone()));
    let pipeline = Pipeline::from_source(&source)
        .expect("subject parses")
        .with_sim_config(cut_sim);
    let cut = pipeline.run().expect("no infrastructure error");
    assert_eq!(cut.worst_status(), RecipeStatus::BudgetExhausted);

    let mut resume_sim =
        SimConfig::default().with_checkpoint(CheckpointSpec::new(ck.clone()).with_resume(true));
    resume_sim.bounds = resume_sim
        .bounds
        .with_spill(SpillSpec::new(1, spill.clone()));
    let resumed = run(&source, resume_sim);
    assert_eq!(plain, resumed);
    let _ = std::fs::remove_dir_all(&ck);
    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn a_base_checkpoint_dir_holds_only_per_recipe_dirs() {
    // Only the refinement check checkpoints, each recipe into its own
    // `ck-*` subdirectory of the base; the strategy stage writes nothing
    // there, at any job count.
    let source = subject();
    for jobs in [1usize, 2] {
        let dir = tmp(&format!("base-{jobs}"));
        let mut sim = SimConfig::default()
            .with_jobs(jobs)
            .with_checkpoint(CheckpointSpec::new(dir.clone()));
        sim.bounds = sim.bounds.with_deadline(Duration::ZERO);
        let pipeline = Pipeline::from_source(&source)
            .expect("subject parses")
            .with_sim_config(sim);
        let cut = pipeline.run().expect("no infrastructure error");
        assert_eq!(
            cut.worst_status(),
            RecipeStatus::BudgetExhausted,
            "jobs={jobs}"
        );
        let mut entries: Vec<String> = std::fs::read_dir(&dir)
            .expect("the cut leaves checkpoints behind")
            .map(|entry| {
                entry
                    .expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        entries.sort();
        assert!(!entries.is_empty(), "jobs={jobs}");
        assert!(
            entries.iter().all(|name| name.starts_with("ck-")),
            "jobs={jobs}: {entries:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_definitive_verdict_removes_its_recipe_checkpoint_dir() {
    // The cut leaves one `ck-*` dir per recipe; the resumed run reaches a
    // verdict and removes its dir with the files in it, so the base ends
    // empty instead of collecting an empty `ck-*` dir per recipe.
    let source = subject();
    let dir = tmp("finish");
    let checkpointed = |resume: bool| {
        SimConfig::default().with_checkpoint(CheckpointSpec::new(dir.clone()).with_resume(resume))
    };
    let mut cut = checkpointed(false);
    cut.bounds = cut.bounds.with_deadline(Duration::ZERO);
    let pipeline = Pipeline::from_source(&source).expect("subject parses");
    let cut = pipeline.with_sim_config(cut).run().expect("cut run");
    assert_eq!(cut.worst_status(), RecipeStatus::BudgetExhausted);
    let listing = || -> Vec<String> {
        std::fs::read_dir(&dir)
            .expect("the base dir stays")
            .map(|entry| {
                entry
                    .expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect()
    };
    assert!(!listing().is_empty(), "the cut leaves checkpoints behind");
    let resumed = Pipeline::from_source(&source)
        .expect("subject parses")
        .with_sim_config(checkpointed(true))
        .run()
        .expect("resumed run");
    assert!(resumed.verified(), "{}", resumed.failure_summary());
    assert_eq!(listing(), Vec::<String>::new());
    let _ = std::fs::remove_dir_all(&dir);
}
