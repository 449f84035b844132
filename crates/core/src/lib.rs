//! # armada
//!
//! A from-scratch Rust reproduction of *“Armada: Low-Effort Verification of
//! High-Performance Concurrent Programs”* (Lorch et al., PLDI 2020).
//!
//! This crate is the tool facade (Figure 1 of the paper): given a source
//! file containing an implementation level, a series of intermediate
//! levels, a specification level, and `proof` recipes connecting adjacent
//! pairs, [`Pipeline::run`] —
//!
//! 1. parses and type-checks the module (`armada-lang`);
//! 2. checks the implementation level against the compilable *core* subset;
//! 3. runs each recipe's **strategy** (`armada-strategies`), generating and
//!    discharging the refinement proof obligations;
//! 4. independently re-validates each adjacent pair with the **bounded
//!    refinement model checker** (`armada-verify`), every interleaving and
//!    store-buffer schedule of the bounded instance;
//! 5. composes the per-pair certificates by transitivity into the
//!    end-to-end claim `Implementation ⊑ Specification`.
//!
//! Effort metrics mirroring the paper's evaluation (§6: program SLOC,
//! recipe SLOC, customization SLOC, generated proof SLOC) are available via
//! [`EffortReport`].
//!
//! # Fault tolerance
//!
//! The tool's value is that it composes many per-level-pair proofs into one
//! refinement chain, so a single failing link must degrade into a precise
//! partial result, never a lost run:
//!
//! * **Panic isolation.** Each recipe's strategy and semantic check run
//!   under `catch_unwind`; a panicking worker marks *that recipe* crashed
//!   in the [`PipelineReport`]'s per-recipe [`RecipeReport`] outcomes while
//!   every other recipe completes, identically at any job count.
//! * **Budget degradation.** Node budgets ([`SimConfig::max_nodes`]) and
//!   wall-clock deadlines ([`sm::Bounds::deadline`]) are enforced
//!   cooperatively at wave boundaries; exhaustion yields a reported
//!   budget-exhausted outcome, not a hang, and the pipeline continues with
//!   the remaining recipes.
//! * **Crash-safe resumability.** With [`Pipeline::with_cert_store`] (or
//!   the `ARMADA_CERT_CACHE` environment variable when no store was
//!   configured programmatically), each verified pair's certificate is
//!   persisted content-addressed (atomic rename + checksum, see
//!   [`verify::store`]); an interrupted run's completed certs are reused on
//!   rerun, and a corrupted record silently falls back to recomputation.
//! * **Spill and resume.** Each semantic check can run its state arenas
//!   under a memory cap ([`sm::SpillSpec`]), paging cold shards to disk
//!   behind checksums, and can checkpoint its product-search frontier at
//!   wave boundaries ([`verify::CheckpointSpec`]) so an interrupted check
//!   resumes instead of restarting; both knobs change how a check runs,
//!   never what it concludes. Only the semantic check checkpoints: the
//!   strategy stage always runs cold.
//! * **Deterministic fault injection.** [`FaultPlan`] drives all of the
//!   above in tests: injected panics, forced budget exhaustion, simulated
//!   mid-run kills, torn/bit-flipped cert writes, corrupt cert reads,
//!   wave-boundary stalls, delayed cancels, worker-slot aborts, deadline
//!   jitter, torn checkpoint writes, and corrupt spill-page reads — all
//!   reproducible from a seed (see [`fault::FaultFate`]). The [`fuzz`]
//!   module sweeps seed grids over these faults and checks campaign-level
//!   invariants.
//!
//! # Example
//!
//! ```
//! use armada::Pipeline;
//!
//! let source = r#"
//!     level Impl {
//!         var x: uint32;
//!         void main() { x := 2; print(x); }
//!     }
//!     level Spec {
//!         var x: uint32;
//!         void main() { x := *; print(x); }
//!     }
//!     proof P { refinement Impl Spec nondet_weakening }
//! "#;
//! let pipeline = Pipeline::from_source(source).unwrap();
//! let report = pipeline.run().unwrap();
//! assert!(report.verified());
//! assert_eq!(report.chain_claim().unwrap(), "Impl ⊑ Spec");
//! ```

pub mod error;
pub mod fault;
pub mod fuzz;
pub mod proto;
pub mod serve;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use armada_backend as backend;
pub use armada_lang as lang;
pub use armada_proof as proof;
pub use armada_recheck as recheck;
pub use armada_regions as regions;
pub use armada_sm as sm;
pub use armada_strategies as strategies;
pub use armada_verify as verify;

pub use error::PipelineError;
pub use fault::{FaultFate, FaultPlan};

use armada_lang::ast::Recipe;
use armada_lang::typeck::TypedModule;
use armada_lang::{check_module, count_sloc, parse_module};
use armada_proof::relation::StandardRelation;
use armada_proof::StrategyReport;
use armada_runtime::StageTelemetry;
use armada_verify::store::{CertKey, CertStore, ReadFault, WriteFault};
use armada_verify::tier::TieredStore;
use armada_verify::{
    check_refinement, check_refinement_with_telemetry, CheckpointSpec, RefinementCert,
    RefinementChain, SimConfig,
};

/// What one recipe contributed to the report: a crashed or skipped recipe
/// contributes only its outcome row.
struct RecipeRun {
    strategy_report: Option<StrategyReport>,
    refinement: Option<Result<RefinementCert, String>>,
    chain_cert: Option<RefinementCert>,
    outcome: RecipeReport,
}

/// Renders a caught panic payload for an outcome row.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A configured verification pipeline for one Armada module.
#[derive(Debug)]
pub struct Pipeline {
    source: String,
    typed: TypedModule,
    sim: SimConfig,
    /// Run the bounded refinement model checker in addition to the
    /// strategies (on by default; heavy case studies may disable it for the
    /// strategy-only effort accounting).
    pub semantic_check: bool,
    /// Persist/reuse refinement certificates, when configured. A plain
    /// disk store (`with_cert_store`) and a memory→disk hierarchy
    /// (`with_tiered_store`, the serve daemon's configuration) are the
    /// same thing here: a [`TieredStore`] with zero or one memory tiers.
    cert_store: Option<TieredStore>,
    /// Deterministic fault injection (empty by default; tests only).
    fault: FaultPlan,
    /// Collect per-stage pipeline histograms during semantic checks (off
    /// by default; diagnostics only — never changes results).
    telemetry: bool,
    /// Self-recheck warm cert-cache hits (`--recheck`): replay the cached
    /// witness against the spec semantics via `armada-recheck` before
    /// trusting it; a hit whose witness fails is demoted to a miss and
    /// recomputed. Off by default — the store already validates witnesses
    /// structurally on every load.
    recheck: bool,
}

/// Outcome class of one recipe in a [`PipelineReport`]. One run produces
/// one status per recipe; a failing recipe never poisons its siblings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecipeStatus {
    /// Strategy obligations proved and (if run) the semantic check produced
    /// a certificate.
    Verified,
    /// A proof obligation failed or the checker found a real
    /// counterexample: the refinement claim is refuted on this instance.
    Refuted,
    /// The semantic check ran out of node budget or wall-clock deadline:
    /// the claim is unknown, reported with the frontier where the search
    /// stopped.
    BudgetExhausted,
    /// A worker panicked inside this recipe's strategy or semantic check;
    /// the panic was isolated to this recipe.
    Crashed,
    /// Never ran: the pipeline aborted before reaching this recipe.
    Skipped,
}

impl RecipeStatus {
    /// Lower-case human label (also the CLI's vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            RecipeStatus::Verified => "verified",
            RecipeStatus::Refuted => "refuted",
            RecipeStatus::BudgetExhausted => "budget exhausted",
            RecipeStatus::Crashed => "crashed",
            RecipeStatus::Skipped => "skipped",
        }
    }

    /// The CLI exit code for a run whose worst outcome is this status:
    /// 0 verified, 1 refuted, 3 budget exhausted or skipped, 4 crashed
    /// (2 is reserved for usage/IO errors). The fuzzer's taxonomy
    /// invariant pins every run to this 0–4 vocabulary.
    pub fn exit_code(self) -> u8 {
        match self {
            RecipeStatus::Verified => 0,
            RecipeStatus::Refuted => 1,
            RecipeStatus::BudgetExhausted | RecipeStatus::Skipped => 3,
            RecipeStatus::Crashed => 4,
        }
    }
}

/// How a recipe's certificate was obtained, when a cert store is
/// configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// No cert store configured (or the semantic check did not run).
    Disabled,
    /// A checksum-valid stored certificate was reused; the check was
    /// skipped.
    Hit,
    /// No usable stored certificate; the check ran (and its result was
    /// persisted on success).
    Miss,
}

/// One recipe's outcome row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecipeReport {
    /// Recipe name.
    pub recipe: String,
    /// The lower (more concrete) level.
    pub low: String,
    /// The higher (more abstract) level.
    pub high: String,
    /// Outcome class.
    pub status: RecipeStatus,
    /// Human-readable detail: certificate statistics, the failure's first
    /// lines, or the isolated panic message.
    pub detail: String,
    /// Cert-store disposition for this recipe.
    pub cache: CacheDisposition,
    /// Per-stage pipeline histograms from this recipe's semantic check,
    /// when telemetry was requested and the check actually ran (a cache
    /// hit or a strategy-only run records nothing). The values are
    /// wall-clock and nondeterministic, so they are deliberately excluded
    /// from `Display` (the CLI renders them to stderr) and never hashed
    /// into a [`CertKey`].
    pub telemetry: Option<StageTelemetry>,
}

impl fmt::Display for RecipeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recipe {}: {}", self.recipe, self.status.label())?;
        match self.cache {
            CacheDisposition::Hit => write!(f, " (cert cache hit)")?,
            CacheDisposition::Miss => write!(f, " (cert cache miss)")?,
            CacheDisposition::Disabled => {}
        }
        let first_line = self.detail.lines().next().unwrap_or("");
        if !first_line.is_empty() {
            write!(f, " — {first_line}")?;
        }
        Ok(())
    }
}

/// Everything `Pipeline::run` produces.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Per-recipe strategy reports (obligations + verdicts + generated
    /// proof text), for every recipe whose strategy actually ran.
    pub strategy_reports: Vec<StrategyReport>,
    /// Per-recipe bounded refinement results (empty when `semantic_check`
    /// is off); a crashed or skipped recipe contributes no entry.
    pub refinements: Vec<Result<RefinementCert, String>>,
    /// One outcome row per recipe, in declaration order — present for
    /// every recipe, including crashed and skipped ones.
    pub outcomes: Vec<RecipeReport>,
    /// The transitively composed chain, when every pair verified.
    pub chain: Option<RefinementChain>,
    /// Cert-store records that were present but failed validation during
    /// this run (and were silently recomputed). Zero when no store was
    /// configured. Diagnostic only — excluded from `Display`, surfaced by
    /// the CLI as a one-line stderr warning under `--telemetry` so tier-2
    /// corruption is observable instead of invisible.
    pub corrupt_loads: u64,
}

impl PipelineReport {
    /// True when every obligation of every recipe was proved and (if run)
    /// every semantic check passed — i.e. every recipe's outcome is
    /// [`RecipeStatus::Verified`].
    pub fn verified(&self) -> bool {
        self.strategy_reports.iter().all(|r| r.success())
            && self.refinements.iter().all(|r| r.is_ok())
            && self
                .outcomes
                .iter()
                .all(|o| o.status == RecipeStatus::Verified)
    }

    /// The most severe outcome class across recipes (`Verified` when all
    /// verified). Severity: crashed > skipped > budget-exhausted > refuted.
    pub fn worst_status(&self) -> RecipeStatus {
        let severity = |status: RecipeStatus| match status {
            RecipeStatus::Crashed => 4,
            RecipeStatus::Skipped => 3,
            RecipeStatus::BudgetExhausted => 2,
            RecipeStatus::Refuted => 1,
            RecipeStatus::Verified => 0,
        };
        self.outcomes
            .iter()
            .map(|o| o.status)
            .max_by_key(|&s| severity(s))
            .unwrap_or(RecipeStatus::Verified)
    }

    /// Recipes whose certificate came from the cert store.
    pub fn cache_hits(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.cache == CacheDisposition::Hit)
            .count()
    }

    /// Recipes whose semantic check ran because no stored certificate was
    /// usable.
    pub fn cache_misses(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.cache == CacheDisposition::Miss)
            .count()
    }

    /// The end-to-end refinement claim, e.g. `Implementation ⊑ Spec`.
    pub fn chain_claim(&self) -> Option<String> {
        self.chain.as_ref().map(|c| c.claim())
    }

    /// A combined digest over every certificate witness this run produced
    /// or served, in recipe order — what `armada serve` attaches to
    /// `result` frames so a client can tie a verdict to the exact
    /// witnesses behind it (and audit them via `armada recheck`). `None`
    /// when the run yielded no certificates.
    pub fn witness_digest(&self) -> Option<String> {
        let mut h = armada_recheck::WordDigest::new();
        let mut any = false;
        for cert in self.refinements.iter().filter_map(|r| r.as_ref().ok()) {
            h.u64(cert.witness.digest);
            any = true;
        }
        any.then(|| format!("{:016x}", h.finish()))
    }

    /// Total generated proof SLOC across all recipes.
    pub fn generated_sloc(&self) -> usize {
        self.strategy_reports
            .iter()
            .map(|r| r.generated_sloc())
            .sum()
    }

    /// A human-readable failure summary (empty when verified).
    pub fn failure_summary(&self) -> String {
        let mut out = String::new();
        for report in &self.strategy_reports {
            if !report.success() {
                out.push_str(&format!(
                    "recipe {}:\n{}",
                    report.recipe,
                    report.failure_summary()
                ));
            }
        }
        for (index, refinement) in self.refinements.iter().enumerate() {
            if let Err(reason) = refinement {
                out.push_str(&format!("semantic check {index}: {reason}\n"));
            }
        }
        // Crashed and skipped recipes have no strategy report or refinement
        // entry; their outcome row is the only record of what happened.
        for outcome in &self.outcomes {
            if matches!(
                outcome.status,
                RecipeStatus::Crashed | RecipeStatus::Skipped
            ) {
                out.push_str(&format!(
                    "recipe {}: {}: {}\n",
                    outcome.recipe,
                    outcome.status.label(),
                    outcome.detail
                ));
            }
        }
        out
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for report in &self.strategy_reports {
            write!(f, "{report}")?;
        }
        for outcome in &self.outcomes {
            writeln!(f, "{outcome}")?;
        }
        match (&self.chain, self.verified()) {
            (Some(chain), true) => writeln!(f, "VERIFIED: {}", chain.claim()),
            _ => writeln!(f, "NOT VERIFIED\n{}", self.failure_summary()),
        }
    }
}

impl Pipeline {
    /// Parses and type-checks `source`.
    ///
    /// # Errors
    ///
    /// Returns the front end's first diagnostic, span included.
    pub fn from_source(source: &str) -> Result<Pipeline, PipelineError> {
        let module = parse_module(source)?;
        let typed = check_module(&module)?;
        Ok(Pipeline {
            source: source.to_string(),
            typed,
            sim: SimConfig::default(),
            semantic_check: true,
            cert_store: None,
            fault: FaultPlan::default(),
            telemetry: false,
            recheck: false,
        })
    }

    /// Replays every warm cert-cache hit's witness against the spec
    /// semantics before serving it (the CLI's `--recheck`). A failing
    /// witness demotes the hit to a miss and the check reruns; verdicts
    /// are unchanged either way.
    pub fn with_recheck(mut self, recheck: bool) -> Pipeline {
        self.recheck = recheck;
        self
    }

    /// Collects per-stage latency/occupancy histograms during each
    /// recipe's semantic check (see [`RecipeReport::telemetry`]). Purely
    /// diagnostic: verdicts, certificates, and the report's rendering are
    /// byte-identical with telemetry on or off.
    pub fn with_telemetry(mut self, telemetry: bool) -> Pipeline {
        self.telemetry = telemetry;
        self
    }

    /// Overrides the bounds used by model-checked discharges and semantic
    /// checks.
    pub fn with_sim_config(mut self, sim: SimConfig) -> Pipeline {
        self.sim = sim;
        self
    }

    /// Persists refinement certificates to `store` and reuses
    /// checksum-valid entries on subsequent runs (see [`verify::store`]).
    pub fn with_cert_store(mut self, store: CertStore) -> Pipeline {
        self.cert_store = Some(TieredStore::disk(store));
        self
    }

    /// Uses a full cache hierarchy — typically a shared in-memory tier in
    /// front of a disk store (see [`verify::tier`]); the serve daemon
    /// passes one hierarchy to every request's pipeline.
    pub fn with_tiered_store(mut self, store: TieredStore) -> Pipeline {
        self.cert_store = Some(store);
        self
    }

    /// The cert store this run will use: the explicitly configured one, or
    /// — when none was configured — the `ARMADA_CERT_CACHE` environment
    /// variable (a directory path; an empty value selects the conventional
    /// `target/armada-certs/`). Returns `None` when caching is off.
    fn resolved_cert_store(&self) -> Option<TieredStore> {
        if let Some(store) = &self.cert_store {
            return Some(store.clone());
        }
        let dir = std::env::var_os("ARMADA_CERT_CACHE")?;
        if dir.is_empty() {
            Some(TieredStore::disk(
                CertStore::open(CertStore::default_root()),
            ))
        } else {
            Some(TieredStore::disk(CertStore::open(
                std::path::PathBuf::from(dir),
            )))
        }
    }

    /// Injects the given faults while running (robustness tests only).
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Pipeline {
        self.fault = fault;
        self
    }

    /// The type-checked module.
    pub fn typed(&self) -> &TypedModule {
        &self.typed
    }

    /// The level chain implied by the recipes: implementation first.
    ///
    /// # Errors
    ///
    /// Returns a message if the recipes do not form a single chain.
    pub fn level_chain(&self) -> Result<Vec<String>, String> {
        let recipes = &self.typed.module.recipes;
        if recipes.is_empty() {
            return Err("module has no proof recipes".to_string());
        }
        // The implementation appears as a `low` but never as a `high`.
        let start = recipes
            .iter()
            .map(|r| r.low.clone())
            .find(|low| recipes.iter().all(|r| r.high != *low))
            .ok_or_else(|| "recipes form a cycle".to_string())?;
        let mut chain = vec![start];
        loop {
            let current = chain.last().expect("nonempty");
            match recipes.iter().find(|r| r.low == *current) {
                Some(recipe) => {
                    if chain.contains(&recipe.high) {
                        return Err("recipes form a cycle".to_string());
                    }
                    chain.push(recipe.high.clone());
                }
                None => break,
            }
        }
        Ok(chain)
    }

    /// Checks that the implementation level (the chain's first level) is in
    /// compilable core Armada.
    ///
    /// # Errors
    ///
    /// Returns the core checker's first diagnostic.
    pub fn check_core(&self) -> Result<(), String> {
        let chain = self.level_chain()?;
        let name = &chain[0];
        let level = self
            .typed
            .module
            .level(name)
            .ok_or_else(|| format!("unknown level `{name}`"))?;
        let info = self
            .typed
            .level_info(name)
            .ok_or_else(|| format!("level `{name}` not checked"))?;
        armada_lang::core_check::check_core(level, info).map_err(|e| e.to_string())
    }

    /// Runs one recipe end to end: strategy stage, then (when enabled) the
    /// cert-store lookup and bounded semantic check. Both stages run under
    /// `catch_unwind`, so a panicking worker yields a `Crashed` outcome for
    /// this recipe instead of unwinding through the pool.
    fn run_recipe(
        &self,
        index: usize,
        recipe: &Recipe,
        relation: &StandardRelation,
        cert_store: Option<&TieredStore>,
    ) -> Result<RecipeRun, PipelineError> {
        let outcome =
            |status: RecipeStatus, detail: String, cache: CacheDisposition| RecipeReport {
                recipe: recipe.name.clone(),
                low: recipe.low.clone(),
                high: recipe.high.clone(),
                status,
                detail,
                cache,
                telemetry: None,
            };
        let recipe_err = |message: String| PipelineError::Recipe {
            recipe: recipe.name.clone(),
            span: recipe.span,
            message,
        };
        if self.fault.skips(index) {
            return Ok(RecipeRun {
                strategy_report: None,
                refinement: None,
                chain_cert: None,
                outcome: outcome(
                    RecipeStatus::Skipped,
                    "not run: pipeline aborted before this recipe (fault plan)".to_string(),
                    CacheDisposition::Disabled,
                ),
            });
        }

        // Stage 1: the strategy, panic-isolated.
        let strategy = catch_unwind(AssertUnwindSafe(|| {
            if self.fault.has(FaultFate::StrategyPanic, &recipe.name) {
                panic!("injected fault: strategy panic in recipe `{}`", recipe.name);
            }
            // Only the semantic check below checkpoints: the strategy
            // stage (combining's inner check included) always runs cold.
            let sim = SimConfig {
                checkpoint: None,
                ..self.sim.clone()
            };
            let ctx = armada_strategies::StrategyCtx::build(&self.typed, recipe, sim)?;
            let report = armada_strategies::run(&ctx);
            Ok((report, ctx.into_programs()))
        }));
        let (report, (low, high)) = match strategy {
            Err(payload) => {
                return Ok(RecipeRun {
                    strategy_report: None,
                    refinement: None,
                    chain_cert: None,
                    outcome: outcome(
                        RecipeStatus::Crashed,
                        format!("panic in strategy stage: {}", panic_text(&*payload)),
                        CacheDisposition::Disabled,
                    ),
                });
            }
            Ok(Err(message)) => return Err(recipe_err(message)),
            Ok(Ok(run)) => run,
        };
        let strategy_ok = report.success();

        // What the semantic check reads of the module: both levels as the
        // strategy stage lowered them and the relation, spans excluded. The
        // cert key, the witness subject and the strategy-only placeholder
        // all cover exactly this, so an edit outside it (a comment, another
        // level) is answered from the store. The strategy verdict is never
        // cached: it reruns above.
        let content = sm::pair_content(&low, &high, relation.kind());
        let subject = armada_recheck::subject_digest(&content, &recipe.low, &recipe.high);

        if !self.semantic_check {
            let (status, detail, chain_cert) = if strategy_ok {
                (
                    RecipeStatus::Verified,
                    format!(
                        "{} obligations proved (semantic check off)",
                        report.obligations.len()
                    ),
                    // Placeholder cert so the chain still composes in
                    // strategy-only mode. Its witness is the sealed empty
                    // one (attests nothing; consistent with zero product
                    // nodes), bound to this subject like any real cert.
                    Some(RefinementCert {
                        low: recipe.low.clone(),
                        high: recipe.high.clone(),
                        product_nodes: 0,
                        low_transitions: 0,
                        witness: {
                            let mut w = armada_recheck::Witness::empty();
                            w.bind_subject(subject);
                            w
                        },
                    }),
                )
            } else {
                (RecipeStatus::Refuted, report.failure_summary(), None)
            };
            return Ok(RecipeRun {
                strategy_report: Some(report),
                refinement: None,
                chain_cert,
                outcome: outcome(status, detail, CacheDisposition::Disabled),
            });
        }

        // Stage 2: the bounded semantic check, behind the cert store.
        let mut sim = self.sim.clone();
        // A configured checkpoint dir is a *base*: recipes run concurrently,
        // so each one checkpoints into its own content-named subdirectory
        // (stable across runs, which is what makes `--resume` find it).
        if let Some(spec) = &mut sim.checkpoint {
            spec.dir = spec.dir.join(format!(
                "ck-{:016x}",
                armada_runtime::hash::fnv1a_64(recipe.name.as_bytes())
            ));
        }
        if self.fault.has(FaultFate::BudgetExhaustion, &recipe.name) {
            // Clamp the budget so exhaustion is certain on any nontrivial
            // product (one node is never enough to finish a check).
            sim.max_nodes = 1;
        }
        // Recoverable check faults: `CheckFaults` is not part of the cert
        // key (stalls and cancel delays never change the verdict), so a
        // stalled run and a clean run share certificates.
        if self.fault.has(FaultFate::WaveStall, &recipe.name) {
            sim.faults.wave_stall_micros = 200;
        }
        if self.fault.has(FaultFate::CancelDelay, &recipe.name) {
            sim.faults.cancel_delay_waves = 3;
        }
        if self.fault.has(FaultFate::WorkerAbort, &recipe.name) {
            sim.faults.abort_slot = Some((0, 0));
        }
        if self.fault.has(FaultFate::DeadlineJitter, &recipe.name) {
            // Adverse jitter: the deadline collapses to zero, so the check
            // must degrade into a budget outcome at the first wave
            // boundary instead of hanging.
            sim.bounds = sim.bounds.with_deadline(std::time::Duration::ZERO);
        }
        if self.fault.has(FaultFate::CorruptSpillRead, &recipe.name) {
            // A bad sector under the spill dir: the first cold-page fault
            // reads flipped bytes. The page checksum must reject them and
            // the re-read serve the true bytes — a corrupt page is never
            // decoded into states, so the verdict cannot change.
            let dir = std::env::temp_dir().join(format!(
                "armada-fault-spill-{}-{:016x}",
                std::process::id(),
                armada_runtime::hash::fnv1a_64(recipe.name.as_bytes())
            ));
            let mut spec = sm::SpillSpec::new(1, dir);
            spec.page_states = 2;
            spec.corrupt_first_read = true;
            sim.bounds = sim.bounds.with_spill(spec);
        }
        // Cert-store corruption faults are scoped to this recipe through a
        // shimmed clone of the store; sibling recipes keep clean IO.
        let store_view = cert_store.map(|store| {
            let mut shim = store.shim();
            if self.fault.has(FaultFate::TornCertWrite, &recipe.name) {
                shim.write = Some(WriteFault::Torn);
            }
            if self.fault.has(FaultFate::BitFlipCertWrite, &recipe.name) {
                shim.write = Some(WriteFault::BitFlip);
            }
            if self.fault.has(FaultFate::CorruptCertRead, &recipe.name) {
                shim.read = Some(ReadFault::Corrupt);
            }
            store.clone().with_faults(shim)
        });
        let cert_store = store_view.as_ref();
        let key = CertKey::compute(&content, &recipe.low, &recipe.high, &sim);
        if let Some(store) = cert_store {
            if let Some(cert) = store.load(&key, &recipe.low, &recipe.high) {
                // The load already validated the witness's structure
                // (counts, step encodings, the digest that seals the subject).
                // Under `--recheck`, a warm hit must also be bound to this
                // subject and replay the witnessed low tree against the
                // semantics before it is served. A failing witness is not
                // an error: the hit demotes to a miss and the check reruns
                // below, exactly as if the record had failed its checksum.
                let recheck_failed = self.recheck
                    && (cert.witness.subject != subject
                        || armada_recheck::replay(&cert.witness, &low).is_err());
                if !recheck_failed {
                    let detail = format!(
                        "{} product nodes, {} low transitions (from cert store{})",
                        cert.product_nodes,
                        cert.low_transitions,
                        if self.recheck {
                            ", witness rechecked"
                        } else {
                            ""
                        }
                    );
                    let status = if strategy_ok {
                        RecipeStatus::Verified
                    } else {
                        RecipeStatus::Refuted
                    };
                    return Ok(RecipeRun {
                        strategy_report: Some(report),
                        refinement: Some(Ok(cert.clone())),
                        chain_cert: Some(cert),
                        outcome: outcome(status, detail, CacheDisposition::Hit),
                    });
                }
            }
        }
        let mut fault_checkpoint = None;
        if self.fault.has(FaultFate::TornCheckpointWrite, &recipe.name) {
            // A kill mid-save: the checkpoint manifest on disk is a torn
            // fragment. Resume must reject it and fall back to a cold
            // start — verdict byte-identical to a run that never
            // checkpointed. Each run gets a private dir holding fresh torn
            // bytes, so the fate is deterministic even across reruns of
            // the same seed and concurrent runs never share a checkpoint;
            // the dir goes once the check returns.
            static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "armada-fault-ck-{}-{:016x}-{}",
                std::process::id(),
                armada_runtime::hash::fnv1a_64(recipe.name.as_bytes()),
                RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(dir.join("manifest.bin"), [0x17, 0x2a, 0x03]);
            sim.checkpoint = Some(CheckpointSpec::new(dir.clone()).with_resume(true));
            fault_checkpoint = Some(dir);
        }
        let checked = catch_unwind(AssertUnwindSafe(|| {
            if self.fault.has(FaultFate::CheckPanic, &recipe.name) {
                panic!(
                    "injected fault: semantic-check panic in recipe `{}`",
                    recipe.name
                );
            }
            if self.telemetry {
                let (result, tel) = check_refinement_with_telemetry(&low, &high, relation, &sim);
                (result, Some(tel))
            } else {
                (check_refinement(&low, &high, relation, &sim), None)
            }
        }));
        if let Some(dir) = fault_checkpoint {
            let _ = std::fs::remove_dir_all(dir);
        }
        let cache = if cert_store.is_some() {
            CacheDisposition::Miss
        } else {
            CacheDisposition::Disabled
        };
        let (checked, telemetry) = match checked {
            Ok((result, tel)) => (Ok(result), tel),
            Err(payload) => (Err(payload), None),
        };
        let (status, detail, refinement, chain_cert) = match checked {
            Err(payload) => {
                return Ok(RecipeRun {
                    strategy_report: Some(report),
                    refinement: None,
                    chain_cert: None,
                    outcome: outcome(
                        RecipeStatus::Crashed,
                        format!("panic in semantic check: {}", panic_text(&*payload)),
                        cache,
                    ),
                });
            }
            Ok(Ok(mut cert)) => {
                // The checker emits the witness unbound (it never sees the
                // module source); bind it here so persisted and served
                // certs are pinned to this exact subject.
                cert.witness.bind_subject(subject);
                if let Some(store) = cert_store {
                    // Best-effort persistence: a full disk or unwritable
                    // store must not fail the verification itself.
                    let _ = store.save(&key, &cert);
                }
                let detail = format!(
                    "{} product nodes, {} low transitions",
                    cert.product_nodes, cert.low_transitions
                );
                let status = if strategy_ok {
                    RecipeStatus::Verified
                } else {
                    RecipeStatus::Refuted
                };
                (status, detail, Some(Ok(cert.clone())), Some(cert))
            }
            Ok(Err(ce)) => {
                let status = if ce.kind.is_budget() {
                    RecipeStatus::BudgetExhausted
                } else {
                    RecipeStatus::Refuted
                };
                (
                    status,
                    ce.description.clone(),
                    Some(Err(ce.to_string())),
                    None,
                )
            }
        };
        let mut outcome = outcome(status, detail, cache);
        outcome.telemetry = telemetry;
        Ok(RecipeRun {
            strategy_report: Some(report),
            refinement,
            chain_cert,
            outcome,
        })
    }

    /// Runs the whole pipeline.
    ///
    /// With `jobs > 1` in the sim config's bounds, the per-recipe work —
    /// strategy obligations plus the bounded semantic check — runs
    /// concurrently across the chain's links (and each semantic check is
    /// itself multi-core). Reports keep recipe order and the first
    /// infrastructure error in recipe order wins, so the output is
    /// identical to a serial run.
    ///
    /// Proof failures, refuted refinements, exhausted budgets, and panics
    /// isolated to one recipe are *not* errors: they are per-recipe
    /// outcomes inside the [`PipelineReport`].
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for *infrastructure* failures (unknown
    /// levels, lowering errors), naming the failing recipe and its span.
    pub fn run(&self) -> Result<PipelineReport, PipelineError> {
        let relation = StandardRelation::new(self.typed.module.relation());
        let recipes = &self.typed.module.recipes;
        // Resolved once per run: either the configured store or the
        // `ARMADA_CERT_CACHE` environment fallback.
        let cert_store = self.resolved_cert_store();
        // Audit baseline: the store handle may be shared across runs (the
        // serve daemon reuses one hierarchy), so report the delta.
        let corrupt_before = cert_store.as_ref().map_or(0, |s| s.corrupt_loads());
        let runs = armada_runtime::wave::map(self.sim.bounds.jobs, recipes, |index, recipe| {
            self.run_recipe(index, recipe, &relation, cert_store.as_ref())
        });

        let mut strategy_reports = Vec::new();
        let mut refinements = Vec::new();
        let mut outcomes = Vec::new();
        let mut certs = Vec::new();
        for (recipe, run) in recipes.iter().zip(runs) {
            // A panic that escapes `run_recipe` (i.e. outside the two
            // per-stage `catch_unwind`s — lowering, the cert store) is
            // still confined to its recipe, so one bad worker can never
            // poison the whole run.
            let run = run.unwrap_or_else(|payload| {
                Ok(RecipeRun {
                    strategy_report: None,
                    refinement: None,
                    chain_cert: None,
                    outcome: RecipeReport {
                        recipe: recipe.name.clone(),
                        low: recipe.low.clone(),
                        high: recipe.high.clone(),
                        status: RecipeStatus::Crashed,
                        detail: format!("panic outside isolated stages: {}", panic_text(&*payload)),
                        cache: CacheDisposition::Disabled,
                        telemetry: None,
                    },
                })
            });
            // First infrastructure error in recipe order wins — identical
            // to a serial run regardless of which worker hit it first.
            let run = run?;
            if let Some(report) = run.strategy_report {
                strategy_reports.push(report);
            }
            if let Some(refinement) = run.refinement {
                refinements.push(refinement);
            }
            if let Some(cert) = run.chain_cert {
                certs.push(cert);
            }
            outcomes.push(run.outcome);
        }
        // Order certificates along the chain and compose. Each cert moves
        // into the chain, so a served cert is copied once (into
        // `refinements`), not twice.
        let chain = match self.level_chain() {
            Ok(levels) => {
                let mut ordered = Vec::new();
                for pair in levels.windows(2) {
                    if let Some(at) = certs
                        .iter()
                        .position(|c| c.low == pair[0] && c.high == pair[1])
                    {
                        ordered.push(certs.remove(at));
                    }
                }
                if ordered.len() + 1 == levels.len() {
                    RefinementChain::compose(ordered).ok()
                } else {
                    None
                }
            }
            Err(_) => None,
        };
        let corrupt_loads = cert_store
            .as_ref()
            .map_or(0, |s| s.corrupt_loads().saturating_sub(corrupt_before));
        Ok(PipelineReport {
            strategy_reports,
            refinements,
            outcomes,
            chain,
            corrupt_loads,
        })
    }

    /// Computes the paper-style effort metrics for this module.
    pub fn effort(&self, report: &PipelineReport) -> EffortReport {
        EffortReport::compute(&self.source, &self.typed, report)
    }
}

/// Effort metrics per level and per recipe, mirroring §6's numbers.
#[derive(Debug, Clone)]
pub struct EffortReport {
    /// `(level name, SLOC of the level's source)` in chain order when a
    /// chain exists, else declaration order.
    pub level_sloc: Vec<(String, usize)>,
    /// Per-recipe rows.
    pub recipes: Vec<RecipeEffort>,
}

/// Effort metrics for one recipe.
#[derive(Debug, Clone)]
pub struct RecipeEffort {
    /// Recipe name.
    pub name: String,
    /// Strategy keyword.
    pub strategy: String,
    /// SLOC of the recipe, excluding lemma customizations.
    pub recipe_sloc: usize,
    /// SLOC of lemma customizations (§4.1.2).
    pub customization_sloc: usize,
    /// SLOC of the generated proof artifact.
    pub generated_sloc: usize,
    /// Number of obligations generated.
    pub obligations: usize,
}

impl EffortReport {
    fn compute(source: &str, typed: &TypedModule, report: &PipelineReport) -> EffortReport {
        let level_sloc = typed
            .module
            .levels
            .iter()
            .map(|level| (level.name.clone(), count_sloc(level.span.text(source))))
            .collect();
        let recipes = typed
            .module
            .recipes
            .iter()
            .map(|recipe| {
                let total = count_sloc(recipe.span.text(source));
                let customization: usize = recipe
                    .lemmas
                    .iter()
                    .map(|lemma| count_sloc(lemma.span.text(source)))
                    .sum();
                // Match by name: a crashed or skipped recipe has no
                // strategy report, so positional zipping would misattribute.
                let strategy_report = report
                    .strategy_reports
                    .iter()
                    .find(|r| r.recipe == recipe.name);
                RecipeEffort {
                    name: recipe.name.clone(),
                    strategy: recipe.strategy.keyword().to_string(),
                    recipe_sloc: total.saturating_sub(customization),
                    customization_sloc: customization,
                    generated_sloc: strategy_report.map_or(0, |r| r.generated_sloc()),
                    obligations: strategy_report.map_or(0, |r| r.obligations.len()),
                }
            })
            .collect();
        EffortReport {
            level_sloc,
            recipes,
        }
    }

    /// Total generated proof SLOC.
    pub fn total_generated(&self) -> usize {
        self.recipes.iter().map(|r| r.generated_sloc).sum()
    }
}

impl fmt::Display for EffortReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<24} {:>8}", "level", "SLOC")?;
        for (name, sloc) in &self.level_sloc {
            writeln!(f, "{name:<24} {sloc:>8}")?;
        }
        writeln!(
            f,
            "{:<24} {:<18} {:>7} {:>7} {:>10} {:>6}",
            "recipe", "strategy", "recipe", "custom", "generated", "oblig"
        )?;
        for recipe in &self.recipes {
            writeln!(
                f,
                "{:<24} {:<18} {:>7} {:>7} {:>10} {:>6}",
                recipe.name,
                recipe.strategy,
                recipe.recipe_sloc,
                recipe.customization_sloc,
                recipe.generated_sloc,
                recipe.obligations
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn pipeline_runs_and_composes_chain() {
        let pipeline = Pipeline::from_source(TWO_STEP).unwrap();
        assert_eq!(pipeline.level_chain().unwrap(), vec!["Impl", "Mid", "Spec"]);
        pipeline.check_core().unwrap();
        let report = pipeline.run().unwrap();
        assert!(report.verified(), "{}", report.failure_summary());
        assert_eq!(report.chain_claim().unwrap(), "Impl ⊑ Spec");
        assert_eq!(report.refinements.len(), 2);
    }

    #[test]
    fn effort_report_counts_sloc() {
        let pipeline = Pipeline::from_source(TWO_STEP).unwrap();
        let report = pipeline.run().unwrap();
        let effort = pipeline.effort(&report);
        assert_eq!(effort.level_sloc.len(), 3);
        assert!(effort.level_sloc.iter().all(|(_, sloc)| *sloc > 0));
        assert_eq!(effort.recipes.len(), 2);
        assert!(
            effort.total_generated() > 100,
            "generated proofs are substantial"
        );
        let text = effort.to_string();
        assert!(text.contains("nondet_weakening"));
    }

    #[test]
    fn broken_proof_is_reported_not_crashed() {
        let source = r#"
            level Impl { void main() { print(1); } }
            level Spec { void main() { print(2); } }
            proof P { refinement Impl Spec weakening }
        "#;
        let pipeline = Pipeline::from_source(source).unwrap();
        let report = pipeline.run().unwrap();
        assert!(!report.verified());
        assert!(!report.failure_summary().is_empty());
        assert!(report.to_string().contains("NOT VERIFIED"));
    }

    #[test]
    fn non_core_implementation_is_rejected() {
        let source = r#"
            level Impl { var x: uint32; void main() { x ::= 1; } }
            level Spec { var x: uint32; void main() { x ::= 1; } }
            proof P { refinement Impl Spec weakening }
        "#;
        let pipeline = Pipeline::from_source(source).unwrap();
        assert!(pipeline.check_core().is_err());
    }

    #[test]
    fn chain_detection_rejects_cycles() {
        let source = r#"
            level A { void main() { } }
            level B { void main() { } }
            proof P1 { refinement A B weakening }
            proof P2 { refinement B A weakening }
        "#;
        let pipeline = Pipeline::from_source(source).unwrap();
        assert!(pipeline.level_chain().is_err());
    }
}
