//! The hand-written verdict of every corpus module. Every timed and traced
//! pass compares its verdicts against this table; a mismatch is a failed
//! operation and makes the benchmark exit nonzero.

use armada::{PipelineReport, RecipeStatus};

/// What verifying one module concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every recipe verified and the chain composed to this claim.
    Verified(String),
    /// At least one recipe was refuted, and none crashed or ran out of
    /// budget.
    Refuted,
    /// A recipe crashed, ran out of budget, or was skipped.
    Inconclusive,
}

impl Verdict {
    /// The verdict of a `Pipeline::run` report.
    pub fn of(report: &PipelineReport) -> Verdict {
        if report.verified() {
            Verdict::Verified(report.chain_claim().unwrap_or_default())
        } else if report.worst_status() == RecipeStatus::Refuted {
            Verdict::Refuted
        } else {
            Verdict::Inconclusive
        }
    }
}

/// The expected verdict of the corpus module `name`.
///
/// # Panics
///
/// Panics on a module missing from the table, so a corpus addition cannot
/// go unchecked.
pub fn expected(name: &str) -> Verdict {
    let claim = match name {
        "counter" => "Implementation ⊑ SeqCount",
        "spinlock" => "Implementation ⊑ SeqLock",
        "handoff" => "Implementation ⊑ Audited",
        "tracepoint" | "barrier" | "queue" => "Implementation ⊑ Spec",
        "pointers" => "Implementation ⊑ Reordered",
        "mcs_lock" => "Implementation ⊑ AtomicCS",
        "tsp" => "Implementation ⊑ BestLenSequential",
        "wrong_strategy"
        | "tso_elim_without_ownership"
        | "racy_reduction"
        | "false_enablement"
        | "hidden_output"
        | "strong_postcondition"
        | "semantic_divergence"
        | "fewer_spec_behaviors" => return Verdict::Refuted,
        other => panic!("module `{other}` has no expected verdict"),
    };
    Verdict::Verified(claim.to_string())
}
