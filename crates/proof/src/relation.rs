//! Refinement relations (§3.1.3).
//!
//! A refinement relation `R ⊆ S_low × S_high` says when a low-level state is
//! acceptably represented by a high-level state. The paper's example — and
//! our default — is the console-log relation: the implementation's event log
//! must be a prefix of the specification's, with full agreement once the
//! implementation has exited.
//!
//! Every supported relation reads only a state's *observation* — its event
//! log and termination status — so relations take an [`Observation`] view
//! of each side rather than the whole state. The checker leans on this: it
//! groups high states by observation and evaluates the relation once per
//! group.
//!
//! Per §3.2.3, every relation is automatically conjoined with the
//! undefined-behavior condition: *if the low-level program exhibits UB, the
//! high-level program must too* — otherwise proofs about UB-terminating
//! behaviors would be vacuous.

use armada_lang::ast::{PredicateSource, RelationKind};
use armada_sm::{ProgState, Termination, Value};
use std::collections::BTreeMap;

/// The observable projection of a state: its event log and termination
/// status, borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation<'a> {
    /// The event log written by `print`.
    pub log: &'a [Value],
    /// Termination status.
    pub termination: &'a Termination,
}

impl<'a> Observation<'a> {
    /// The observation of `state`.
    pub fn of(state: &'a ProgState) -> Observation<'a> {
        Observation {
            log: &state.log,
            termination: &state.termination,
        }
    }

    fn exited(&self) -> bool {
        *self.termination == Termination::Exited
    }

    fn ub(&self) -> bool {
        matches!(self.termination, Termination::UndefinedBehavior(_))
    }
}

/// When a low-level state is acceptably abstracted by a high-level state.
pub trait RefinementRelation {
    /// Does the pair of observations belong to the relation? (UB conjunct
    /// included.)
    fn relates(&self, low: Observation<'_>, high: Observation<'_>) -> bool;

    /// Human-readable description for reports.
    fn describe(&self) -> String;
}

/// The §3.2.3 conjunct: a UB-terminated low state may only be related to a
/// UB-terminated high state, and an assertion-failed low state to a failed
/// or UB high state.
pub fn conjoin_ub_condition(low: Observation<'_>, high: Observation<'_>, base: bool) -> bool {
    match low.termination {
        Termination::UndefinedBehavior(_) => high.ub(),
        Termination::AssertFailed(_) => matches!(
            high.termination,
            Termination::AssertFailed(_) | Termination::UndefinedBehavior(_)
        ),
        _ => base,
    }
}

/// A relation built from the module's [`RelationKind`] declaration.
#[derive(Debug, Clone)]
pub struct StandardRelation {
    kind: RelationKind,
}

impl StandardRelation {
    /// Builds the relation for a module declaration (or the default).
    pub fn new(kind: RelationKind) -> StandardRelation {
        StandardRelation { kind }
    }

    /// The declaration this relation was built from.
    pub fn kind(&self) -> &RelationKind {
        &self.kind
    }

    /// The default log-prefix relation.
    pub fn log_prefix() -> StandardRelation {
        StandardRelation {
            kind: RelationKind::LogPrefix,
        }
    }
}

impl RefinementRelation for StandardRelation {
    fn relates(&self, low: Observation<'_>, high: Observation<'_>) -> bool {
        let exit_ok = !low.exited() || (high.exited() && low.log == high.log);
        let base = match &self.kind {
            RelationKind::LogPrefix => high.log.starts_with(low.log) && exit_ok,
            RelationKind::LogEqualAtExit => exit_ok,
            RelationKind::Custom(pred) => custom_relates(pred, low, high),
        };
        conjoin_ub_condition(low, high, base)
    }

    fn describe(&self) -> String {
        match &self.kind {
            RelationKind::LogPrefix => "log-prefix (default)".to_string(),
            RelationKind::LogEqualAtExit => "log-equal-at-exit".to_string(),
            RelationKind::Custom(pred) => format!("custom: {}", pred.text),
        }
    }
}

/// Evaluates a custom relation predicate over the two observations:
/// `low_log`/`high_log` (ghost sequences), and
/// `low_exited`/`high_exited`/`low_ub`/`high_ub` booleans.
fn custom_relates(pred: &PredicateSource, low: Observation<'_>, high: Observation<'_>) -> bool {
    let env = BTreeMap::from([
        ("low_log".to_string(), Value::Seq(low.log.to_vec())),
        ("high_log".to_string(), Value::Seq(high.log.to_vec())),
        ("low_exited".to_string(), Value::Bool(low.exited())),
        ("high_exited".to_string(), Value::Bool(high.exited())),
        ("low_ub".to_string(), Value::Bool(low.ub())),
        ("high_ub".to_string(), Value::Bool(high.ub())),
    ]);
    matches!(
        crate::prover::pure_eval(&pred.expr, &env),
        Ok(Value::Bool(true))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::ast::IntType;
    use armada_sm::{Pc, UbReason};

    const RUNNING: Termination = Termination::Running;
    const EXITED: Termination = Termination::Exited;
    const UB: Termination = Termination::UndefinedBehavior(UbReason::NullDereference);
    const FAILED: Termination = Termination::AssertFailed(Pc {
        routine: 0,
        instr: 0,
    });

    fn log(values: &[i128]) -> Vec<Value> {
        values
            .iter()
            .map(|&v| Value::int(IntType::U32, v))
            .collect()
    }

    fn obs<'a>(log: &'a [Value], termination: &'a Termination) -> Observation<'a> {
        Observation { log, termination }
    }

    #[test]
    fn log_prefix_accepts_prefixes_and_rejects_divergence() {
        let relation = StandardRelation::log_prefix();
        let (short, long, diverged) = (log(&[1, 2]), log(&[1, 2, 3]), log(&[9]));
        assert!(relation.relates(obs(&short, &RUNNING), obs(&long, &RUNNING)));
        assert!(!relation.relates(obs(&short, &RUNNING), obs(&diverged, &RUNNING)));
        assert!(!relation.relates(obs(&long, &RUNNING), obs(&short, &RUNNING)));
    }

    #[test]
    fn log_prefix_requires_agreement_at_exit() {
        let relation = StandardRelation::log_prefix();
        let (short, long) = (log(&[1]), log(&[1, 2]));
        assert!(relation.relates(obs(&short, &EXITED), obs(&short, &EXITED)));
        assert!(
            !relation.relates(obs(&short, &EXITED), obs(&long, &EXITED)),
            "exited impl must match spec log"
        );
        assert!(
            !relation.relates(obs(&short, &EXITED), obs(&short, &RUNNING)),
            "exited impl needs an exited spec"
        );
    }

    #[test]
    fn log_equal_at_exit_constrains_only_exited_states() {
        let relation = StandardRelation::new(RelationKind::LogEqualAtExit);
        let (a, b) = (log(&[1]), log(&[2, 3]));
        // Before exit, any logs relate — even diverged ones.
        assert!(relation.relates(obs(&a, &RUNNING), obs(&b, &RUNNING)));
        assert!(relation.relates(obs(&a, &RUNNING), obs(&b, &EXITED)));
        // At exit, the spec must have exited with the same log.
        assert!(relation.relates(obs(&a, &EXITED), obs(&a, &EXITED)));
        assert!(!relation.relates(obs(&a, &EXITED), obs(&b, &EXITED)));
        assert!(!relation.relates(obs(&a, &EXITED), obs(&a, &RUNNING)));
    }

    #[test]
    fn ub_conjunct_is_enforced() {
        let relation = StandardRelation::log_prefix();
        let empty = log(&[]);
        assert!(!relation.relates(obs(&empty, &UB), obs(&empty, &RUNNING)));
        assert!(!relation.relates(obs(&empty, &UB), obs(&empty, &FAILED)));
        assert!(relation.relates(obs(&empty, &UB), obs(&empty, &UB)));
    }

    #[test]
    fn assert_failed_low_relates_only_to_failed_or_ub_high() {
        let relation = StandardRelation::log_prefix();
        let (empty, other) = (log(&[]), log(&[7]));
        assert!(relation.relates(obs(&empty, &FAILED), obs(&empty, &FAILED)));
        assert!(relation.relates(obs(&empty, &FAILED), obs(&empty, &UB)));
        assert!(!relation.relates(obs(&empty, &FAILED), obs(&empty, &RUNNING)));
        assert!(!relation.relates(obs(&empty, &FAILED), obs(&empty, &EXITED)));
        // The conjunct replaces the log comparison for failed states.
        assert!(relation.relates(obs(&other, &FAILED), obs(&empty, &FAILED)));
    }

    #[test]
    fn custom_relation_evaluates_projection_predicate() {
        let pred_src = "len(low_log) <= len(high_log)";
        let pred = PredicateSource {
            text: pred_src.to_string(),
            expr: armada_lang::parse_expr(pred_src).unwrap(),
        };
        let relation = StandardRelation::new(RelationKind::Custom(pred));
        let (low, high) = (log(&[1]), log(&[2, 3]));
        assert!(relation.relates(obs(&low, &RUNNING), obs(&high, &RUNNING)));
        assert!(!relation.relates(obs(&high, &RUNNING), obs(&low, &RUNNING)));
        assert!(relation.describe().contains("custom"));
    }
}
