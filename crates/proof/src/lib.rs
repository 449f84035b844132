//! # armada-proof
//!
//! The refinement-proof framework of Armada (§4 of the paper), re-targeted
//! from Dafny/Z3 to an embedded discharge engine.
//!
//! In the paper, each strategy emits Dafny lemmas which the Dafny verifier
//! (backed by Z3) checks. Here, each strategy emits structured
//! [`ProofObligation`]s; the [`prover`] discharges them by a pipeline of
//! syntactic simplification, effect-disjointness arguments, and bounded
//! exhaustive evaluation over typed candidate domains; and a rendered
//! pseudo-Dafny lemma text is kept per obligation both for diagnostics and
//! for the effort accounting the paper's evaluation reports (recipe SLOC vs.
//! generated-proof SLOC).
//!
//! The end-to-end safety net replacing Z3's completeness is
//! `armada-verify`'s bounded refinement model checker, which checks the
//! simulation relation over every interleaving of bounded instances.
//!
//! Lemma customization (§4.1.2) is supported via [`prover::Hint`]s: a
//! developer-supplied recipe lemma becomes an oracle fact the engine may
//! assume, exactly as a hand-written Dafny lemma would be invoked from a
//! generated one.

pub mod obligation;
pub mod prover;
pub mod relation;

pub use obligation::{DischargedObligation, ObligationKind, ProofObligation, StrategyReport};
pub use prover::{check_valid, Hint, ProofMethod, ProverCtx, Verdict};
pub use relation::{conjoin_ub_condition, Observation, RefinementRelation};
