//! # armada-strategies
//!
//! The eight refinement strategies of Armada (§4.2) and the recipe engine
//! that dispatches them.
//!
//! A strategy is a *proof generator* for one kind of correspondence between
//! a low-level and a high-level program. Given a [`armada_lang::ast::Recipe`]
//! it checks the structural correspondence, emits the
//! [`armada_proof::ProofObligation`]s the paper's Dafny generator would, and
//! discharges them through `armada-proof`'s engine (syntactic / bounded
//! exhaustive) or, where the paper leans on Z3 reasoning about the state
//! machines themselves, through bounded model checking of the lowered
//! programs.
//!
//! | strategy | module | paper |
//! |---|---|---|
//! | `weakening` | [`weakening`] | §4.2.4 |
//! | `nondet_weakening` | [`weakening`] | §4.2.5 |
//! | `combining` | [`combining`] | §4.2.6 |
//! | `assume_intro` (rely-guarantee) | [`assume_intro`] | §4.2.2 |
//! | `tso_elim` | [`tso_elim`] | §4.2.3 |
//! | `reduction` (Cohen–Lamport) | [`reduction`] | §4.2.1 |
//! | `var_intro` | [`var_map`] | §4.2.7 |
//! | `var_hiding` | [`var_map`] | §4.2.8 |
//!
//! [`run_recipe`] runs one recipe; [`run_module`] runs every recipe of a
//! module and reports per-pair results.

pub mod align;
pub mod assume_intro;
pub mod combining;
pub mod common;
pub mod prelude;
pub mod reduction;
pub mod tso_elim;
pub mod var_map;
pub mod weakening;

use armada_lang::ast::StrategyKind;
use armada_lang::typeck::TypedModule;
use armada_proof::StrategyReport;
use armada_verify::SimConfig;

pub use common::StrategyCtx;

/// Runs the strategy named by `recipe` over its level pair.
///
/// # Errors
///
/// Returns a message if a referenced level does not exist or cannot be
/// lowered; correspondence and proof failures are reported *inside* the
/// [`StrategyReport`], mirroring how a bad recipe surfaces as a Dafny
/// verification error rather than a crash (§2.2).
pub fn run_recipe(
    typed: &TypedModule,
    recipe: &armada_lang::ast::Recipe,
    sim: SimConfig,
) -> Result<StrategyReport, String> {
    let ctx = StrategyCtx::build(typed, recipe, sim)?;
    Ok(run(&ctx))
}

/// Runs the strategy named by `ctx`'s recipe over the context's level
/// pair. Model-checked obligations share the context's low-level state
/// graph.
pub fn run(ctx: &StrategyCtx<'_>) -> StrategyReport {
    match ctx.recipe.strategy {
        StrategyKind::Weakening | StrategyKind::NondetWeakening => weakening::run(ctx),
        StrategyKind::Combining => combining::run(ctx),
        StrategyKind::AssumeIntro => assume_intro::run(ctx),
        StrategyKind::TsoElim => tso_elim::run(ctx),
        StrategyKind::Reduction => reduction::run(ctx),
        StrategyKind::VarIntro => var_map::run(ctx, true),
        StrategyKind::VarHiding => var_map::run(ctx, false),
    }
}

/// The result of running every recipe of a module.
#[derive(Debug, Clone)]
pub struct ModuleProof {
    /// One report per recipe, in declaration order.
    pub reports: Vec<StrategyReport>,
}

impl ModuleProof {
    /// True if every recipe's obligations were all proved.
    pub fn success(&self) -> bool {
        self.reports.iter().all(|r| r.success())
    }

    /// Total generated-proof SLOC across all recipes (the paper's headline
    /// effort metric).
    pub fn generated_sloc(&self) -> usize {
        self.reports.iter().map(|r| r.generated_sloc()).sum()
    }
}

/// Runs every recipe in the module.
///
/// # Errors
///
/// Returns the first recipe whose levels cannot even be lowered.
pub fn run_module(typed: &TypedModule, sim: &SimConfig) -> Result<ModuleProof, String> {
    let mut reports = Vec::new();
    for recipe in &typed.module.recipes {
        reports.push(run_recipe(typed, recipe, sim.clone())?);
    }
    Ok(ModuleProof { reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::{check_module, parse_module};

    #[test]
    fn run_module_executes_all_recipes() {
        let module = parse_module(
            r#"
            level A { var x: uint32; void main() { if (x < 1) { print(1); } } }
            level B { var x: uint32; void main() { if (*) { print(1); } } }
            level C {
                var x: uint32;
                ghost var g: int;
                void main() { if (*) { print(1); } g := 1; }
            }
            proof P1 { refinement A B nondet_weakening }
            proof P2 { refinement B C var_intro }
            "#,
        )
        .unwrap();
        let typed = check_module(&module).unwrap();
        let proof = run_module(&typed, &SimConfig::default()).unwrap();
        assert_eq!(proof.reports.len(), 2);
        assert!(proof.success(), "{}", proof.reports[0].failure_summary());
        assert!(proof.generated_sloc() > 200);
    }

    #[test]
    fn unknown_level_is_an_error() {
        let module = parse_module(
            r#"
            level A { void main() { } }
            level B { void main() { } }
            proof P { refinement A B weakening }
            "#,
        )
        .unwrap();
        let typed = check_module(&module).unwrap();
        let mut recipe = typed.module.recipes[0].clone();
        recipe.low = "Nope".into();
        assert!(run_recipe(&typed, &recipe, SimConfig::default()).is_err());
    }
}
