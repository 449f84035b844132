//! Assume-introduction via rely-guarantee reasoning (§4.2.2).
//!
//! The high level adds *enablement conditions* (`assume e;`) to the low
//! level; the correspondence requires each added condition to always hold in
//! the low level at its program position, so no new blocking is introduced
//! and the condition is *cemented* into the program for later levels.
//!
//! Proof generation follows the paper's recipe ingredients:
//!
//! * developer **invariants** are proven to hold initially and inductively —
//!   inductively both across program steps (weakest-precondition style for
//!   assignments, with the invariant itself and the relies as hypotheses)
//!   and across environment steps constrained by the **rely** predicates;
//! * each thread's steps are shown to **guarantee** the relies other
//!   threads assume;
//! * each introduced condition is then shown to follow from the invariants.
//!
//! Conditions the pure engine cannot reach (e.g. ones over heap state) fall
//! back to model checking the bounded instance: the condition is evaluated
//! in every reachable state of the low level.

use armada_lang::ast::*;
use armada_lang::pretty::{expr_to_string, stmt_to_string};
use armada_proof::prover::{check_valid, collect_vars, rewrite_old};
use armada_proof::{
    DischargedObligation, ObligationKind, ProofMethod, ProofObligation, StrategyReport, Verdict,
};
use armada_sm::eval::EvalCtx;
use armada_sm::{explore, initial_state, StateId};

use crate::align::{diff_levels, AlignOptions, DiffItem};
use crate::common::{implies_expr, subst_var, StrategyCtx};

/// Runs the assume-introduction strategy.
pub fn run(ctx: &StrategyCtx<'_>) -> StrategyReport {
    let mut report = ctx.report();
    let skip = |s: &Stmt| matches!(s.kind, StmtKind::Assume(_));
    let options = AlignOptions {
        skip_high: &skip,
        skip_low: &|_| false,
    };
    let items = match diff_levels(ctx.low, ctx.high, &options) {
        Ok(items) => items,
        Err(reason) => return ctx.structural_failure(reason),
    };
    let mut introduced: Vec<(String, Expr)> = Vec::new(); // (method, cond)
    for item in items {
        match item {
            DiffItem::InsertedHigh { path, stmt } => match stmt.kind {
                StmtKind::Assume(cond) => introduced.push((path.method.clone(), cond)),
                other => {
                    return ctx.structural_failure(format!(
                        "assume_intro only inserts `assume`; found `{}` at {path}",
                        stmt_to_string(&Stmt::new(other, stmt.span)).trim()
                    ))
                }
            },
            other => {
                return ctx.structural_failure(format!(
                    "assume_intro permits no other differences; found {other:?}"
                ))
            }
        }
    }
    if introduced.is_empty() {
        return ctx.structural_failure(
            "assume_intro found no introduced enablement conditions".to_string(),
        );
    }

    // --- invariants: initial + inductive + environment-stable -------------
    check_invariants(ctx, &mut report);

    // --- guarantees: every low statement preserves each rely ---------------
    check_guarantees(ctx, &mut report);

    // --- introduced conditions follow from the invariants ------------------
    // Positional discharge data: align the lowered instruction streams (the
    // high one has extra Assume instructions) so each inserted condition
    // gets the low-level PC it must hold at.
    let positions = aligned_assume_positions(ctx);
    for (index, (method, cond)) in introduced.iter().enumerate() {
        let goal = cond.clone();
        let prover_ctx = ctx.prover_ctx(method, &goal);
        let mut verdict = if prover_ctx.assumptions.is_empty() {
            Verdict::Unknown("no invariant constrains the condition".to_string())
        } else {
            check_valid(&goal, &prover_ctx)
        };
        if !matches!(verdict, Verdict::Proved(_)) {
            let position = positions.as_ref().ok().and_then(|p| p.get(index)).copied();
            if let Some(mc) = model_check_positional(ctx, cond, position) {
                verdict = mc;
            }
        }
        report.obligations.push(DischargedObligation {
            obligation: ProofObligation::new(
                ObligationKind::EnablementJustified {
                    cond: expr_to_string(cond),
                    at: method.clone(),
                },
                vec![
                    "assert Invariants(s);".to_string(),
                    format!("assert {};", expr_to_string(cond)),
                ],
            ),
            verdict,
        });
    }
    report
}

/// Invariant obligations: initial + inductive per writing statement +
/// stability under environment steps constrained by the relies.
pub fn check_invariants(ctx: &StrategyCtx<'_>, report: &mut StrategyReport) {
    for invariant in &ctx.recipe.invariants {
        // Initial.
        let verdict = check_initially(ctx, &invariant.expr);
        report.obligations.push(DischargedObligation {
            obligation: ProofObligation::new(
                ObligationKind::InvariantInitial {
                    invariant: invariant.text.clone(),
                },
                vec!["assert Init(s) ==> Inv(s);".to_string()],
            ),
            verdict,
        });
        // Inductive across every assignment that writes a mentioned var.
        let mut mentioned = Vec::new();
        collect_vars(&invariant.expr, &mut mentioned);
        for method in ctx.low.methods() {
            let Some(body) = &method.body else { continue };
            for (stmt_desc, lhs_name, rhs) in assignments_to(body, &mentioned) {
                let goal_post = subst_var(&invariant.expr, &lhs_name, &rhs);
                let goal = implies_expr(invariant.expr.clone(), goal_post);
                let prover_ctx = ctx.prover_ctx(&method.name, &goal);
                let mut verdict = check_valid(&goal, &prover_ctx);
                if !matches!(verdict, Verdict::Proved(_)) {
                    // The per-statement WP is path-insensitive; reachability
                    // is the authority. Check the invariant in every
                    // reachable state (every thread's TSO view) instead.
                    if let Some(mc) = model_check_positional(ctx, &invariant.expr, None) {
                        verdict = mc;
                    }
                }
                report.obligations.push(DischargedObligation {
                    obligation: ProofObligation::new(
                        ObligationKind::InvariantInductive {
                            invariant: invariant.text.clone(),
                            step: stmt_desc.clone(),
                        },
                        vec![
                            format!("// wp across `{stmt_desc}`"),
                            format!(
                                "assert Inv(s) ==> Inv(s[{lhs_name} := {}]);",
                                expr_to_string(&rhs)
                            ),
                        ],
                    ),
                    verdict,
                });
            }
        }
        // Stability under environment steps: old-Inv ∧ rely ⇒ new-Inv.
        if !ctx.recipe.rely.is_empty() {
            let old_inv = wrap_old(&invariant.expr);
            let mut assumptions = vec![old_inv];
            for rely in &ctx.recipe.rely {
                assumptions.push(rely.expr.clone());
            }
            let goal = implies_expr(
                crate::common::and_exprs(assumptions),
                invariant.expr.clone(),
            );
            let prover_ctx = ctx.prover_ctx("main", &goal);
            let mut verdict = check_valid(&goal, &prover_ctx);
            if !matches!(verdict, Verdict::Proved(_)) {
                // Global reachability subsumes environment stability for
                // state invariants.
                if let Some(mc) = model_check_positional(ctx, &invariant.expr, None) {
                    verdict = mc;
                }
            }
            report.obligations.push(DischargedObligation {
                obligation: ProofObligation::new(
                    ObligationKind::InvariantInductive {
                        invariant: invariant.text.clone(),
                        step: "environment (rely)".to_string(),
                    },
                    vec!["assert old(Inv) && Rely(old, s) ==> Inv(s);".to_string()],
                ),
                verdict,
            });
        }
    }
}

/// Guarantee obligations: each statement that writes a rely-mentioned
/// variable preserves the rely as a two-state predicate.
pub fn check_guarantees(ctx: &StrategyCtx<'_>, report: &mut StrategyReport) {
    for rely in &ctx.recipe.rely {
        let mut mentioned = Vec::new();
        collect_vars(&rely.expr, &mut mentioned);
        let mentioned: Vec<String> = mentioned
            .iter()
            .map(|m| m.strip_prefix("old$").unwrap_or(m).to_string())
            .collect();
        for method in ctx.low.methods() {
            let Some(body) = &method.body else { continue };
            for (stmt_desc, lhs_name, rhs) in assignments_to(body, &mentioned) {
                // The rely as a one-step guarantee: pre-state values are the
                // current variables, post-state values substitute the
                // assignment. old(x) ↦ x; x ↦ (x with lhs := rhs).
                let two_state = rewrite_old(&rely.expr); // old(x) → old$x
                                                         // post-side substitution first (plain names):
                let post = subst_var(&two_state, &lhs_name, &rhs);
                // then identify old$x with x (the pre-state is the current
                // state):
                let mut goal = post;
                let mut names = Vec::new();
                collect_vars(&goal, &mut names);
                for name in names {
                    if let Some(base) = name.strip_prefix("old$") {
                        goal = subst_var(
                            &goal,
                            &name,
                            &Expr::synthetic(ExprKind::Var(base.to_string())),
                        );
                    }
                }
                // Invariants may be assumed while proving the guarantee.
                let prover_ctx = ctx.prover_ctx(&method.name, &goal);
                let mut verdict = check_valid(&goal, &prover_ctx);
                if !matches!(verdict, Verdict::Proved(_)) {
                    if let Some(mc) = model_check_rely(ctx, &rely.expr) {
                        verdict = mc;
                    }
                }
                report.obligations.push(DischargedObligation {
                    obligation: ProofObligation::new(
                        ObligationKind::RelyPreserved {
                            rely: rely.text.clone(),
                            step: stmt_desc.clone(),
                        },
                        vec![format!("// guarantee across `{stmt_desc}`")],
                    ),
                    verdict,
                });
            }
        }
    }
}

/// Transition-level guarantee check: the rely, as a two-state predicate,
/// holds across *every* reachable transition of the bounded low-level
/// instance (instruction steps and store-buffer drains alike), evaluated in
/// the acting thread's view.
fn model_check_rely(ctx: &StrategyCtx<'_>, rely: &Expr) -> Option<Verdict> {
    use std::collections::BTreeSet;
    let pool = ctx.sim.bounds.pool_for(&ctx.low_prog);
    let initial = initial_state(&ctx.low_prog).ok()?;
    let mut visited: BTreeSet<armada_sm::ProgState> = BTreeSet::new();
    let mut frontier = vec![initial.clone()];
    visited.insert(initial);
    let mut transitions = 0usize;
    while let Some(state) = frontier.pop() {
        if state.is_terminal() {
            continue;
        }
        if visited.len() > ctx.sim.bounds.max_states {
            return Some(Verdict::Unknown("state space truncated".to_string()));
        }
        for (step, next) in
            armada_sm::enabled_steps(&ctx.low_prog, &state, &pool, ctx.sim.bounds.max_buffer)
        {
            transitions += 1;
            let mut eval = EvalCtx::new(&ctx.low_prog, &next, step.tid, &[]).with_old(&state);
            match eval.eval(rely) {
                Ok(armada_sm::Value::Bool(true)) => {}
                Ok(armada_sm::Value::Bool(false)) => {
                    return Some(Verdict::Refuted {
                        counterexample: format!(
                            "a step by thread {} violates the rely predicate",
                            step.tid
                        ),
                    })
                }
                _ => return None,
            }
            if visited.insert(next.clone()) {
                frontier.push(next);
            }
        }
    }
    Some(Verdict::Proved(ProofMethod::ModelChecked {
        states: transitions,
    }))
}

/// Collects `(description, target var, rhs)` for every single-target
/// assignment in `block` whose target is one of `vars`.
fn assignments_to(block: &Block, vars: &[String]) -> Vec<(String, String, Expr)> {
    let mut out = Vec::new();
    walk(block, &mut |stmt| {
        if let StmtKind::Assign { lhs, rhs, .. } = &stmt.kind {
            for (target, value) in lhs.iter().zip(rhs) {
                if let (ExprKind::Var(name), Rhs::Expr(value)) = (&target.kind, value) {
                    if vars.contains(name) && !value.is_nondet() {
                        out.push((
                            stmt_to_string(stmt).trim().to_string(),
                            name.clone(),
                            value.clone(),
                        ));
                    }
                }
            }
        }
        if let StmtKind::VarDecl {
            name,
            init: Some(Rhs::Expr(value)),
            ..
        } = &stmt.kind
        {
            if vars.contains(name) && !value.is_nondet() {
                out.push((
                    stmt_to_string(stmt).trim().to_string(),
                    name.clone(),
                    value.clone(),
                ));
            }
        }
    });
    out
}

fn walk(block: &Block, f: &mut impl FnMut(&Stmt)) {
    for stmt in &block.stmts {
        f(stmt);
        match &stmt.kind {
            StmtKind::If {
                then_block,
                else_block,
                ..
            } => {
                walk(then_block, f);
                if let Some(els) = else_block {
                    walk(els, f);
                }
            }
            StmtKind::While { body, .. } => walk(body, f),
            StmtKind::Label(_, inner) => f(inner),
            StmtKind::ExplicitYield(b) | StmtKind::Atomic(b) | StmtKind::Block(b) => walk(b, f),
            _ => {}
        }
    }
}

fn wrap_old(expr: &Expr) -> Expr {
    // Inv over the pre-state: rename every variable x to old$x (after the
    // standard old-rewrite the prover treats old$x as a distinct variable).
    let rewritten = rewrite_old(expr);
    let mut names = Vec::new();
    collect_vars(&rewritten, &mut names);
    let mut out = rewritten;
    for name in names {
        if !name.starts_with("old$") && name != "$me" {
            out = subst_var(
                &out,
                &name,
                &Expr::synthetic(ExprKind::Var(format!("old${name}"))),
            );
        }
    }
    out
}

/// Evaluates `invariant` in the low level's initial state; conditions over
/// locals are out of scope there and yield `Unknown`.
fn check_initially(ctx: &StrategyCtx<'_>, invariant: &Expr) -> Verdict {
    let state = match initial_state(&ctx.low_prog) {
        Ok(state) => state,
        Err(err) => return Verdict::Unknown(err),
    };
    let mut eval = EvalCtx::new(&ctx.low_prog, &state, armada_sm::state::MAIN_TID, &[]);
    match eval.eval(invariant) {
        Ok(armada_sm::Value::Bool(true)) => {
            Verdict::Proved(ProofMethod::ModelChecked { states: 1 })
        }
        Ok(armada_sm::Value::Bool(false)) => Verdict::Refuted {
            counterexample: "invariant false in the initial state".to_string(),
        },
        Ok(other) => Verdict::Unknown(format!("invariant evaluated to {other}")),
        Err(err) => Verdict::Unknown(format!("initial check: {err}")),
    }
}

/// The low-level PC each inserted `assume` sits at, in insertion order:
/// alignment maps every inserted Assume to the low PC of the instruction
/// that follows it.
fn aligned_assume_positions(ctx: &StrategyCtx<'_>) -> Result<Vec<armada_sm::Pc>, String> {
    let skip_assume = |i: &armada_sm::Instr| matches!(i, armada_sm::Instr::Assume(_));
    let alignment =
        crate::common::align_instructions(&ctx.low_prog, &ctx.high_prog, &skip_assume, &|_| false)?;
    Ok(alignment
        .inserted_high
        .iter()
        .map(|(_, low_pc)| *low_pc)
        .collect())
}

/// Positional fallback discharge: evaluate `cond` in every reachable state
/// of the bounded low-level instance, for every thread *at the condition's
/// program point* (or, without a position, for every active thread — a
/// strictly stronger check). This is the semantic counterpart of the
/// paper's "the added enabling constraint always holds in the low-level
/// program at its corresponding position".
fn model_check_positional(
    ctx: &StrategyCtx<'_>,
    cond: &Expr,
    position: Option<armada_sm::Pc>,
) -> Option<Verdict> {
    // The discharge quantifies over *every* reachable state, including the
    // intermediate ones local-step reduction would fuse away, in original
    // tid/object-id coordinates — explore the full unreduced,
    // uncanonicalized space.
    let mut exploration = explore(
        &ctx.low_prog,
        &ctx.sim
            .bounds
            .clone()
            .with_reduction(false)
            .with_symmetry(false),
    );
    if exploration.truncated {
        return Some(Verdict::Unknown("state space truncated".to_string()));
    }
    let mut states = 0usize;
    // By id, faulting each state in: under `--mem-cap` the arena may have
    // spilled, and a spilled arena cannot be iterated by reference.
    for index in 0..exploration.arena.len() {
        let state = exploration.arena.get_arc_mut(StateId(index as u32));
        let state = state.as_ref();
        if state.is_terminal() {
            continue;
        }
        for (&tid, thread) in &state.threads {
            if thread.status != armada_sm::state::ThreadStatus::Active {
                continue;
            }
            if let Some(pc) = position {
                if thread.pc != pc {
                    continue;
                }
            }
            let mut eval = EvalCtx::new(&ctx.low_prog, state, tid, &[]);
            match eval.eval(cond) {
                Ok(armada_sm::Value::Bool(true)) => states += 1,
                Ok(armada_sm::Value::Bool(false)) => {
                    return Some(Verdict::Refuted {
                        counterexample: format!(
                            "condition false for thread {tid} at {} in a reachable state",
                            position
                                .map(|p| p.to_string())
                                .unwrap_or_else(|| "any pc".into())
                        ),
                    })
                }
                // Conditions over locals not in scope for this thread are
                // not checkable here.
                _ => return None,
            }
        }
    }
    Some(Verdict::Proved(ProofMethod::ModelChecked { states }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::{check_module, parse_module};
    use armada_verify::SimConfig;

    fn run_recipe(src: &str) -> StrategyReport {
        let module = parse_module(src).expect("parse");
        let typed = check_module(&module).expect("typecheck");
        let recipe = &typed.module.recipes[0];
        let ctx = StrategyCtx::build(&typed, recipe, SimConfig::default()).expect("ctx");
        run(&ctx)
    }

    #[test]
    fn figure10_style_assume_intro_succeeds() {
        // t := best_len; assume t >= ghost_best (invariant: best_len >=
        // ghost_best, rely: ghost_best non-increasing).
        let report = run_recipe(
            r#"
            level Low {
                var best_len: uint32 := 100;
                ghost var ghost_best: int := 100;
                void main() {
                    var t: uint32 := best_len;
                    print(t);
                }
            }
            level High {
                var best_len: uint32 := 100;
                ghost var ghost_best: int := 100;
                void main() {
                    var t: uint32 := best_len;
                    assume t >= ghost_best;
                    print(t);
                }
            }
            proof P {
                refinement Low High
                assume_intro
                invariant "best_len >= ghost_best"
                invariant "t == best_len ==> t >= ghost_best"
                lemma ReadSeesInvariant { "(t >= ghost_best)" }
            }
            "#,
        );
        assert!(report.success(), "{}", report.failure_summary());
        assert!(report.obligations.iter().any(|o| matches!(
            o.obligation.kind,
            ObligationKind::EnablementJustified { .. }
        )));
    }

    #[test]
    fn model_checked_enablement_over_globals() {
        // x only ever holds 0 or 1; the introduced condition x <= 1 is
        // discharged by exploring the bounded instance.
        let report = run_recipe(
            r#"
            level Low {
                var x: uint32;
                void main() { x := 1; x := 0; print(x); }
            }
            level High {
                var x: uint32;
                void main() { x := 1; assume x <= 1; x := 0; print(x); }
            }
            proof P { refinement Low High assume_intro }
            "#,
        );
        assert!(report.success(), "{}", report.failure_summary());
        assert!(report
            .obligations
            .iter()
            .any(|o| matches!(o.verdict, Verdict::Proved(ProofMethod::ModelChecked { .. }))));
    }

    #[test]
    fn false_enablement_is_refuted() {
        let report = run_recipe(
            r#"
            level Low {
                var x: uint32;
                void main() { x := 2; print(x); }
            }
            level High {
                var x: uint32;
                void main() { x := 2; assume x <= 1; print(x); }
            }
            proof P { refinement Low High assume_intro }
            "#,
        );
        assert!(
            !report.success(),
            "x == 2 violates the introduced condition"
        );
    }

    #[test]
    fn non_inductive_invariant_is_refuted() {
        let report = run_recipe(
            r#"
            level Low {
                ghost var g: int := 0;
                void main() { g := g + 1; }
            }
            level High {
                ghost var g: int := 0;
                void main() { g := g + 1; assume g >= 0; }
            }
            proof P {
                refinement Low High
                assume_intro
                invariant "g <= 0"
            }
            "#,
        );
        assert!(
            !report.success(),
            "g := g + 1 breaks the claimed invariant g <= 0"
        );
    }

    #[test]
    fn rely_guarantee_obligations_are_generated_and_checked() {
        let report = run_recipe(
            r#"
            level Low {
                ghost var g: int := 10;
                void main() { g := g - 1; }
            }
            level High {
                ghost var g: int := 10;
                void main() { g := g - 1; assume true; }
            }
            proof P {
                refinement Low High
                assume_intro
                rely "old(g) >= g"
            }
            "#,
        );
        assert!(report.success(), "{}", report.failure_summary());
        assert!(report
            .obligations
            .iter()
            .any(|o| matches!(o.obligation.kind, ObligationKind::RelyPreserved { .. })));
        // And a violating program fails the guarantee.
        let bad = run_recipe(
            r#"
            level Low {
                ghost var g: int := 10;
                void main() { g := g + 1; }
            }
            level High {
                ghost var g: int := 10;
                void main() { g := g + 1; assume true; }
            }
            proof P {
                refinement Low High
                assume_intro
                rely "old(g) >= g"
            }
            "#,
        );
        assert!(!bad.success(), "g := g + 1 violates the non-increase rely");
    }
}
