//! TSO elimination (§4.2.3).
//!
//! A pair of programs exhibits the TSO-elimination correspondence when all
//! assignments to a set of locations become TSO-bypassing (`::=`) in the
//! high level, justified by an *ownership discipline*: the recipe supplies a
//! predicate saying which thread owns each location, and the strategy must
//! establish that
//!
//! 1. no two threads ever own the location at once ([`ObligationKind::OwnershipExclusive`]),
//! 2. every access (read or write) happens under ownership
//!    ([`ObligationKind::OwnershipOnAccess`]),
//! 3. any step that releases ownership leaves the releasing thread's store
//!    buffer empty ([`ObligationKind::BufferEmptyOnRelease`]).
//!
//! Exclusivity is discharged symbolically (two fresh thread ids through the
//! predicate); the access and release conditions are discharged by walking
//! every transition of the bounded low-level instance — the data-race
//! freedom check that makes x86-TSO behave like sequential consistency for
//! the eliminated locations.

use armada_lang::ast::*;
use armada_lang::pretty::{expr_to_string, stmt_to_string};
use armada_proof::prover::check_valid;
use armada_proof::{
    DischargedObligation, ObligationKind, ProofMethod, ProofObligation, StrategyReport, Verdict,
};
use armada_sm::effects::{instr_effects, AbsLoc};
use armada_sm::eval::EvalCtx;
use armada_sm::{ProgState, Tid, Walk};
use std::ops::ControlFlow;

use crate::align::{diff_levels, AlignOptions, DiffItem};
use crate::common::{implies_expr, subst_me, StrategyCtx};

/// Runs the TSO-elimination strategy.
pub fn run(ctx: &StrategyCtx<'_>) -> StrategyReport {
    let mut report = ctx.report();
    if ctx.recipe.tso_vars.is_empty() {
        return ctx.structural_failure("tso_elim requires at least one variable".to_string());
    }
    let vars: Vec<&str> = ctx
        .recipe
        .tso_vars
        .iter()
        .map(|(v, _)| v.as_str())
        .collect();

    // --- structural correspondence -----------------------------------------
    let items = match diff_levels(ctx.low, ctx.high, &AlignOptions::default()) {
        Ok(items) => items,
        Err(reason) => return ctx.structural_failure(reason),
    };
    for item in &items {
        match item {
            DiffItem::ChangedStmt { path, low, high } => {
                if !is_sc_flip(low, high, &vars) {
                    return ctx.structural_failure(format!(
                        "difference at {path} is not a `:=`→`::=` flip on an \
                         eliminated variable: `{}` vs `{}`",
                        stmt_to_string(low).trim(),
                        stmt_to_string(high).trim()
                    ));
                }
            }
            other => {
                return ctx.structural_failure(format!(
                    "tso_elim permits only assignment-semantics changes; found {other:?}"
                ))
            }
        }
    }
    // Every assignment to an eliminated variable must be `::=` in the high
    // level.
    for method in ctx.high.methods() {
        if let Some(body) = &method.body {
            if let Some(site) = buffered_write_to(body, &vars) {
                return ctx.structural_failure(format!(
                    "high level still buffers a write to an eliminated variable: {site}"
                ));
            }
        }
    }

    // --- exclusivity (symbolic) ---------------------------------------------
    for (var, ownership) in &ctx.recipe.tso_vars {
        let t1 = Expr::synthetic(ExprKind::Var("t1$".to_string()));
        let t2 = Expr::synthetic(ExprKind::Var("t2$".to_string()));
        let own1 = subst_me(&ownership.expr, &t1);
        let own2 = subst_me(&ownership.expr, &t2);
        let both = Expr::synthetic(ExprKind::Binary(BinOp::And, Box::new(own1), Box::new(own2)));
        let goal = implies_expr(
            both,
            Expr::synthetic(ExprKind::Binary(BinOp::Eq, Box::new(t1), Box::new(t2))),
        );
        let mut prover_ctx = ctx.prover_ctx("main", &goal);
        prover_ctx
            .free_vars
            .push(("t1$".to_string(), Type::Int(IntType::U64)));
        prover_ctx
            .free_vars
            .push(("t2$".to_string(), Type::Int(IntType::U64)));
        let verdict = check_valid(&goal, &prover_ctx);
        report.obligations.push(DischargedObligation {
            obligation: ProofObligation::new(
                ObligationKind::OwnershipExclusive {
                    var: var.clone(),
                    ownership: ownership.text.clone(),
                },
                vec!["assert owns(t1, s) && owns(t2, s) ==> t1 == t2;".to_string()],
            ),
            verdict,
        });
    }

    // --- access & release discipline (model-checked) -------------------------
    check_discipline(ctx, &mut report);
    report
}

/// True when `low`/`high` differ only in the `sc` flag of an assignment
/// whose every target is an eliminated variable.
fn is_sc_flip(low: &Stmt, high: &Stmt, vars: &[&str]) -> bool {
    match (&low.kind, &high.kind) {
        (
            StmtKind::Assign {
                lhs: ll,
                rhs: lr,
                sc: false,
            },
            StmtKind::Assign {
                lhs: hl,
                rhs: hr,
                sc: true,
            },
        ) => {
            let same = ll.len() == hl.len()
                && ll
                    .iter()
                    .zip(hl)
                    .all(|(a, b)| expr_to_string(a) == expr_to_string(b))
                && lr.len() == hr.len()
                && lr
                    .iter()
                    .zip(hr)
                    .all(|(a, b)| crate::align::rhs_text(a) == crate::align::rhs_text(b));
            let targets_eliminated = ll.iter().all(|target| {
                matches!(&target.kind, ExprKind::Var(name) if vars.contains(&name.as_str()))
            });
            same && targets_eliminated
        }
        _ => false,
    }
}

fn buffered_write_to(block: &Block, vars: &[&str]) -> Option<String> {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Assign { lhs, sc: false, .. } => {
                for target in lhs {
                    if matches!(&target.kind, ExprKind::Var(name) if vars.contains(&name.as_str()))
                    {
                        return Some(stmt_to_string(stmt).trim().to_string());
                    }
                }
            }
            StmtKind::If {
                then_block,
                else_block,
                ..
            } => {
                if let Some(found) = buffered_write_to(then_block, vars) {
                    return Some(found);
                }
                if let Some(els) = else_block {
                    if let Some(found) = buffered_write_to(els, vars) {
                        return Some(found);
                    }
                }
            }
            StmtKind::While { body, .. } => {
                if let Some(found) = buffered_write_to(body, vars) {
                    return Some(found);
                }
            }
            StmtKind::ExplicitYield(b) | StmtKind::Atomic(b) | StmtKind::Block(b) => {
                if let Some(found) = buffered_write_to(b, vars) {
                    return Some(found);
                }
            }
            StmtKind::Label(_, inner) => {
                if let StmtKind::Assign { lhs, sc: false, .. } = &inner.kind {
                    for target in lhs {
                        if matches!(&target.kind, ExprKind::Var(name) if vars.contains(&name.as_str()))
                        {
                            return Some(stmt_to_string(inner).trim().to_string());
                        }
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// Walks every reachable transition of the bounded low-level instance,
/// checking the ownership-on-access and buffer-empty-on-release conditions.
fn check_discipline(ctx: &StrategyCtx<'_>, report: &mut StrategyReport) {
    let mut graph = match ctx.low_graph() {
        Ok(graph) => graph,
        Err(err) => {
            report
                .obligations
                .push(unknown_discipline(ctx, format!("initial state: {err}")));
            return;
        }
    };
    let mut access_checks = 0usize;
    let mut release_checks = 0usize;
    let walk = graph.depth_first(
        &ctx.low_prog,
        ctx.sim.bounds.max_states,
        |state| ownership_on_access(ctx, state, &mut access_checks),
        |state, _, next| buffer_empty_on_release(ctx, state, next, &mut release_checks),
    );
    let visited = match walk {
        Walk::Complete { visited } => visited,
        Walk::Truncated => {
            report
                .obligations
                .push(unknown_discipline(ctx, "state space truncated".to_string()));
            return;
        }
        Walk::Stopped(refuted) => {
            report.obligations.push(refuted);
            return;
        }
    };

    for (var, _) in &ctx.recipe.tso_vars {
        report.obligations.push(DischargedObligation {
            obligation: ProofObligation::new(
                ObligationKind::OwnershipOnAccess {
                    var: var.clone(),
                    at: "all reachable accesses".to_string(),
                },
                vec![format!("// {access_checks} accesses checked")],
            ),
            verdict: Verdict::Proved(ProofMethod::ModelChecked { states: visited }),
        });
        report.obligations.push(DischargedObligation {
            obligation: ProofObligation::new(
                ObligationKind::BufferEmptyOnRelease {
                    var: var.clone(),
                    at: "all reachable releases".to_string(),
                },
                vec![format!("// {release_checks} releases checked")],
            ),
            verdict: Verdict::Proved(ProofMethod::ModelChecked { states: visited }),
        });
    }
}

/// Ownership on access: a thread whose *next instruction* touches an
/// eliminated variable must own it now. Stops with the refuted obligation
/// on the first violation.
fn ownership_on_access(
    ctx: &StrategyCtx<'_>,
    state: &ProgState,
    access_checks: &mut usize,
) -> ControlFlow<DischargedObligation> {
    for (&tid, thread) in &state.threads {
        if thread.status != armada_sm::state::ThreadStatus::Active {
            continue;
        }
        let Some(instr) = ctx.low_prog.instr_at(thread.pc) else {
            continue;
        };
        let routine = &ctx.low_prog.routines[thread.pc.routine as usize];
        let effects = instr_effects(&ctx.low_prog, routine, instr);
        for (var, ownership) in &ctx.recipe.tso_vars {
            let touches = effects.reads.contains(&AbsLoc::Global(var.clone()))
                || effects.writes.contains(&AbsLoc::Global(var.clone()));
            if !touches {
                continue;
            }
            *access_checks += 1;
            if !owns(ctx, state, tid, &ownership.expr) {
                return ControlFlow::Break(DischargedObligation {
                    obligation: ProofObligation::new(
                        ObligationKind::OwnershipOnAccess {
                            var: var.clone(),
                            at: format!("{}:{}", routine.name, thread.pc.instr),
                        },
                        vec![format!("// access: {}", instr.describe())],
                    ),
                    verdict: Verdict::Refuted {
                        counterexample: format!(
                            "thread {tid} accesses `{var}` at `{}` without owning it",
                            instr.describe()
                        ),
                    },
                });
            }
        }
    }
    ControlFlow::Continue(())
}

/// Release discipline across one transition: a thread that owns an
/// eliminated variable before the step and not after must have an empty
/// store buffer after it. Stops with the refuted obligation on the first
/// violation.
fn buffer_empty_on_release(
    ctx: &StrategyCtx<'_>,
    state: &ProgState,
    next: &ProgState,
    release_checks: &mut usize,
) -> ControlFlow<DischargedObligation> {
    for (var, ownership) in &ctx.recipe.tso_vars {
        for &tid in state.threads.keys() {
            if owns(ctx, state, tid, &ownership.expr)
                && next.threads.contains_key(&tid)
                && !owns(ctx, next, tid, &ownership.expr)
            {
                *release_checks += 1;
                let buffer_empty = next
                    .threads
                    .get(&tid)
                    .map(|t| t.buffer.is_empty())
                    .unwrap_or(true);
                if !buffer_empty {
                    return ControlFlow::Break(DischargedObligation {
                        obligation: ProofObligation::new(
                            ObligationKind::BufferEmptyOnRelease {
                                var: var.clone(),
                                at: "transition".to_string(),
                            },
                            vec![],
                        ),
                        verdict: Verdict::Refuted {
                            counterexample: format!(
                                "thread {tid} releases ownership of `{var}` with a \
                                 non-empty store buffer"
                            ),
                        },
                    });
                }
            }
        }
    }
    ControlFlow::Continue(())
}

fn unknown_discipline(ctx: &StrategyCtx<'_>, reason: String) -> DischargedObligation {
    DischargedObligation {
        obligation: ProofObligation::new(
            ObligationKind::OwnershipOnAccess {
                var: ctx
                    .recipe
                    .tso_vars
                    .first()
                    .map(|(v, _)| v.clone())
                    .unwrap_or_default(),
                at: "discipline".to_string(),
            },
            vec![],
        ),
        verdict: Verdict::Unknown(reason),
    }
}

/// Evaluates the ownership predicate for `tid` in `state`.
fn owns(ctx: &StrategyCtx<'_>, state: &ProgState, tid: Tid, ownership: &Expr) -> bool {
    let mut eval = EvalCtx::new(&ctx.low_prog, state, tid, &[]);
    matches!(eval.eval(ownership), Ok(armada_sm::Value::Bool(true)))
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

    /// A two-thread program where `x` is protected by a ghost lock
    /// (`holder == $me` ownership), acquired via an atomic block and
    /// released after a fence.
    const LOCKED: &str = r#"
        level Low {
            var x: uint32;
            ghost var holder: int := 0;
            void worker() {
                atomic { assume holder == 0; holder := $me; }
                x := 1;
                fence;
                holder := 0;
            }
            void main() {
                var t: uint64 := create_thread worker();
                atomic { assume holder == 0; holder := $me; }
                x := 2;
                fence;
                holder := 0;
                join t;
            }
        }
        level High {
            var x: uint32;
            ghost var holder: int := 0;
            void worker() {
                atomic { assume holder == 0; holder := $me; }
                x ::= 1;
                fence;
                holder := 0;
            }
            void main() {
                var t: uint64 := create_thread worker();
                atomic { assume holder == 0; holder := $me; }
                x ::= 2;
                fence;
                holder := 0;
                join t;
            }
        }
    "#;

    #[test]
    fn lock_protected_variable_eliminates() {
        let report = run_recipe(&format!(
            r#"{LOCKED}
            proof P {{
                refinement Low High
                tso_elim x "holder == $me"
            }}"#
        ));
        assert!(report.success(), "{}", report.failure_summary());
        let kinds: Vec<&str> = report
            .obligations
            .iter()
            .map(|o| o.obligation.kind.label())
            .collect();
        assert!(kinds.contains(&"ownership-exclusive"));
        assert!(kinds.contains(&"ownership-on-access"));
        assert!(kinds.contains(&"buffer-empty-on-release"));
    }

    #[test]
    fn racy_access_is_refuted() {
        // Like LOCKED but with an unprotected read of x in main.
        let report = run_recipe(
            r#"
            level Low {
                var x: uint32;
                ghost var holder: int := 0;
                void worker() {
                    atomic { assume holder == 0; holder := $me; }
                    x := 1;
                    fence;
                    holder := 0;
                }
                void main() {
                    var t: uint64 := create_thread worker();
                    var racy: uint32 := x;
                    print(racy);
                    join t;
                }
            }
            level High {
                var x: uint32;
                ghost var holder: int := 0;
                void worker() {
                    atomic { assume holder == 0; holder := $me; }
                    x ::= 1;
                    fence;
                    holder := 0;
                }
                void main() {
                    var t: uint64 := create_thread worker();
                    var racy: uint32 := x;
                    print(racy);
                    join t;
                }
            }
            proof P {
                refinement Low High
                tso_elim x "holder == $me"
            }
            "#,
        );
        assert!(!report.success(), "the racy read must be caught");
        assert!(report.failure_summary().contains("without owning"));
    }

    #[test]
    fn release_with_buffered_writes_is_refuted() {
        // No fence before releasing the lock: the write to x may still be
        // buffered when ownership is handed over.
        let report = run_recipe(
            r#"
            level Low {
                var x: uint32;
                ghost var holder: int := 0;
                void worker() {
                    atomic { assume holder == 0; holder := $me; }
                    x := 1;
                    holder := 0;
                }
                void main() {
                    var t: uint64 := create_thread worker();
                    join t;
                }
            }
            level High {
                var x: uint32;
                ghost var holder: int := 0;
                void worker() {
                    atomic { assume holder == 0; holder := $me; }
                    x ::= 1;
                    holder := 0;
                }
                void main() {
                    var t: uint64 := create_thread worker();
                    join t;
                }
            }
            proof P {
                refinement Low High
                tso_elim x "holder == $me"
            }
            "#,
        );
        assert!(!report.success());
        assert!(report.failure_summary().contains("store buffer"));
    }

    #[test]
    fn non_exclusive_ownership_predicate_is_refuted() {
        let report = run_recipe(&format!(
            r#"{LOCKED}
            proof P {{
                refinement Low High
                tso_elim x "true"
            }}"#
        ));
        assert!(!report.success(), "`true` lets two threads own x at once");
    }

    #[test]
    fn leftover_buffered_write_in_high_level_is_structural_failure() {
        let report = run_recipe(
            r#"
            level Low {
                var x: uint32;
                void main() { x := 1; x := 2; }
            }
            level High {
                var x: uint32;
                void main() { x ::= 1; x := 2; }
            }
            proof P {
                refinement Low High
                tso_elim x "$me == 1"
            }
            "#,
        );
        assert!(!report.success());
        assert!(report.failure_summary().contains("still buffers"));
    }
}
