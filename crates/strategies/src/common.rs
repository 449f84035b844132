//! Shared machinery for the strategy implementations: strategy context,
//! scope typing for the prover, and expression substitution.

use armada_lang::ast::*;
use armada_lang::typeck::{LevelInfo, TypedModule};
use armada_proof::prover::{collect_vars, Hint, ProverCtx};
use armada_proof::{
    DischargedObligation, ObligationKind, ProofObligation, StrategyReport, Verdict,
};
use armada_sm::{lower, Program, StateGraph};
use armada_verify::SimConfig;
use std::cell::{OnceCell, RefCell, RefMut};

use crate::prelude::proof_prelude;

/// Everything a strategy needs about the level pair it certifies.
pub struct StrategyCtx<'a> {
    /// The whole checked module.
    pub typed: &'a TypedModule,
    /// The recipe driving this strategy run.
    pub recipe: &'a Recipe,
    /// The low (more concrete) level.
    pub low: &'a Level,
    /// The high (more abstract) level.
    pub high: &'a Level,
    /// Symbol info for the low level.
    pub low_info: &'a LevelInfo,
    /// Symbol info for the high level.
    pub high_info: &'a LevelInfo,
    /// Lowered low-level program.
    pub low_prog: Program,
    /// Lowered high-level program.
    pub high_prog: Program,
    /// Bounds for model-checked discharges.
    pub sim: SimConfig,
    /// The low level's reachable state graph, explored on first use.
    graph: OnceCell<Result<RefCell<StateGraph>, String>>,
}

impl<'a> StrategyCtx<'a> {
    /// Builds the context for a recipe, lowering both levels.
    ///
    /// # Errors
    ///
    /// Returns a message if a level is missing or fails to lower.
    pub fn build(
        typed: &'a TypedModule,
        recipe: &'a Recipe,
        sim: SimConfig,
    ) -> Result<StrategyCtx<'a>, String> {
        let low = typed
            .module
            .level(&recipe.low)
            .ok_or_else(|| format!("unknown level `{}`", recipe.low))?;
        let high = typed
            .module
            .level(&recipe.high)
            .ok_or_else(|| format!("unknown level `{}`", recipe.high))?;
        let low_info = typed
            .level_info(&recipe.low)
            .ok_or_else(|| format!("level `{}` not checked", recipe.low))?;
        let high_info = typed
            .level_info(&recipe.high)
            .ok_or_else(|| format!("level `{}` not checked", recipe.high))?;
        let low_prog = lower(typed, &recipe.low).map_err(|e| e.to_string())?;
        let high_prog = lower(typed, &recipe.high).map_err(|e| e.to_string())?;
        Ok(StrategyCtx {
            typed,
            recipe,
            low,
            high,
            low_info,
            high_info,
            low_prog,
            high_prog,
            sim,
            graph: OnceCell::new(),
        })
    }

    /// The low level's reachable state graph under this run's bounds:
    /// explored on first use, then shared by every model-checked
    /// obligation of the run, so each state is expanded at most once.
    ///
    /// # Errors
    ///
    /// Returns a message if the low level's initial state cannot be built.
    ///
    /// # Panics
    ///
    /// Panics if the graph is already borrowed.
    pub fn low_graph(&self) -> Result<RefMut<'_, StateGraph>, String> {
        let graph = self.graph.get_or_init(|| {
            StateGraph::explore(&self.low_prog, &self.sim.bounds).map(RefCell::new)
        });
        match graph {
            Ok(graph) => Ok(graph.borrow_mut()),
            Err(err) => Err(err.clone()),
        }
    }

    /// A fresh report shell for this recipe.
    pub fn report(&self) -> StrategyReport {
        StrategyReport {
            recipe: self.recipe.name.clone(),
            low: self.recipe.low.clone(),
            high: self.recipe.high.clone(),
            strategy: self.recipe.strategy,
            obligations: Vec::new(),
            prelude: proof_prelude(&self.low_prog, &self.high_prog),
        }
    }

    /// Typed variables in scope inside `method` of the low level: globals,
    /// ghosts, parameters, and locals.
    pub fn scope_types(&self, method: &str) -> Vec<(String, Type)> {
        scope_types(self.low, method)
    }

    /// A prover context for a goal at `method`'s scope: variables filtered
    /// to those the goal and the kept assumptions mention, recipe invariants
    /// as assumptions, and lemma customizations as hints.
    pub fn prover_ctx(&self, method: &str, goal: &Expr) -> ProverCtx {
        self.prover_ctx_with(method, goal, Vec::new())
    }

    /// Like [`StrategyCtx::prover_ctx`], with extra assumptions (e.g. path
    /// conditions from dominating `assume` statements).
    pub fn prover_ctx_with(&self, method: &str, goal: &Expr, extra: Vec<Expr>) -> ProverCtx {
        let scope = self.scope_types(method);
        let mut assumptions: Vec<Expr> = extra;
        for invariant in &self.recipe.invariants {
            assumptions.push(invariant.expr.clone());
        }
        let hints: Vec<Hint> = self
            .recipe
            .lemmas
            .iter()
            .flat_map(|lemma| {
                lemma.establishes.iter().map(move |fact| Hint {
                    name: lemma.name.clone(),
                    fact: fact.expr.clone(),
                })
            })
            .collect();
        let mut ctx = make_ctx(goal, assumptions, hints, &scope);
        ctx.functions = self.low_prog.functions.clone();
        ctx
    }

    /// Records a failed structural correspondence as a single refuted
    /// obligation.
    pub fn structural_failure(&self, reason: String) -> StrategyReport {
        let mut report = self.report();
        report.obligations.push(DischargedObligation {
            obligation: ProofObligation::new(
                ObligationKind::StructuralCorrespondence {
                    description: format!(
                        "levels `{}` and `{}` exhibit the {} correspondence",
                        self.recipe.low, self.recipe.high, self.recipe.strategy
                    ),
                },
                vec![],
            ),
            verdict: Verdict::Refuted {
                counterexample: reason,
            },
        });
        report
    }
}

/// Typed variables in scope inside `method` of `level`.
pub fn scope_types(level: &Level, method: &str) -> Vec<(String, Type)> {
    let mut scope: Vec<(String, Type)> = Vec::new();
    for global in level.globals() {
        scope.push((global.name.clone(), global.ty.clone()));
    }
    if let Some(decl) = level.method(method) {
        for param in &decl.params {
            scope.push((param.name.clone(), param.ty.clone()));
        }
        if let Some(body) = &decl.body {
            collect_local_types(body, &mut scope);
        }
    }
    scope
}

fn collect_local_types(block: &Block, out: &mut Vec<(String, Type)>) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::VarDecl { name, ty, .. } => out.push((name.clone(), ty.clone())),
            StmtKind::If {
                then_block,
                else_block,
                ..
            } => {
                collect_local_types(then_block, out);
                if let Some(els) = else_block {
                    collect_local_types(els, out);
                }
            }
            StmtKind::While { body, .. } => collect_local_types(body, out),
            StmtKind::Label(_, inner) => {
                collect_local_types(
                    &Block {
                        stmts: vec![(**inner).clone()],
                        span: inner.span,
                    },
                    out,
                );
            }
            StmtKind::ExplicitYield(b) | StmtKind::Atomic(b) | StmtKind::Block(b) => {
                collect_local_types(b, out)
            }
            _ => {}
        }
    }
}

/// Builds a prover context for `goal`: free variables are restricted to the
/// names the goal mentions, plus (transitively) the names mentioned by
/// assumptions that share a variable with the goal — the usual relevance
/// filter that keeps the candidate lattice small.
pub fn make_ctx(
    goal: &Expr,
    assumptions: Vec<Expr>,
    hints: Vec<Hint>,
    scope: &[(String, Type)],
) -> ProverCtx {
    let mut relevant: Vec<String> = Vec::new();
    collect_vars(goal, &mut relevant);
    // Fixed-point relevance closure over assumptions.
    let mut kept: Vec<Expr> = Vec::new();
    let mut remaining: Vec<Expr> = assumptions;
    loop {
        let mut changed = false;
        let mut still_remaining = Vec::new();
        for assumption in remaining {
            let mut mentioned = Vec::new();
            collect_vars(&assumption, &mut mentioned);
            let touches = mentioned.iter().any(|m| {
                relevant.contains(m)
                    || relevant.contains(&format!("old${m}"))
                    || m.strip_prefix("old$")
                        .map(|s| relevant.contains(&s.to_string()))
                        .unwrap_or(false)
            });
            if touches {
                for name in mentioned {
                    if !relevant.contains(&name) {
                        relevant.push(name);
                    }
                }
                kept.push(assumption);
                changed = true;
            } else {
                still_remaining.push(assumption);
            }
        }
        remaining = still_remaining;
        if !changed {
            break;
        }
    }
    let free_vars: Vec<(String, Type)> = scope
        .iter()
        .filter(|(name, _)| {
            relevant.contains(name)
                || relevant
                    .iter()
                    .any(|r| r.strip_prefix("old$") == Some(name))
        })
        .cloned()
        .collect();
    let mut ctx = ProverCtx::new(free_vars);
    ctx.assumptions = kept;
    ctx.hints = hints;
    ctx
}

/// Result of aligning two lowered instruction streams.
#[derive(Debug, Clone, Default)]
pub struct InstrAlignment {
    /// Matched instructions: high PC → low PC.
    pub map: std::collections::BTreeMap<armada_sm::Pc, armada_sm::Pc>,
    /// Instructions present only in the high level (allowed by `skip_high`),
    /// each with the low PC of the instruction that follows it — the program
    /// point the inserted instruction "sits at".
    pub inserted_high: Vec<(armada_sm::Pc, armada_sm::Pc)>,
}

/// Aligns the lowered instruction streams of two programs, requiring them to
/// be identical except for instructions matching the skip predicates
/// (`skip_high` may also be inserted in the high level; `skip_low` may also
/// be present only in the low level). Jump targets are ignored in the
/// comparison (insertions shift indices).
///
/// # Errors
///
/// Returns a message naming the first mismatching instruction.
pub fn align_instructions(
    low: &Program,
    high: &Program,
    skip_high: &dyn Fn(&armada_sm::Instr) -> bool,
    skip_low: &dyn Fn(&armada_sm::Instr) -> bool,
) -> Result<InstrAlignment, String> {
    use armada_sm::{Instr, Pc};
    fn same_modulo_targets(a: &Instr, b: &Instr) -> bool {
        match (a, b) {
            (Instr::Guard { cond: ca, .. }, Instr::Guard { cond: cb, .. }) => {
                armada_lang::pretty::expr_to_string(ca) == armada_lang::pretty::expr_to_string(cb)
            }
            (Instr::Jump(_), Instr::Jump(_)) => true,
            _ => a.describe() == b.describe(),
        }
    }
    if low.routines.len() != high.routines.len() {
        return Err("routine count differs".to_string());
    }
    let mut alignment = InstrAlignment::default();
    for (ri, (low_routine, high_routine)) in low.routines.iter().zip(&high.routines).enumerate() {
        let mut li = 0usize;
        let mut hi = 0usize;
        while hi < high_routine.instrs.len() {
            let high_instr = &high_routine.instrs[hi];
            let low_instr = low_routine.instrs.get(li);
            match low_instr {
                Some(low_instr) if same_modulo_targets(low_instr, high_instr) => {
                    alignment
                        .map
                        .insert(Pc::new(ri as u32, hi as u32), Pc::new(ri as u32, li as u32));
                    li += 1;
                    hi += 1;
                }
                Some(low_instr) if skip_low(low_instr) => {
                    li += 1;
                }
                _ if skip_high(high_instr) => {
                    alignment
                        .inserted_high
                        .push((Pc::new(ri as u32, hi as u32), Pc::new(ri as u32, li as u32)));
                    hi += 1;
                }
                Some(low_instr) => {
                    return Err(format!(
                        "routine `{}`: instruction mismatch `{}` vs `{}`",
                        high_routine.name,
                        low_instr.describe(),
                        high_instr.describe()
                    ))
                }
                None => {
                    return Err(format!(
                        "routine `{}`: high level has extra instruction `{}`",
                        high_routine.name,
                        high_instr.describe()
                    ))
                }
            }
        }
        while li < low_routine.instrs.len() {
            if !skip_low(&low_routine.instrs[li]) {
                return Err(format!(
                    "routine `{}`: low level has extra instruction `{}`",
                    low_routine.name,
                    low_routine.instrs[li].describe()
                ));
            }
            li += 1;
        }
    }
    Ok(alignment)
}

/// Substitutes `replacement` for every free occurrence of variable `name`.
pub fn subst_var(expr: &Expr, name: &str, replacement: &Expr) -> Expr {
    let kind = match &expr.kind {
        ExprKind::Var(v) if v == name => return replacement.clone(),
        ExprKind::Unary(op, a) => ExprKind::Unary(*op, Box::new(subst_var(a, name, replacement))),
        ExprKind::Binary(op, a, b) => ExprKind::Binary(
            *op,
            Box::new(subst_var(a, name, replacement)),
            Box::new(subst_var(b, name, replacement)),
        ),
        ExprKind::AddrOf(a) => ExprKind::AddrOf(Box::new(subst_var(a, name, replacement))),
        ExprKind::Deref(a) => ExprKind::Deref(Box::new(subst_var(a, name, replacement))),
        ExprKind::Field(a, f) => {
            ExprKind::Field(Box::new(subst_var(a, name, replacement)), f.clone())
        }
        ExprKind::Index(a, b) => ExprKind::Index(
            Box::new(subst_var(a, name, replacement)),
            Box::new(subst_var(b, name, replacement)),
        ),
        ExprKind::Old(a) => ExprKind::Old(Box::new(subst_var(a, name, replacement))),
        ExprKind::Allocated(a) => ExprKind::Allocated(Box::new(subst_var(a, name, replacement))),
        ExprKind::AllocatedArray(a) => {
            ExprKind::AllocatedArray(Box::new(subst_var(a, name, replacement)))
        }
        ExprKind::Call(f, args) => ExprKind::Call(
            f.clone(),
            args.iter()
                .map(|a| subst_var(a, name, replacement))
                .collect(),
        ),
        ExprKind::SeqLit(elems) => ExprKind::SeqLit(
            elems
                .iter()
                .map(|e| subst_var(e, name, replacement))
                .collect(),
        ),
        ExprKind::Forall { var, lo, hi, body } if var != name => ExprKind::Forall {
            var: var.clone(),
            lo: Box::new(subst_var(lo, name, replacement)),
            hi: Box::new(subst_var(hi, name, replacement)),
            body: Box::new(subst_var(body, name, replacement)),
        },
        ExprKind::Exists { var, lo, hi, body } if var != name => ExprKind::Exists {
            var: var.clone(),
            lo: Box::new(subst_var(lo, name, replacement)),
            hi: Box::new(subst_var(hi, name, replacement)),
            body: Box::new(subst_var(body, name, replacement)),
        },
        other => other.clone(),
    };
    Expr {
        kind,
        span: expr.span,
    }
}

/// Substitutes `replacement` for every `$me` occurrence.
pub fn subst_me(expr: &Expr, replacement: &Expr) -> Expr {
    let kind = match &expr.kind {
        ExprKind::Me => return replacement.clone(),
        ExprKind::Unary(op, a) => ExprKind::Unary(*op, Box::new(subst_me(a, replacement))),
        ExprKind::Binary(op, a, b) => ExprKind::Binary(
            *op,
            Box::new(subst_me(a, replacement)),
            Box::new(subst_me(b, replacement)),
        ),
        ExprKind::AddrOf(a) => ExprKind::AddrOf(Box::new(subst_me(a, replacement))),
        ExprKind::Deref(a) => ExprKind::Deref(Box::new(subst_me(a, replacement))),
        ExprKind::Field(a, f) => ExprKind::Field(Box::new(subst_me(a, replacement)), f.clone()),
        ExprKind::Index(a, b) => ExprKind::Index(
            Box::new(subst_me(a, replacement)),
            Box::new(subst_me(b, replacement)),
        ),
        ExprKind::Old(a) => ExprKind::Old(Box::new(subst_me(a, replacement))),
        ExprKind::Call(f, args) => ExprKind::Call(
            f.clone(),
            args.iter().map(|a| subst_me(a, replacement)).collect(),
        ),
        ExprKind::SeqLit(elems) => {
            ExprKind::SeqLit(elems.iter().map(|e| subst_me(e, replacement)).collect())
        }
        other => other.clone(),
    };
    Expr {
        kind,
        span: expr.span,
    }
}

/// Builds the boolean expression `a == b`.
pub fn eq_expr(a: Expr, b: Expr) -> Expr {
    Expr::synthetic(ExprKind::Binary(BinOp::Eq, Box::new(a), Box::new(b)))
}

/// Builds the boolean expression `a ==> b`.
pub fn implies_expr(a: Expr, b: Expr) -> Expr {
    Expr::synthetic(ExprKind::Binary(BinOp::Implies, Box::new(a), Box::new(b)))
}

/// Builds the conjunction of `exprs` (true when empty).
pub fn and_exprs(exprs: Vec<Expr>) -> Expr {
    exprs
        .into_iter()
        .reduce(|a, b| Expr::synthetic(ExprKind::Binary(BinOp::And, Box::new(a), Box::new(b))))
        .unwrap_or_else(|| Expr::synthetic(ExprKind::BoolLit(true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::{parse_expr, parse_module};

    #[test]
    fn scope_types_include_globals_params_and_locals() {
        let module = parse_module(
            r#"level L {
                var g: uint32;
                ghost var gh: int;
                void m(p: bool) {
                    var x: uint64;
                    if (p) { var y: uint8; y := 1; }
                }
            }"#,
        )
        .unwrap();
        let scope = scope_types(&module.levels[0], "m");
        let names: Vec<&str> = scope.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["g", "gh", "p", "x", "y"]);
    }

    #[test]
    fn subst_replaces_free_occurrences_only() {
        let expr = parse_expr("x + (forall x in 0 .. 3 :: x > 0)").unwrap();
        let replaced = subst_var(&expr, "x", &parse_expr("42").unwrap());
        let text = armada_lang::pretty::expr_to_string(&replaced);
        assert!(text.starts_with("(42 +"), "{text}");
        assert!(text.contains("forall x"), "bound x untouched: {text}");
    }

    #[test]
    fn subst_me_replaces_meta_variable() {
        let expr = parse_expr("holder == $me").unwrap();
        let replaced = subst_me(&expr, &parse_expr("t1").unwrap());
        assert_eq!(
            armada_lang::pretty::expr_to_string(&replaced),
            "(holder == t1)"
        );
    }

    #[test]
    fn relevance_filter_keeps_connected_assumptions() {
        let goal = parse_expr("x > 0").unwrap();
        let related = parse_expr("x == y").unwrap();
        let unrelated = parse_expr("z == 3").unwrap();
        let scope = vec![
            ("x".to_string(), Type::MathInt),
            ("y".to_string(), Type::MathInt),
            ("z".to_string(), Type::MathInt),
        ];
        let ctx = make_ctx(&goal, vec![related, unrelated], vec![], &scope);
        assert_eq!(ctx.assumptions.len(), 1);
        let names: Vec<&str> = ctx.free_vars.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"x") && names.contains(&"y") && !names.contains(&"z"));
    }
}
