//! The obligation-discharge engine — this repository's stand-in for the
//! Dafny/Z3 toolchain of the paper (see DESIGN.md, substitutions).
//!
//! Validity of a quantifier-free goal under assumptions is established by a
//! pipeline:
//!
//! 1. **Syntactic** — constant folding and matching against assumption /
//!    hint texts (the analogue of Dafny dispatching a lemma by invoking a
//!    developer-supplied one; §4.1.2 lemma customization).
//! 2. **Bounded exhaustive evaluation** — every free variable ranges over a
//!    typed candidate domain (boundary values plus small values for machine
//!    integers; small collections for ghost types); the goal must hold under
//!    every assignment satisfying the assumptions. A falsifying assignment
//!    is a genuine counterexample; exhausting the lattice yields
//!    [`ProofMethod::BoundedExhaustive`]. This is deliberately weaker than
//!    Z3 — the bounded refinement model checker in `armada-verify`
//!    independently re-validates end-to-end refinement, and the two
//!    mechanisms' failure modes are disjoint.
//!
//! Two-state predicates use `old(x)`, which is rewritten to a fresh free
//! variable `old$x` before evaluation.

use armada_lang::ast::{BinOp, Expr, ExprKind, IntType, Type, UnOp};
use armada_lang::pretty::expr_to_string;
use armada_sm::eval::{builtin, normalize_key};
use armada_sm::Value;
use std::collections::BTreeMap;
use std::fmt;

/// How a proved obligation was established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofMethod {
    /// Constant folding / structural identity.
    Syntactic,
    /// Matched a developer hint (lemma customization) verbatim.
    Oracle(String),
    /// Effect footprints were disjoint (used by reduction).
    EffectDisjointness,
    /// Exhaustive evaluation over the candidate lattice.
    BoundedExhaustive {
        /// Number of satisfying assignments checked.
        assignments: usize,
    },
    /// Verified by exploring the reachable states of the bounded instance.
    ModelChecked {
        /// Number of states visited.
        states: usize,
    },
    /// Established structurally by the strategy itself (e.g. program
    /// erasure equality).
    Structural,
}

/// The engine's verdict on one obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The obligation holds.
    Proved(ProofMethod),
    /// A counterexample was found; the recipe is wrong (or the program does
    /// not satisfy the claimed correspondence).
    Refuted {
        /// Rendering of the falsifying assignment or trace.
        counterexample: String,
    },
    /// The engine could not decide (out-of-scope construct, lattice too
    /// large). Treated as failure — exactly as an undischarged Dafny lemma
    /// would be.
    Unknown(String),
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Proved(method) => write!(f, "proved ({method:?})"),
            Verdict::Refuted { counterexample } => {
                write!(f, "refuted: {counterexample}")
            }
            Verdict::Unknown(reason) => write!(f, "unknown: {reason}"),
        }
    }
}

/// A developer-supplied fact the engine may assume (lemma customization,
/// §4.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Hint {
    /// The lemma's name, recorded in the proof method.
    pub name: String,
    /// The fact, as an expression over the obligation's free variables.
    pub fact: Expr,
}

/// Prover context: typed free variables, assumptions, and hints.
#[derive(Debug, Clone, Default)]
pub struct ProverCtx {
    /// Free variables with their types; `old(x)` adds `old$x` automatically.
    pub free_vars: Vec<(String, Type)>,
    /// Assumed facts (invariants, rely predicates, path conditions).
    pub assumptions: Vec<Expr>,
    /// Developer hints.
    pub hints: Vec<Hint>,
    /// Ghost pure-function definitions, inlined before evaluation.
    pub functions: BTreeMap<String, armada_lang::ast::FunctionDecl>,
    /// Cap on the candidate-lattice size before giving up.
    pub max_assignments: usize,
}

impl ProverCtx {
    /// A context over the given typed variables.
    pub fn new(free_vars: Vec<(String, Type)>) -> ProverCtx {
        ProverCtx {
            free_vars,
            assumptions: Vec::new(),
            hints: Vec::new(),
            functions: BTreeMap::new(),
            max_assignments: 250_000,
        }
    }

    /// Adds an assumption.
    pub fn assume(&mut self, fact: Expr) -> &mut Self {
        self.assumptions.push(fact);
        self
    }
}

/// Checks that `goal` holds under `ctx` (assumptions ⟹ goal, for every
/// candidate assignment of the free variables).
pub fn check_valid(goal: &Expr, ctx: &ProverCtx) -> Verdict {
    // Stage 0: oracle hints — a hint that textually matches the goal
    // discharges it, as would invoking the corresponding Dafny lemma.
    let goal_text = expr_to_string(goal);
    for hint in &ctx.hints {
        if expr_to_string(&hint.fact) == goal_text {
            return Verdict::Proved(ProofMethod::Oracle(hint.name.clone()));
        }
    }
    for assumption in &ctx.assumptions {
        if expr_to_string(assumption) == goal_text {
            return Verdict::Proved(ProofMethod::Syntactic);
        }
    }

    // Stage 1: inline ghost functions, rewrite old(), fold constants.
    let goal = rewrite_old(&inline_functions(goal, &ctx.functions, 0));
    let assumptions: Vec<Expr> = ctx
        .assumptions
        .iter()
        .chain(ctx.hints.iter().map(|h| &h.fact))
        .map(|a| rewrite_old(&inline_functions(a, &ctx.functions, 0)))
        .collect();

    let mut vars: Vec<(String, Type)> = ctx.free_vars.clone();
    // Add old$x twins for every declared variable mentioned under old().
    let mut mentions = Vec::new();
    collect_vars(&goal, &mut mentions);
    for assumption in &assumptions {
        collect_vars(assumption, &mut mentions);
    }
    for name in &mentions {
        if let Some(stripped) = name.strip_prefix("old$") {
            if !vars.iter().any(|(v, _)| v == name) {
                if let Some((_, ty)) = ctx.free_vars.iter().find(|(v, _)| v == stripped).cloned() {
                    vars.push((name.clone(), ty));
                }
            }
        }
    }
    // Unknown free variables make the goal undecidable for us.
    for name in &mentions {
        if name == "$me" {
            continue;
        }
        if !vars.iter().any(|(v, _)| v == name) {
            return Verdict::Unknown(format!("unconstrained variable `{name}`"));
        }
    }
    // $me is a u64 if used.
    if mentions.iter().any(|m| m == "$me") && !vars.iter().any(|(v, _)| v == "$me") {
        vars.push(("$me".to_string(), Type::Int(IntType::U64)));
    }

    // Stage 2: bounded exhaustive evaluation. The candidate domains are the
    // per-type lattices extended with every integer literal the goal and
    // assumptions mention, so constraints like `y == 4` are satisfiable.
    let mut literals: Vec<i128> = Vec::new();
    collect_literals(&goal, &mut literals);
    for assumption in &assumptions {
        collect_literals(assumption, &mut literals);
    }
    literals.sort_unstable();
    literals.dedup();
    literals.truncate(12);
    let domains: Vec<(String, Vec<Value>)> = vars
        .iter()
        .map(|(name, ty)| {
            let mut domain = domain_of(ty);
            match ty {
                Type::Int(int_ty) => {
                    for &lit in &literals {
                        let value = Value::int(*int_ty, lit);
                        if !domain.contains(&value) {
                            domain.push(value);
                        }
                    }
                }
                Type::MathInt => {
                    for &lit in &literals {
                        let value = Value::MathInt(lit);
                        if !domain.contains(&value) {
                            domain.push(value);
                        }
                    }
                }
                _ => {}
            }
            (name.clone(), domain)
        })
        .collect();
    let lattice: usize = domains.iter().map(|(_, d)| d.len().max(1)).product();
    if lattice > ctx.max_assignments {
        return Verdict::Unknown(format!(
            "candidate lattice too large ({lattice} assignments)"
        ));
    }
    // File each assumption under the depth at which its last free variable
    // is bound, so a failing assumption prunes the whole subtree below it
    // instead of failing once per leaf.
    let mut by_depth: Vec<Vec<&Expr>> = vec![Vec::new(); domains.len() + 1];
    for assumption in &assumptions {
        let mut free = Vec::new();
        collect_vars(assumption, &mut free);
        let depth = domains
            .iter()
            .rposition(|(name, _)| free.contains(name))
            .map_or(0, |last| last + 1);
        by_depth[depth].push(assumption);
    }
    // Every name is bound once up front; the enumeration then overwrites
    // its value in place. An expression is only evaluated once all of its
    // free variables hold this path's values, so the placeholder is never
    // read.
    let mut env: BTreeMap<String, Value> = domains
        .iter()
        .map(|(name, _)| (name.clone(), Value::Bool(false)))
        .collect();
    let mut checked = 0usize;
    let verdict = enumerate(&domains, 0, &mut env, &by_depth, &goal, &mut checked);
    match verdict {
        Some(counterexample) => Verdict::Refuted { counterexample },
        // Zero satisfying assignments means the assumptions were not
        // exercised at all — refuse to call a vacuous check a proof.
        None if checked == 0 && !domains.is_empty() => {
            Verdict::Unknown("assumptions unsatisfiable on the candidate lattice".to_string())
        }
        None => Verdict::Proved(ProofMethod::BoundedExhaustive {
            assignments: checked,
        }),
    }
}

/// Collects integer literals for domain extension.
fn collect_literals(expr: &Expr, out: &mut Vec<i128>) {
    use ExprKind::*;
    match &expr.kind {
        IntLit(value) => out.push(*value),
        Unary(_, a)
        | AddrOf(a)
        | Deref(a)
        | Old(a)
        | Allocated(a)
        | AllocatedArray(a)
        | Field(a, _) => collect_literals(a, out),
        Binary(_, a, b) | Index(a, b) => {
            collect_literals(a, out);
            collect_literals(b, out);
        }
        Call(_, args) | SeqLit(args) => {
            for a in args {
                collect_literals(a, out);
            }
        }
        Forall { lo, hi, body, .. } | Exists { lo, hi, body, .. } => {
            collect_literals(lo, out);
            collect_literals(hi, out);
            collect_literals(body, out);
        }
        _ => {}
    }
}

/// Enumerates the assignments of `domains[index..]` in order, skipping
/// every subtree in which an assumption of `by_depth` fails (or cannot be
/// evaluated), and counts the goal checks in `checked`. Returns the first
/// counterexample.
fn enumerate(
    domains: &[(String, Vec<Value>)],
    index: usize,
    env: &mut BTreeMap<String, Value>,
    by_depth: &[Vec<&Expr>],
    goal: &Expr,
    checked: &mut usize,
) -> Option<String> {
    // Un-evaluable assumptions make the assignment vacuous, like false
    // ones: we cannot rely on them, so skip (the conservative direction
    // would be Unknown, but assumptions that mention heap state simply do
    // not constrain pure assignments).
    for assumption in &by_depth[index] {
        if !matches!(pure_eval(assumption, env), Ok(Value::Bool(true))) {
            return None;
        }
    }
    if index == domains.len() {
        *checked += 1;
        return match pure_eval(goal, env) {
            Ok(Value::Bool(true)) => None,
            Ok(Value::Bool(false)) => Some(render_env(env)),
            Ok(other) => Some(format!("goal evaluated to non-boolean {other}")),
            Err(reason) => Some(format!(
                "goal not evaluable: {reason} under {}",
                render_env(env)
            )),
        };
    }
    let (name, domain) = &domains[index];
    for value in domain {
        env.get_mut(name)
            .expect("every name is bound up front")
            .clone_from(value);
        if let Some(ce) = enumerate(domains, index + 1, env, by_depth, goal, checked) {
            return Some(ce);
        }
    }
    None
}

fn render_env(env: &BTreeMap<String, Value>) -> String {
    env.iter()
        .map(|(k, v)| format!("{k} = {v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Candidate domain per type: boundary values plus small values, the
/// standard small-scope lattice.
pub fn domain_of(ty: &Type) -> Vec<Value> {
    match ty {
        Type::Bool => vec![Value::Bool(false), Value::Bool(true)],
        Type::Int(int_ty) => {
            let mut values = vec![0, 1, 2, 3, int_ty.max_value(), int_ty.max_value() - 1];
            if int_ty.signed {
                values.push(-1);
                values.push(int_ty.min_value());
            }
            values.sort_unstable();
            values.dedup();
            values.into_iter().map(|v| Value::int(*int_ty, v)).collect()
        }
        Type::MathInt => vec![-2, -1, 0, 1, 2, 3, 7]
            .into_iter()
            .map(Value::MathInt)
            .collect(),
        Type::Pointer(_) => vec![Value::Ptr(None)],
        Type::Seq(elem) => {
            let elem_values = domain_of(elem);
            let mut out = vec![Value::Seq(vec![])];
            if let Some(first) = elem_values.first() {
                out.push(Value::Seq(vec![first.clone()]));
                if let Some(second) = elem_values.get(1) {
                    out.push(Value::Seq(vec![first.clone(), second.clone()]));
                    out.push(Value::Seq(vec![second.clone(), first.clone()]));
                }
            }
            out
        }
        Type::Set(elem) => {
            let elem_values: Vec<Value> = domain_of(elem).into_iter().map(normalize_key).collect();
            let mut out = vec![Value::Set(Default::default())];
            if let Some(first) = elem_values.first() {
                out.push(Value::Set([first.clone()].into_iter().collect()));
                if let Some(second) = elem_values.get(1) {
                    out.push(Value::Set(
                        [first.clone(), second.clone()].into_iter().collect(),
                    ));
                }
            }
            out
        }
        Type::Map(key, value) => {
            let keys: Vec<Value> = domain_of(key).into_iter().map(normalize_key).collect();
            let values = domain_of(value);
            let mut out = vec![Value::Map(Default::default())];
            if let (Some(k), Some(v)) = (keys.first(), values.first()) {
                out.push(Value::Map([(k.clone(), v.clone())].into_iter().collect()));
            }
            out
        }
        Type::Option(inner) => {
            let mut out = vec![Value::Opt(None)];
            if let Some(first) = domain_of(inner).first() {
                out.push(Value::Opt(Some(Box::new(first.clone()))));
            }
            out
        }
        // Structs/arrays as free variables are out of scope for the pure
        // engine; strategies route those through the model checker instead.
        Type::Array(_, _) | Type::Named(_) => vec![],
    }
}

/// Inlines ghost pure-function calls by substituting arguments into bodies,
/// up to a small depth (recursive ghost functions stay uninterpreted beyond
/// it and then require hints).
pub fn inline_functions(
    expr: &Expr,
    functions: &BTreeMap<String, armada_lang::ast::FunctionDecl>,
    depth: u32,
) -> Expr {
    if functions.is_empty() || depth > 8 {
        return expr.clone();
    }
    let rec = |e: &Expr| inline_functions(e, functions, depth);
    let kind = match &expr.kind {
        ExprKind::Call(name, args) => {
            let args: Vec<Expr> = args.iter().map(rec).collect();
            if let Some(func) = functions.get(name) {
                let mut body = func.body.clone();
                for (param, arg) in func.params.iter().zip(&args) {
                    body = subst(&body, &param.name, arg);
                }
                return inline_functions(&body, functions, depth + 1);
            }
            ExprKind::Call(name.clone(), args)
        }
        ExprKind::Unary(op, a) => ExprKind::Unary(*op, Box::new(rec(a))),
        ExprKind::Binary(op, a, b) => ExprKind::Binary(*op, Box::new(rec(a)), Box::new(rec(b))),
        ExprKind::AddrOf(a) => ExprKind::AddrOf(Box::new(rec(a))),
        ExprKind::Deref(a) => ExprKind::Deref(Box::new(rec(a))),
        ExprKind::Field(a, f) => ExprKind::Field(Box::new(rec(a)), f.clone()),
        ExprKind::Index(a, b) => ExprKind::Index(Box::new(rec(a)), Box::new(rec(b))),
        ExprKind::Old(a) => ExprKind::Old(Box::new(rec(a))),
        ExprKind::Allocated(a) => ExprKind::Allocated(Box::new(rec(a))),
        ExprKind::AllocatedArray(a) => ExprKind::AllocatedArray(Box::new(rec(a))),
        ExprKind::SeqLit(elems) => ExprKind::SeqLit(elems.iter().map(rec).collect()),
        ExprKind::Forall { var, lo, hi, body } => ExprKind::Forall {
            var: var.clone(),
            lo: Box::new(rec(lo)),
            hi: Box::new(rec(hi)),
            body: Box::new(rec(body)),
        },
        ExprKind::Exists { var, lo, hi, body } => ExprKind::Exists {
            var: var.clone(),
            lo: Box::new(rec(lo)),
            hi: Box::new(rec(hi)),
            body: Box::new(rec(body)),
        },
        other => other.clone(),
    };
    Expr {
        kind,
        span: expr.span,
    }
}

/// Capture-avoiding-enough substitution for function inlining (ghost
/// function bodies only reference their parameters).
fn subst(expr: &Expr, name: &str, replacement: &Expr) -> Expr {
    let kind = match &expr.kind {
        ExprKind::Var(v) if v == name => return replacement.clone(),
        ExprKind::Unary(op, a) => ExprKind::Unary(*op, Box::new(subst(a, name, replacement))),
        ExprKind::Binary(op, a, b) => ExprKind::Binary(
            *op,
            Box::new(subst(a, name, replacement)),
            Box::new(subst(b, name, replacement)),
        ),
        ExprKind::Call(f, args) => ExprKind::Call(
            f.clone(),
            args.iter().map(|a| subst(a, name, replacement)).collect(),
        ),
        ExprKind::Index(a, b) => ExprKind::Index(
            Box::new(subst(a, name, replacement)),
            Box::new(subst(b, name, replacement)),
        ),
        ExprKind::Field(a, f) => ExprKind::Field(Box::new(subst(a, name, replacement)), f.clone()),
        ExprKind::SeqLit(elems) => {
            ExprKind::SeqLit(elems.iter().map(|e| subst(e, name, replacement)).collect())
        }
        ExprKind::Forall { var, lo, hi, body } if var != name => ExprKind::Forall {
            var: var.clone(),
            lo: Box::new(subst(lo, name, replacement)),
            hi: Box::new(subst(hi, name, replacement)),
            body: Box::new(subst(body, name, replacement)),
        },
        ExprKind::Exists { var, lo, hi, body } if var != name => ExprKind::Exists {
            var: var.clone(),
            lo: Box::new(subst(lo, name, replacement)),
            hi: Box::new(subst(hi, name, replacement)),
            body: Box::new(subst(body, name, replacement)),
        },
        other => other.clone(),
    };
    Expr {
        kind,
        span: expr.span,
    }
}

/// Rewrites `old(x)` to the fresh variable `old$x`; nested non-variable
/// `old(e)` distributes over `e`'s variables.
pub fn rewrite_old(expr: &Expr) -> Expr {
    fn rec(expr: &Expr, under_old: bool) -> Expr {
        let kind = match &expr.kind {
            ExprKind::Var(name) if under_old => ExprKind::Var(format!("old${name}")),
            ExprKind::Old(inner) => return rec(inner, true),
            ExprKind::Unary(op, a) => ExprKind::Unary(*op, Box::new(rec(a, under_old))),
            ExprKind::Binary(op, a, b) => ExprKind::Binary(
                *op,
                Box::new(rec(a, under_old)),
                Box::new(rec(b, under_old)),
            ),
            ExprKind::AddrOf(a) => ExprKind::AddrOf(Box::new(rec(a, under_old))),
            ExprKind::Deref(a) => ExprKind::Deref(Box::new(rec(a, under_old))),
            ExprKind::Field(a, f) => ExprKind::Field(Box::new(rec(a, under_old)), f.clone()),
            ExprKind::Index(a, b) => {
                ExprKind::Index(Box::new(rec(a, under_old)), Box::new(rec(b, under_old)))
            }
            ExprKind::Call(name, args) => ExprKind::Call(
                name.clone(),
                args.iter().map(|a| rec(a, under_old)).collect(),
            ),
            ExprKind::SeqLit(elems) => {
                ExprKind::SeqLit(elems.iter().map(|e| rec(e, under_old)).collect())
            }
            ExprKind::Allocated(a) => ExprKind::Allocated(Box::new(rec(a, under_old))),
            ExprKind::AllocatedArray(a) => ExprKind::AllocatedArray(Box::new(rec(a, under_old))),
            ExprKind::Forall { var, lo, hi, body } => ExprKind::Forall {
                var: var.clone(),
                lo: Box::new(rec(lo, under_old)),
                hi: Box::new(rec(hi, under_old)),
                body: Box::new(rec(body, under_old)),
            },
            ExprKind::Exists { var, lo, hi, body } => ExprKind::Exists {
                var: var.clone(),
                lo: Box::new(rec(lo, under_old)),
                hi: Box::new(rec(hi, under_old)),
                body: Box::new(rec(body, under_old)),
            },
            other => other.clone(),
        };
        Expr {
            kind,
            span: expr.span,
        }
    }
    rec(expr, false)
}

/// Collects free variable names (quantifier-bound names excluded).
pub fn collect_vars(expr: &Expr, out: &mut Vec<String>) {
    fn rec(expr: &Expr, bound: &mut Vec<String>, out: &mut Vec<String>) {
        use ExprKind::*;
        match &expr.kind {
            Var(name) if !bound.contains(name) && !out.contains(name) => {
                out.push(name.clone());
            }
            Me if !out.iter().any(|v| v == "$me") => out.push("$me".to_string()),
            Unary(_, a)
            | AddrOf(a)
            | Deref(a)
            | Old(a)
            | Allocated(a)
            | AllocatedArray(a)
            | Field(a, _) => rec(a, bound, out),
            Binary(_, a, b) | Index(a, b) => {
                rec(a, bound, out);
                rec(b, bound, out);
            }
            Call(_, args) | SeqLit(args) => {
                for a in args {
                    rec(a, bound, out);
                }
            }
            Forall { var, lo, hi, body } | Exists { var, lo, hi, body } => {
                rec(lo, bound, out);
                rec(hi, bound, out);
                bound.push(var.clone());
                rec(body, bound, out);
                bound.pop();
            }
            _ => {}
        }
    }
    rec(expr, &mut Vec::new(), out)
}

/// Evaluates a pure (state-free) expression under an environment. Pointer
/// dereferences, `allocated`, and `$sb_empty` are out of scope and error.
pub fn pure_eval(expr: &Expr, env: &BTreeMap<String, Value>) -> Result<Value, String> {
    match &expr.kind {
        ExprKind::IntLit(value) => Ok(Value::MathInt(*value)),
        ExprKind::BoolLit(value) => Ok(Value::Bool(*value)),
        ExprKind::Null => Ok(Value::Ptr(None)),
        ExprKind::Var(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| format!("unbound `{name}`")),
        ExprKind::Me => env
            .get("$me")
            .cloned()
            .ok_or_else(|| "unbound `$me`".to_string()),
        ExprKind::Unary(op, operand) => {
            let value = pure_eval(operand, env)?;
            match (op, &value) {
                (UnOp::Neg, Value::Int { ty, val }) => Ok(Value::int(*ty, -*val)),
                (UnOp::Neg, Value::MathInt(v)) => Ok(Value::MathInt(-*v)),
                (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                (UnOp::BitNot, Value::Int { ty, val }) => Ok(Value::int(*ty, !*val)),
                (UnOp::BitNot, Value::MathInt(v)) => Ok(Value::MathInt(!*v)),
                _ => Err(format!("`{op}` on {value}")),
            }
        }
        ExprKind::Binary(op, lhs, rhs) => {
            // Short-circuit, then generic.
            match op {
                BinOp::And => {
                    return match pure_eval(lhs, env)? {
                        Value::Bool(false) => Ok(Value::Bool(false)),
                        Value::Bool(true) => pure_eval(rhs, env),
                        other => Err(format!("`&&` on {other}")),
                    }
                }
                BinOp::Or => {
                    return match pure_eval(lhs, env)? {
                        Value::Bool(true) => Ok(Value::Bool(true)),
                        Value::Bool(false) => pure_eval(rhs, env),
                        other => Err(format!("`||` on {other}")),
                    }
                }
                BinOp::Implies => {
                    return match pure_eval(lhs, env)? {
                        Value::Bool(false) => Ok(Value::Bool(true)),
                        Value::Bool(true) => pure_eval(rhs, env),
                        other => Err(format!("`==>` on {other}")),
                    }
                }
                _ => {}
            }
            let a = pure_eval(lhs, env)?;
            let b = pure_eval(rhs, env)?;
            pure_binary(*op, a, b)
        }
        ExprKind::Index(base, index) => {
            let base = pure_eval(base, env)?;
            let index = pure_eval(index, env)?;
            match base {
                Value::Seq(elems) => {
                    let i = index.as_int().ok_or("non-numeric index")?;
                    elems
                        .get(i.max(0) as usize)
                        .cloned()
                        .ok_or_else(|| "sequence index out of range".to_string())
                }
                Value::Map(entries) => entries
                    .get(&normalize_key(index))
                    .cloned()
                    .ok_or_else(|| "missing map key".to_string()),
                other => Err(format!("cannot index {other}")),
            }
        }
        ExprKind::Call(name, args) => {
            let values: Vec<Value> = args
                .iter()
                .map(|a| pure_eval(a, env))
                .collect::<Result<_, _>>()?;
            match builtin(name, &values) {
                Ok(Some(result)) => Ok(result),
                Ok(None) => Err(format!("non-builtin call `{name}` in pure context")),
                Err(err) => Err(err.to_string()),
            }
        }
        ExprKind::SeqLit(elems) => Ok(Value::Seq(
            elems
                .iter()
                .map(|e| pure_eval(e, env))
                .collect::<Result<_, _>>()?,
        )),
        ExprKind::Forall { var, lo, hi, body } | ExprKind::Exists { var, lo, hi, body } => {
            let is_forall = matches!(expr.kind, ExprKind::Forall { .. });
            let lo = pure_eval(lo, env)?.as_int().ok_or("non-numeric bound")?;
            let hi = pure_eval(hi, env)?.as_int().ok_or("non-numeric bound")?;
            if hi - lo > 4096 {
                return Err("quantifier range too large".into());
            }
            let mut env = env.clone();
            for i in lo..hi {
                env.insert(var.clone(), Value::MathInt(i));
                match pure_eval(body, &env)? {
                    Value::Bool(b) => {
                        if is_forall && !b {
                            return Ok(Value::Bool(false));
                        }
                        if !is_forall && b {
                            return Ok(Value::Bool(true));
                        }
                    }
                    other => return Err(format!("quantifier body {other}")),
                }
            }
            Ok(Value::Bool(is_forall))
        }
        other => Err(format!("out-of-scope construct {other:?}")),
    }
}

/// Binary operations on pure values (no pointers beyond null-equality).
pub fn pure_binary(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use BinOp::*;
    match (op, &a, &b) {
        (Eq, Value::Ptr(p), Value::Ptr(q)) => return Ok(Value::Bool(p == q)),
        (Ne, Value::Ptr(p), Value::Ptr(q)) => return Ok(Value::Bool(p != q)),
        (Add, Value::Seq(x), Value::Seq(y)) => {
            let mut out = x.clone();
            out.extend(y.iter().cloned());
            return Ok(Value::Seq(out));
        }
        (Add, Value::Set(x), Value::Set(y)) => {
            return Ok(Value::Set(x.union(y).cloned().collect()))
        }
        (Sub, Value::Set(x), Value::Set(y)) => {
            return Ok(Value::Set(x.difference(y).cloned().collect()))
        }
        _ => {}
    }
    if matches!(op, Eq | Ne) && !a.is_numeric() && !b.is_numeric() {
        let eq = normalize_key(a) == normalize_key(b);
        return Ok(Value::Bool(if op == Eq { eq } else { !eq }));
    }
    let (x, y) = match (a.as_int(), b.as_int()) {
        (Some(x), Some(y)) => (x, y),
        _ => return Err(format!("`{op}` on {a} and {b}")),
    };
    if op.is_comparison() {
        let result = match op {
            Eq => x == y,
            Ne => x != y,
            Lt => x < y,
            Le => x <= y,
            Gt => x > y,
            _ => x >= y,
        };
        return Ok(Value::Bool(result));
    }
    let ty = match (&a, &b) {
        (Value::Int { ty: ta, .. }, Value::Int { ty: tb, .. }) => {
            Some(if ta.bits >= tb.bits { *ta } else { *tb })
        }
        (Value::Int { ty, .. }, _) | (_, Value::Int { ty, .. }) => Some(*ty),
        _ => None,
    };
    let exact = match op {
        Add => x.checked_add(y),
        Sub => x.checked_sub(y),
        Mul => x.checked_mul(y),
        Div => {
            if y == 0 {
                return Err("division by zero".into());
            }
            x.checked_div(y)
        }
        Mod => {
            if y == 0 {
                return Err("modulus by zero".into());
            }
            x.checked_rem(y)
        }
        BitAnd => Some(x & y),
        BitOr => Some(x | y),
        BitXor => Some(x ^ y),
        Shl => {
            let width = ty.map(|t| t.bits as i128).unwrap_or(127);
            if y < 0 || y >= width {
                return Err("invalid shift".into());
            }
            x.checked_shl(y as u32)
        }
        Shr => {
            let width = ty.map(|t| t.bits as i128).unwrap_or(127);
            if y < 0 || y >= width {
                return Err("invalid shift".into());
            }
            Some(x >> y)
        }
        _ => unreachable!(),
    };
    match ty {
        Some(ty) => Ok(Value::int(
            ty,
            exact.unwrap_or_else(|| match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                _ => 0,
            }),
        )),
        None => exact.map(Value::MathInt).ok_or_else(|| "overflow".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::parse_expr;

    fn prove(goal: &str, vars: &[(&str, Type)]) -> Verdict {
        let ctx = ProverCtx::new(
            vars.iter()
                .map(|(n, t)| (n.to_string(), t.clone()))
                .collect(),
        );
        check_valid(&parse_expr(goal).unwrap(), &ctx)
    }

    #[test]
    fn proves_tautologies_over_machine_ints() {
        let u32ty = Type::Int(IntType::U32);
        assert!(matches!(
            prove("x <= x", &[("x", u32ty.clone())]),
            Verdict::Proved(_)
        ));
        // Parenthesized: C precedence parses the bare form as `x & (…)`.
        assert!(matches!(
            prove("(x & 1) == (x % 2)", &[("x", u32ty.clone())]),
            Verdict::Proved(_)
        ));
        assert!(matches!(
            prove("x < 10 ==> x + 1 <= 10", &[("x", u32ty)]),
            Verdict::Proved(_)
        ));
    }

    #[test]
    fn refutes_falsifiable_goals_with_counterexample() {
        let verdict = prove("x < 10", &[("x", Type::Int(IntType::U32))]);
        match verdict {
            Verdict::Refuted { counterexample } => {
                assert!(counterexample.contains("x ="), "{counterexample}")
            }
            other => panic!("expected refutation, got {other:?}"),
        }
        // Signed/unsigned boundary behavior is represented in the domains.
        assert!(
            matches!(
                prove("x + 1 > x", &[("x", Type::Int(IntType::U8))]),
                Verdict::Refuted { .. }
            ),
            "wrap-around at 255 must refute"
        );
    }

    #[test]
    fn assumptions_constrain_the_lattice() {
        let mut ctx = ProverCtx::new(vec![("x".into(), Type::Int(IntType::I32))]);
        ctx.assume(parse_expr("x >= 0").unwrap());
        let verdict = check_valid(&parse_expr("x > -1").unwrap(), &ctx);
        assert!(matches!(verdict, Verdict::Proved(_)));
    }

    #[test]
    fn hints_discharge_matching_goals() {
        let mut ctx = ProverCtx::new(vec![]);
        ctx.hints.push(Hint {
            name: "BitVector".into(),
            fact: parse_expr("mystery(q) == 0").unwrap(),
        });
        let verdict = check_valid(&parse_expr("mystery(q) == 0").unwrap(), &ctx);
        assert!(matches!(verdict, Verdict::Proved(ProofMethod::Oracle(_))));
    }

    #[test]
    fn two_state_predicates_via_old_rewriting() {
        // Monotonicity rely predicate: old(g) >= g.
        let mut ctx = ProverCtx::new(vec![("g".into(), Type::MathInt)]);
        ctx.assume(parse_expr("old(g) == g + 1").unwrap());
        let verdict = check_valid(&parse_expr("old(g) >= g").unwrap(), &ctx);
        assert!(matches!(verdict, Verdict::Proved(_)));
    }

    #[test]
    fn unknown_on_unconstrained_variables() {
        let verdict = prove("y == 0", &[("x", Type::Bool)]);
        assert!(matches!(verdict, Verdict::Unknown(_)));
    }

    #[test]
    fn ghost_collection_goals() {
        let seq_ty = Type::Seq(Box::new(Type::MathInt));
        assert!(matches!(
            prove(
                "len(s + t) == len(s) + len(t)",
                &[("s", seq_ty.clone()), ("t", seq_ty)]
            ),
            Verdict::Proved(_)
        ));
        let set_ty = Type::Set(Box::new(Type::MathInt));
        assert!(matches!(
            prove("len(set_add(s, 1)) >= len(s)", &[("s", set_ty)]),
            Verdict::Proved(_)
        ));
    }

    #[test]
    fn quantified_goals_evaluate() {
        assert!(matches!(
            prove("forall i in 0 .. 4 :: i < 4", &[]),
            Verdict::Proved(_)
        ));
        assert!(matches!(
            prove("exists i in 0 .. 4 :: i == 5", &[]),
            Verdict::Refuted { .. }
        ));
    }
}
