//! Pretty printer for Armada ASTs.
//!
//! Output re-parses to a structurally identical AST (checked by property
//! tests), which makes the printer usable for two things beyond diagnostics:
//! span-insensitive structural comparison of program fragments (the proof
//! strategies compare statements by their printed form) and effort accounting
//! (SLOC of generated levels).

use crate::ast::*;
use std::fmt::Write;

/// Pretty-prints a module.
pub fn module_to_string(module: &Module) -> String {
    let mut printer = Printer::new();
    for level in &module.levels {
        printer.level(level);
        printer.blank();
    }
    for recipe in &module.recipes {
        printer.recipe(recipe);
        printer.blank();
    }
    printer.out
}

/// Pretty-prints one level.
pub fn level_to_string(level: &Level) -> String {
    let mut printer = Printer::new();
    printer.level(level);
    printer.out
}

/// Pretty-prints an expression on one line.
pub fn expr_to_string(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, expr);
    out
}

/// Pretty-prints a statement (possibly multiple lines).
pub fn stmt_to_string(stmt: &Stmt) -> String {
    let mut printer = Printer::new();
    printer.stmt(stmt);
    printer.out
}

/// Pretty-prints a right-hand side on one line.
pub fn rhs_to_string(rhs: &Rhs) -> String {
    let mut out = String::new();
    write_rhs(&mut out, rhs);
    out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn blank(&mut self) {
        self.out.push('\n');
    }

    fn level(&mut self, level: &Level) {
        self.line(&format!("level {} {{", level.name));
        self.indent += 1;
        for decl in &level.decls {
            self.decl(decl);
        }
        self.indent -= 1;
        self.line("}");
    }

    fn decl(&mut self, decl: &Decl) {
        match decl {
            Decl::Var(var) => {
                let ghost = if var.ghost { "ghost " } else { "" };
                match &var.init {
                    Some(init) => self.line(&format!(
                        "{ghost}var {}: {} := {};",
                        var.name,
                        var.ty,
                        expr_to_string(init)
                    )),
                    None => self.line(&format!("{ghost}var {}: {};", var.name, var.ty)),
                }
            }
            Decl::Struct(decl) => {
                self.line(&format!("struct {} {{", decl.name));
                self.indent += 1;
                for field in &decl.fields {
                    self.line(&format!("{}: {};", field.name, field.ty));
                }
                self.indent -= 1;
                self.line("}");
            }
            Decl::Method(method) => self.method(method),
            Decl::Function(func) => {
                let params = params_to_string(&func.params);
                self.line(&format!(
                    "function {}({params}): {} {{ {} }}",
                    func.name,
                    func.ret,
                    expr_to_string(&func.body)
                ));
            }
        }
    }

    fn method(&mut self, method: &MethodDecl) {
        let extern_attr = if method.external { "{:extern} " } else { "" };
        let params = params_to_string(&method.params);
        let ret = match (&method.ret, &method.ret_name) {
            (Some(ty), Some(name)) => format!(" returns ({name}: {ty})"),
            (Some(ty), None) => format!(" returns ({ty})"),
            (None, _) => String::new(),
        };
        let mut header = format!("method {extern_attr}{}({params}){ret}", method.name);
        for clause in &method.requires {
            write!(header, " requires {}", expr_to_string(clause)).expect("write to string");
        }
        for clause in &method.reads {
            write!(header, " reads {}", expr_to_string(clause)).expect("write to string");
        }
        for clause in &method.modifies {
            write!(header, " modifies {}", expr_to_string(clause)).expect("write to string");
        }
        for clause in &method.ensures {
            write!(header, " ensures {}", expr_to_string(clause)).expect("write to string");
        }
        match &method.body {
            Some(body) => {
                self.line(&format!("{header} {{"));
                self.indent += 1;
                for stmt in &body.stmts {
                    self.stmt(stmt);
                }
                self.indent -= 1;
                self.line("}");
            }
            None => self.line(&format!("{header};")),
        }
    }

    fn block(&mut self, block: &Block) {
        self.line("{");
        self.indent += 1;
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
        self.indent -= 1;
        self.line("}");
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::VarDecl {
                ghost,
                name,
                ty,
                init,
            } => {
                let ghost = if *ghost { "ghost " } else { "" };
                match init {
                    Some(init) => self.line(&format!(
                        "{ghost}var {name}: {ty} := {};",
                        rhs_to_string(init)
                    )),
                    None => self.line(&format!("{ghost}var {name}: {ty};")),
                }
            }
            StmtKind::Assign { lhs, rhs, sc } => {
                let lhs_text: Vec<String> = lhs.iter().map(expr_to_string).collect();
                let rhs_text: Vec<String> = rhs.iter().map(rhs_to_string).collect();
                let op = if *sc { "::=" } else { ":=" };
                self.line(&format!(
                    "{} {op} {};",
                    lhs_text.join(", "),
                    rhs_text.join(", ")
                ));
            }
            StmtKind::CallStmt { method, args } => {
                let args_text: Vec<String> = args.iter().map(expr_to_string).collect();
                self.line(&format!("{method}({});", args_text.join(", ")));
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                self.line(&format!("if ({}) {{", expr_to_string(cond)));
                self.indent += 1;
                for stmt in &then_block.stmts {
                    self.stmt(stmt);
                }
                self.indent -= 1;
                match else_block {
                    Some(els) => {
                        self.line("} else {");
                        self.indent += 1;
                        for stmt in &els.stmts {
                            self.stmt(stmt);
                        }
                        self.indent -= 1;
                        self.line("}");
                    }
                    None => self.line("}"),
                }
            }
            StmtKind::While {
                cond,
                invariants,
                body,
            } => {
                let mut header = format!("while ({})", expr_to_string(cond));
                for inv in invariants {
                    write!(header, " invariant {}", expr_to_string(inv)).expect("write to string");
                }
                self.line(&format!("{header} {{"));
                self.indent += 1;
                for stmt in &body.stmts {
                    self.stmt(stmt);
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::Break => self.line("break;"),
            StmtKind::Continue => self.line("continue;"),
            StmtKind::Return(None) => self.line("return;"),
            StmtKind::Return(Some(value)) => {
                self.line(&format!("return {};", expr_to_string(value)))
            }
            StmtKind::Assert(cond) => self.line(&format!("assert {};", expr_to_string(cond))),
            StmtKind::Assume(cond) => self.line(&format!("assume {};", expr_to_string(cond))),
            StmtKind::Somehow {
                requires,
                modifies,
                ensures,
            } => {
                let mut text = "somehow".to_string();
                for clause in requires {
                    write!(text, " requires {}", expr_to_string(clause)).expect("write to string");
                }
                for clause in modifies {
                    write!(text, " modifies {}", expr_to_string(clause)).expect("write to string");
                }
                for clause in ensures {
                    write!(text, " ensures {}", expr_to_string(clause)).expect("write to string");
                }
                text.push(';');
                self.line(&text);
            }
            StmtKind::Dealloc(target) => self.line(&format!("dealloc {};", expr_to_string(target))),
            StmtKind::Join(handle) => self.line(&format!("join {};", expr_to_string(handle))),
            StmtKind::Label(name, inner) => {
                self.line(&format!("label {name}:"));
                self.stmt(inner);
            }
            StmtKind::ExplicitYield(body) => {
                self.line("explicit_yield");
                self.block(body);
            }
            StmtKind::Yield => self.line("yield;"),
            StmtKind::Atomic(body) => {
                self.line("atomic");
                self.block(body);
            }
            StmtKind::Print(args) => {
                let args_text: Vec<String> = args.iter().map(expr_to_string).collect();
                self.line(&format!("print({});", args_text.join(", ")));
            }
            StmtKind::Fence => self.line("fence;"),
            StmtKind::Block(body) => self.block(body),
        }
    }

    fn recipe(&mut self, recipe: &Recipe) {
        self.line(&format!("proof {} {{", recipe.name));
        self.indent += 1;
        self.line(&format!("refinement {} {}", recipe.low, recipe.high));
        match recipe.strategy {
            StrategyKind::TsoElim => {
                for (var, pred) in &recipe.tso_vars {
                    self.line(&format!("tso_elim {var} \"{}\"", pred.text));
                }
            }
            StrategyKind::VarIntro | StrategyKind::VarHiding => {
                let mut text = recipe.strategy.keyword().to_string();
                for var in &recipe.variables {
                    write!(text, " {var}").expect("write to string");
                }
                self.line(&text);
            }
            other => self.line(other.keyword()),
        }
        for inv in &recipe.invariants {
            self.line(&format!("invariant \"{}\"", inv.text));
        }
        for rely in &recipe.rely {
            self.line(&format!("rely \"{}\"", rely.text));
        }
        if recipe.use_regions {
            self.line("use_regions");
        }
        if recipe.use_address_invariant {
            self.line("use_address_invariant");
        }
        for lemma in &recipe.lemmas {
            self.line(&format!("lemma {} {{", lemma.name));
            self.indent += 1;
            for fact in &lemma.establishes {
                self.line(&format!("\"{}\"", fact.text));
            }
            self.indent -= 1;
            self.line("}");
        }
        self.indent -= 1;
        self.line("}");
    }
}

fn params_to_string(params: &[Param]) -> String {
    params
        .iter()
        .map(|p| format!("{}: {}", p.name, p.ty))
        .collect::<Vec<_>>()
        .join(", ")
}

fn write_rhs(out: &mut String, rhs: &Rhs) {
    match rhs {
        Rhs::Expr(expr) => write_expr(out, expr),
        Rhs::Malloc { ty, .. } => write!(out, "malloc({ty})").expect("write to string"),
        Rhs::Calloc { ty, count, .. } => {
            write!(out, "calloc({ty}, {})", expr_to_string(count)).expect("write to string")
        }
        Rhs::CreateThread { method, args, .. } => {
            let args_text: Vec<String> = args.iter().map(expr_to_string).collect();
            write!(out, "create_thread {method}({})", args_text.join(", "))
                .expect("write to string")
        }
    }
}

/// Writes an expression fully parenthesized at binary/unary nodes, so the
/// printed form is unambiguous and re-parses identically regardless of
/// operator precedence.
fn write_expr(out: &mut String, expr: &Expr) {
    match &expr.kind {
        ExprKind::IntLit(value) => write!(out, "{value}").expect("write to string"),
        ExprKind::BoolLit(value) => write!(out, "{value}").expect("write to string"),
        ExprKind::Null => out.push_str("null"),
        ExprKind::Var(name) => out.push_str(name),
        ExprKind::Unary(op, operand) => {
            write!(out, "{op}").expect("write to string");
            write_atom(out, operand);
        }
        ExprKind::Binary(op, lhs, rhs) => {
            out.push('(');
            write_expr(out, lhs);
            write!(out, " {op} ").expect("write to string");
            write_expr(out, rhs);
            out.push(')');
        }
        ExprKind::AddrOf(operand) => {
            out.push('&');
            write_atom(out, operand);
        }
        ExprKind::Deref(operand) => {
            out.push('*');
            write_atom(out, operand);
        }
        ExprKind::Field(base, field) => {
            write_atom(out, base);
            write!(out, ".{field}").expect("write to string");
        }
        ExprKind::Index(base, index) => {
            write_atom(out, base);
            out.push('[');
            write_expr(out, index);
            out.push(']');
        }
        ExprKind::Nondet => out.push('*'),
        ExprKind::Old(inner) => {
            out.push_str("old(");
            write_expr(out, inner);
            out.push(')');
        }
        ExprKind::Allocated(inner) => {
            out.push_str("allocated(");
            write_expr(out, inner);
            out.push(')');
        }
        ExprKind::AllocatedArray(inner) => {
            out.push_str("allocated_array(");
            write_expr(out, inner);
            out.push(')');
        }
        ExprKind::Me => out.push_str("$me"),
        ExprKind::SbEmpty => out.push_str("$sb_empty"),
        ExprKind::Call(name, args) => {
            out.push_str(name);
            out.push('(');
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, arg);
            }
            out.push(')');
        }
        ExprKind::SeqLit(elems) => {
            out.push('[');
            for (i, elem) in elems.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, elem);
            }
            out.push(']');
        }
        ExprKind::Forall { var, lo, hi, body } => {
            write!(out, "(forall {var} in ").expect("write to string");
            write_expr(out, lo);
            out.push_str(" .. ");
            write_expr(out, hi);
            out.push_str(" :: ");
            write_expr(out, body);
            out.push(')');
        }
        ExprKind::Exists { var, lo, hi, body } => {
            write!(out, "(exists {var} in ").expect("write to string");
            write_expr(out, lo);
            out.push_str(" .. ");
            write_expr(out, hi);
            out.push_str(" :: ");
            write_expr(out, body);
            out.push(')');
        }
    }
}

/// Writes `expr` with parentheses unless it is already atomic, to keep
/// `*p.next` meaning `*(p.next)` distinct from `(*p).next`.
fn write_atom(out: &mut String, expr: &Expr) {
    // A negative literal is not atomic: `-(-100)` must not print as `--100`,
    // which would reparse as a double negation.
    let atomic = matches!(
        expr.kind,
        ExprKind::IntLit(v) if v >= 0
    ) || matches!(expr.kind, |ExprKind::BoolLit(_)| ExprKind::Null
        | ExprKind::Var(_)
        | ExprKind::Me
        | ExprKind::SbEmpty
        | ExprKind::Call(_, _)
        | ExprKind::Old(_)
        | ExprKind::Allocated(_)
        | ExprKind::AllocatedArray(_));
    if atomic {
        write_expr(out, expr);
    } else {
        out.push('(');
        write_expr(out, expr);
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_module};

    fn round_trip_expr(source: &str) {
        let parsed = parse_expr(source).unwrap();
        let printed = expr_to_string(&parsed);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("printed `{printed}` does not reparse: {err}"));
        let reprinted = expr_to_string(&reparsed);
        assert_eq!(printed, reprinted, "printer not a fixpoint for `{source}`");
    }

    #[test]
    fn expr_round_trips() {
        for source in [
            "1 + 2 * 3",
            "a && b || !c",
            "x & 1",
            "(*p).f[i] + &q",
            "old(x) == x + 1",
            "forall i in 0 .. 10 :: a[i] >= 0",
            "len(s) == 0 ==> s == []",
            "$me != 0 && $sb_empty",
            "-x % 8",
        ] {
            round_trip_expr(source);
        }
    }

    #[test]
    fn module_round_trips() {
        let source = r#"
        level L {
            var x: uint32 := 0;
            ghost var g: seq<int>;
            struct S { a: uint32; b: uint64[4]; }
            void main() {
                var p: ptr<uint32> := malloc(uint32);
                *p := 1;
                x ::= 2;
                if (x < 3) { print(x); } else { fence; }
                while (x < 10) invariant x <= 10 { x := x + 1; }
                dealloc p;
            }
        }
        proof P {
            refinement L L
            weakening
            invariant "x >= 0"
        }
        "#;
        let module = parse_module(source).unwrap();
        let printed = module_to_string(&module);
        let reparsed = parse_module(&printed)
            .unwrap_or_else(|err| panic!("printed module does not reparse: {err}\n{printed}"));
        let reprinted = module_to_string(&reparsed);
        assert_eq!(printed, reprinted);
    }

    #[test]
    fn deref_field_parenthesization_is_preserved() {
        let deref_then_field = parse_expr("(*p).f").unwrap();
        let field_then_deref = parse_expr("*(p.f)").unwrap();
        assert_ne!(
            expr_to_string(&deref_then_field),
            expr_to_string(&field_then_deref)
        );
    }
}
