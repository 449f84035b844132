//! The span-free content of a level pair: what the refinement check reads.
//!
//! A refinement certificate for `low ⊑ high` depends on the two lowered
//! [`Program`]s, the module's refinement relation and the check's bounds —
//! nothing else of the module. [`pair_content`] renders the first two as
//! one string, so the cert store can key a recipe on exactly that and the
//! witness can bind the same subject (`armada-verify`'s `CertKey`,
//! `armada-recheck`'s `subject_digest`). Spans are left out: a comment, a
//! blank line or a level moved within the file changes no span-free byte,
//! so it leaves every key alone, while any edit the semantics can observe
//! changes the content.
//!
//! The encoding streams into one `String` in a single pass. It is a
//! prefix-free token stream: every string carries its byte length, every
//! number and operator ends in `;`, every list starts with its length,
//! and every sum type with a one-letter tag, so two different programs
//! never render to the same text. The matches below name every field and variant, so a new
//! one fails to compile until it is encoded.

use std::fmt::Write as _;

use armada_lang::ast::{Expr, ExprKind, FunctionDecl, Param, RelationKind, Type};

use crate::program::{GhostDef, GlobalDef, Instr, LocalDef, Program, Routine};

/// The span-free content of `low`, `high` and the refinement `relation`,
/// in that order.
pub fn pair_content(low: &Program, high: &Program, relation: &RelationKind) -> String {
    let mut out = Content(String::with_capacity(4096));
    out.program(low);
    out.program(high);
    out.relation(relation);
    out.0
}

/// The span-free content of one program: the first half of
/// [`pair_content`]. The refinement check's checkpoint guard digests each
/// side with it.
pub fn program_content(program: &Program) -> String {
    let mut out = Content(String::with_capacity(2048));
    out.program(program);
    out.0
}

/// The encoder: appends tokens to the content string.
struct Content(String);

impl Content {
    fn tag(&mut self, tag: char) {
        self.0.push(tag);
    }

    fn num(&mut self, n: impl std::fmt::Display) {
        let _ = write!(self.0, "{n};");
    }

    fn flag(&mut self, b: bool) {
        self.tag(if b { 'T' } else { 'F' });
    }

    fn str(&mut self, s: &str) {
        self.num(s.len());
        self.0.push_str(s);
    }

    fn list<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Content, &T)) {
        self.num(items.len());
        for item in items {
            each(self, item);
        }
    }

    fn opt<T>(&mut self, item: Option<&T>, each: impl FnOnce(&mut Content, &T)) {
        match item {
            None => self.tag('-'),
            Some(item) => {
                self.tag('+');
                each(self, item);
            }
        }
    }

    fn exprs(&mut self, exprs: &[Expr]) {
        self.list(exprs, Content::expr);
    }

    fn program(&mut self, program: &Program) {
        let Program {
            name,
            structs,
            globals,
            ghosts,
            functions,
            routines,
            main,
        } = program;
        self.str(name);
        self.num(structs.len());
        for (name, fields) in structs {
            self.str(name);
            self.list(fields, |c, (field, ty)| {
                c.str(field);
                c.ty(ty);
            });
        }
        self.list(globals, |c, GlobalDef { name, ty, init }| {
            c.str(name);
            c.ty(ty);
            c.opt(init.as_ref(), Content::expr);
        });
        self.list(ghosts, |c, GhostDef { name, ty, init }| {
            c.str(name);
            c.ty(ty);
            c.opt(init.as_ref(), Content::expr);
        });
        self.num(functions.len());
        for function in functions.values() {
            let FunctionDecl {
                name,
                params,
                ret,
                body,
                span: _,
            } = function;
            self.str(name);
            self.list(params, |c, Param { name, ty, span: _ }| {
                c.str(name);
                c.ty(ty);
            });
            self.ty(ret);
            self.expr(body);
        }
        self.list(routines, Content::routine);
        self.num(main);
    }

    fn routine(&mut self, routine: &Routine) {
        let Routine {
            name,
            param_count,
            locals,
            instrs,
            ret_ty,
            external,
        } = routine;
        self.str(name);
        self.num(param_count);
        self.list(
            locals,
            |c,
             LocalDef {
                 name,
                 ty,
                 ghost,
                 addr_taken,
             }| {
                c.str(name);
                c.ty(ty);
                c.flag(*ghost);
                c.flag(*addr_taken);
            },
        );
        self.list(instrs, Content::instr);
        self.opt(ret_ty.as_ref(), Content::ty);
        self.flag(*external);
    }

    fn instr(&mut self, instr: &Instr) {
        match instr {
            Instr::Assign { lhs, rhs, sc } => {
                self.tag('a');
                self.exprs(lhs);
                self.exprs(rhs);
                self.flag(*sc);
            }
            Instr::Malloc { into, ty } => {
                self.tag('m');
                self.expr(into);
                self.ty(ty);
            }
            Instr::Calloc { into, ty, count } => {
                self.tag('c');
                self.expr(into);
                self.ty(ty);
                self.expr(count);
            }
            Instr::CreateThread {
                into,
                routine,
                args,
            } => {
                self.tag('t');
                self.opt(into.as_ref(), Content::expr);
                self.num(routine);
                self.exprs(args);
            }
            Instr::Call {
                routine,
                args,
                into,
            } => {
                self.tag('k');
                self.num(routine);
                self.exprs(args);
                self.opt(into.as_ref(), Content::expr);
            }
            Instr::Ret { value } => {
                self.tag('r');
                self.opt(value.as_ref(), Content::expr);
            }
            Instr::Guard {
                cond,
                then_pc,
                else_pc,
            } => {
                self.tag('g');
                self.expr(cond);
                self.num(then_pc);
                self.num(else_pc);
            }
            Instr::Jump(target) => {
                self.tag('j');
                self.num(target);
            }
            Instr::Assert(cond) => {
                self.tag('A');
                self.expr(cond);
            }
            Instr::Assume(cond) => {
                self.tag('U');
                self.expr(cond);
            }
            Instr::Somehow {
                requires,
                modifies,
                ensures,
            } => {
                self.tag('s');
                self.exprs(requires);
                self.exprs(modifies);
                self.exprs(ensures);
            }
            Instr::Dealloc(target) => {
                self.tag('d');
                self.expr(target);
            }
            Instr::Join(handle) => {
                self.tag('J');
                self.expr(handle);
            }
            Instr::Print(values) => {
                self.tag('p');
                self.exprs(values);
            }
            Instr::Fence => self.tag('f'),
            Instr::AtomicBegin { explicit } => {
                self.tag('{');
                self.flag(*explicit);
            }
            Instr::AtomicEnd => self.tag('}'),
            Instr::YieldPoint => self.tag('y'),
            Instr::Noop => self.tag('n'),
        }
    }

    fn ty(&mut self, ty: &Type) {
        match ty {
            Type::Int(int) => {
                self.tag('i');
                self.flag(int.signed);
                self.num(int.bits);
            }
            Type::Bool => self.tag('b'),
            Type::Pointer(inner) => {
                self.tag('p');
                self.ty(inner);
            }
            Type::Array(elem, len) => {
                self.tag('a');
                self.ty(elem);
                self.num(len);
            }
            Type::Named(name) => {
                self.tag('n');
                self.str(name);
            }
            Type::MathInt => self.tag('z'),
            Type::Seq(inner) => {
                self.tag('q');
                self.ty(inner);
            }
            Type::Set(inner) => {
                self.tag('s');
                self.ty(inner);
            }
            Type::Map(key, value) => {
                self.tag('m');
                self.ty(key);
                self.ty(value);
            }
            Type::Option(inner) => {
                self.tag('o');
                self.ty(inner);
            }
        }
    }

    fn expr(&mut self, expr: &Expr) {
        let Expr { kind, span: _ } = expr;
        match kind {
            ExprKind::IntLit(value) => {
                self.tag('l');
                self.num(value);
            }
            ExprKind::BoolLit(value) => {
                self.tag('B');
                self.flag(*value);
            }
            ExprKind::Null => self.tag('0'),
            ExprKind::Var(name) => {
                self.tag('v');
                self.str(name);
            }
            ExprKind::Unary(op, operand) => {
                self.tag('u');
                self.num(op);
                self.expr(operand);
            }
            ExprKind::Binary(op, lhs, rhs) => {
                self.tag('b');
                self.num(op);
                self.expr(lhs);
                self.expr(rhs);
            }
            ExprKind::AddrOf(inner) => {
                self.tag('&');
                self.expr(inner);
            }
            ExprKind::Deref(inner) => {
                self.tag('*');
                self.expr(inner);
            }
            ExprKind::Field(inner, field) => {
                self.tag('.');
                self.expr(inner);
                self.str(field);
            }
            ExprKind::Index(array, index) => {
                self.tag('[');
                self.expr(array);
                self.expr(index);
            }
            ExprKind::Nondet => self.tag('?'),
            ExprKind::Old(inner) => {
                self.tag('o');
                self.expr(inner);
            }
            ExprKind::Allocated(inner) => {
                self.tag('A');
                self.expr(inner);
            }
            ExprKind::AllocatedArray(inner) => {
                self.tag('R');
                self.expr(inner);
            }
            ExprKind::Me => self.tag('M'),
            ExprKind::SbEmpty => self.tag('E'),
            ExprKind::Call(function, args) => {
                self.tag('c');
                self.str(function);
                self.exprs(args);
            }
            ExprKind::SeqLit(items) => {
                self.tag('S');
                self.exprs(items);
            }
            ExprKind::Forall { var, lo, hi, body } => {
                self.tag('V');
                self.str(var);
                self.expr(lo);
                self.expr(hi);
                self.expr(body);
            }
            ExprKind::Exists { var, lo, hi, body } => {
                self.tag('X');
                self.str(var);
                self.expr(lo);
                self.expr(hi);
                self.expr(body);
            }
        }
    }

    /// The relation as declared. A custom predicate enters as its parsed
    /// expression: the quoted text is only its rendering in reports.
    fn relation(&mut self, relation: &RelationKind) {
        match relation {
            RelationKind::LogPrefix => self.tag('P'),
            RelationKind::LogEqualAtExit => self.tag('Q'),
            RelationKind::Custom(predicate) => {
                self.tag('C');
                self.expr(&predicate.expr);
            }
        }
    }
}
