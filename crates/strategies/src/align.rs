//! Structural alignment of two adjacent levels.
//!
//! Every strategy begins by establishing a *correspondence*: the two
//! programs must be identical except at the points the strategy is designed
//! to justify. This module walks the two levels' methods in parallel,
//! producing the list of differences — changed statements, changed guards,
//! and statements inserted on one side — and failing loudly on any other
//! shape of difference.

use armada_lang::ast::*;
use armada_lang::pretty::{expr_to_string, stmt_to_string};

/// Where a difference sits: method name plus the index path of the
/// statement within nested blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StmtPath {
    /// Enclosing method.
    pub method: String,
    /// Indices into nested statement lists.
    pub indices: Vec<usize>,
}

impl std::fmt::Display for StmtPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:", self.method)?;
        for (i, idx) in self.indices.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{idx}")?;
        }
        Ok(())
    }
}

/// One difference between the aligned levels.
// Diff lists are short and built once per recipe: boxing the statements
// would only add an indirection at every match site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum DiffItem {
    /// A statement changed wholesale.
    ChangedStmt {
        /// Location.
        path: StmtPath,
        /// Low-level statement.
        low: Stmt,
        /// High-level statement.
        high: Stmt,
    },
    /// Only a guard expression changed (`if`/`while` condition).
    ChangedGuard {
        /// Location.
        path: StmtPath,
        /// Low-level guard.
        low: Expr,
        /// High-level guard.
        high: Expr,
    },
    /// The high level has an extra statement here.
    InsertedHigh {
        /// Location (position before which it was inserted, low indexing).
        path: StmtPath,
        /// The inserted statement.
        stmt: Stmt,
    },
    /// The low level has an extra statement here.
    InsertedLow {
        /// Location.
        path: StmtPath,
        /// The extra statement.
        stmt: Stmt,
    },
}

/// Alignment configuration: which inserted statements each side tolerates.
pub struct AlignOptions<'a> {
    /// May the high level insert this statement? (assume-intro: `assume`;
    /// var-intro: assignments to introduced variables; reduction: atomicity
    /// markers.)
    pub skip_high: &'a dyn Fn(&Stmt) -> bool,
    /// May the low level have this extra statement? (var-hiding.)
    pub skip_low: &'a dyn Fn(&Stmt) -> bool,
}

impl Default for AlignOptions<'static> {
    fn default() -> Self {
        AlignOptions {
            skip_high: &|_| false,
            skip_low: &|_| false,
        }
    }
}

/// Fingerprint used for statement equality: the pretty-printed form, which
/// is span-insensitive and printer-normalized.
pub fn fingerprint(stmt: &Stmt) -> String {
    stmt_to_string(stmt)
}

/// Span-insensitive rendering of a right-hand side.
pub fn rhs_text(rhs: &Rhs) -> String {
    armada_lang::pretty::rhs_to_string(rhs)
}

/// Aligns two levels, returning their differences.
///
/// # Errors
///
/// Returns a message naming the first structural mismatch (different method
/// sets, or statements that differ in an unalignable way).
pub fn diff_levels(
    low: &Level,
    high: &Level,
    options: &AlignOptions<'_>,
) -> Result<Vec<DiffItem>, String> {
    let mut items = Vec::new();
    // Methods must match by name (any order).
    for method in low.methods() {
        if high.method(&method.name).is_none() {
            return Err(format!(
                "method `{}` missing from level `{}`",
                method.name, high.name
            ));
        }
    }
    for method in high.methods() {
        if low.method(&method.name).is_none() {
            return Err(format!(
                "method `{}` missing from level `{}`",
                method.name, low.name
            ));
        }
    }
    for low_method in low.methods() {
        let high_method = high.method(&low_method.name).expect("checked above");
        match (&low_method.body, &high_method.body) {
            (Some(low_body), Some(high_body)) => {
                let mut path = StmtPath {
                    method: low_method.name.clone(),
                    indices: vec![],
                };
                align_block(low_body, high_body, &mut path, options, &mut items)?;
            }
            (None, None) => {}
            _ => {
                return Err(format!(
                    "method `{}` has a body in only one level",
                    low_method.name
                ))
            }
        }
    }
    Ok(items)
}

fn align_block(
    low: &Block,
    high: &Block,
    path: &mut StmtPath,
    options: &AlignOptions<'_>,
    items: &mut Vec<DiffItem>,
) -> Result<(), String> {
    let (n, m) = (low.stmts.len(), high.stmts.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < n || j < m {
        if i < n && j < m && fingerprint(&low.stmts[i]) == fingerprint(&high.stmts[j]) {
            i += 1;
            j += 1;
            continue;
        }
        // Prefer inserting when the skipped statement clearly does not match
        // the opposite side's current statement.
        if j < m && (options.skip_high)(&high.stmts[j]) {
            let matches_current =
                i < n && fingerprint(&low.stmts[i]) == fingerprint(&high.stmts[j]);
            if !matches_current {
                path.indices.push(i.min(n));
                items.push(DiffItem::InsertedHigh {
                    path: path.clone(),
                    stmt: high.stmts[j].clone(),
                });
                path.indices.pop();
                j += 1;
                continue;
            }
        }
        if i < n && (options.skip_low)(&low.stmts[i]) {
            path.indices.push(i);
            items.push(DiffItem::InsertedLow {
                path: path.clone(),
                stmt: low.stmts[i].clone(),
            });
            path.indices.pop();
            i += 1;
            continue;
        }
        if i < n && j < m {
            path.indices.push(i);
            localize(&low.stmts[i], &high.stmts[j], path, options, items)?;
            path.indices.pop();
            i += 1;
            j += 1;
            continue;
        }
        return Err(format!(
            "levels diverge structurally at {path} (low has {} trailing, high has {})",
            n - i,
            m - j
        ));
    }
    Ok(())
}

/// Localizes a difference between two same-position statements, recursing
/// into matching control structure so a changed guard or a changed inner
/// statement is reported precisely.
fn localize(
    low: &Stmt,
    high: &Stmt,
    path: &mut StmtPath,
    options: &AlignOptions<'_>,
    items: &mut Vec<DiffItem>,
) -> Result<(), String> {
    match (&low.kind, &high.kind) {
        (
            StmtKind::If {
                cond: lc,
                then_block: lt,
                else_block: le,
            },
            StmtKind::If {
                cond: hc,
                then_block: ht,
                else_block: he,
            },
        ) => {
            if expr_to_string(lc) != expr_to_string(hc) {
                items.push(DiffItem::ChangedGuard {
                    path: path.clone(),
                    low: lc.clone(),
                    high: hc.clone(),
                });
            }
            align_block(lt, ht, path, options, items)?;
            match (le, he) {
                (Some(le), Some(he)) => align_block(le, he, path, options, items)?,
                (None, None) => {}
                _ => {
                    items.push(DiffItem::ChangedStmt {
                        path: path.clone(),
                        low: low.clone(),
                        high: high.clone(),
                    });
                }
            }
            Ok(())
        }
        (
            StmtKind::While {
                cond: lc, body: lb, ..
            },
            StmtKind::While {
                cond: hc, body: hb, ..
            },
        ) => {
            if expr_to_string(lc) != expr_to_string(hc) {
                items.push(DiffItem::ChangedGuard {
                    path: path.clone(),
                    low: lc.clone(),
                    high: hc.clone(),
                });
            }
            align_block(lb, hb, path, options, items)
        }
        (StmtKind::Block(lb), StmtKind::Block(hb))
        | (StmtKind::ExplicitYield(lb), StmtKind::ExplicitYield(hb))
        | (StmtKind::Atomic(lb), StmtKind::Atomic(hb)) => align_block(lb, hb, path, options, items),
        (StmtKind::Label(_, li), StmtKind::Label(_, hi)) => localize(li, hi, path, options, items),
        // A block wrapped in atomicity markers on the high side only: the
        // reduction / combining strategies handle these as whole-statement
        // changes.
        _ => {
            items.push(DiffItem::ChangedStmt {
                path: path.clone(),
                low: low.clone(),
                high: high.clone(),
            });
            Ok(())
        }
    }
}

/// Erases `vars` from a level: their global declarations, ghost local
/// declarations, and the assignments whose targets they are. Used by the
/// variable-introduction/hiding strategies: `erase(high, introduced) == low`
/// *is* the §4.2.7 correspondence.
pub fn erase_vars(level: &Level, vars: &[String]) -> Level {
    let mut erased = level.clone();
    erased.decls.retain(|decl| match decl {
        Decl::Var(global) => !vars.contains(&global.name),
        _ => true,
    });
    for decl in &mut erased.decls {
        if let Decl::Method(method) = decl {
            if let Some(body) = &mut method.body {
                erase_block(body, vars);
            }
        }
    }
    erased
}

fn erase_block(block: &mut Block, vars: &[String]) {
    block.stmts.retain_mut(|stmt| keep_stmt(stmt, vars));
}

fn target_is_erased(target: &Expr, vars: &[String]) -> bool {
    match &target.kind {
        ExprKind::Var(name) => vars.contains(name),
        ExprKind::Index(base, _) | ExprKind::Field(base, _) => target_is_erased(base, vars),
        _ => false,
    }
}

fn keep_stmt(stmt: &mut Stmt, vars: &[String]) -> bool {
    match &mut stmt.kind {
        StmtKind::VarDecl { name, .. } => !vars.contains(name),
        StmtKind::Assign { lhs, rhs, .. } => {
            // Drop the pairs targeting erased variables; drop the whole
            // statement if none remain.
            let mut keep_pairs: Vec<bool> =
                lhs.iter().map(|l| !target_is_erased(l, vars)).collect();
            if keep_pairs.iter().all(|&k| k) {
                return true;
            }
            let mut idx = 0;
            lhs.retain(|_| {
                let keep = keep_pairs[idx];
                idx += 1;
                keep
            });
            idx = 0;
            keep_pairs.truncate(rhs.len());
            rhs.retain(|_| {
                let keep = keep_pairs.get(idx).copied().unwrap_or(true);
                idx += 1;
                keep
            });
            !lhs.is_empty()
        }
        StmtKind::If {
            then_block,
            else_block,
            ..
        } => {
            erase_block(then_block, vars);
            if let Some(els) = else_block {
                erase_block(els, vars);
            }
            true
        }
        StmtKind::While { body, .. } => {
            erase_block(body, vars);
            true
        }
        StmtKind::Label(_, inner) => keep_stmt(inner, vars),
        StmtKind::ExplicitYield(b) | StmtKind::Atomic(b) | StmtKind::Block(b) => {
            erase_block(b, vars);
            true
        }
        _ => true,
    }
}

/// Compares two levels for structural equality ignoring their names, via the
/// pretty printer.
pub fn levels_equal_modulo_name(a: &Level, b: &Level) -> bool {
    let mut a = a.clone();
    let mut b = b.clone();
    a.name = String::new();
    b.name = String::new();
    armada_lang::pretty::level_to_string(&a) == armada_lang::pretty::level_to_string(&b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::parse_module;

    fn two_levels(src: &str) -> (Level, Level) {
        let module = parse_module(src).expect("parse");
        (module.levels[0].clone(), module.levels[1].clone())
    }

    #[test]
    fn identical_levels_have_no_diff() {
        let (low, high) = two_levels(
            r#"
            level A { var x: uint32; void main() { x := 1; } }
            level B { var x: uint32; void main() { x := 1; } }
            "#,
        );
        let items = diff_levels(&low, &high, &AlignOptions::default()).unwrap();
        assert!(items.is_empty());
    }

    #[test]
    fn changed_guard_is_localized() {
        let (low, high) = two_levels(
            r#"
            level A { var x: uint32; void main() { if (x < 1) { x := 2; } } }
            level B { var x: uint32; void main() { if (*) { x := 2; } } }
            "#,
        );
        let items = diff_levels(&low, &high, &AlignOptions::default()).unwrap();
        assert_eq!(items.len(), 1);
        match &items[0] {
            DiffItem::ChangedGuard { high, .. } => assert!(high.is_nondet()),
            other => panic!("expected guard change, got {other:?}"),
        }
    }

    #[test]
    fn inserted_assume_is_detected() {
        let (low, high) = two_levels(
            r#"
            level A { var x: uint32; void main() { x := 1; x := 2; } }
            level B { var x: uint32; void main() { x := 1; assume x == 1; x := 2; } }
            "#,
        );
        let skip = |s: &Stmt| matches!(s.kind, StmtKind::Assume(_));
        let options = AlignOptions {
            skip_high: &skip,
            skip_low: &|_| false,
        };
        let items = diff_levels(&low, &high, &options).unwrap();
        assert_eq!(items.len(), 1);
        assert!(matches!(items[0], DiffItem::InsertedHigh { .. }));
    }

    #[test]
    fn unalignable_levels_error() {
        let (low, high) = two_levels(
            r#"
            level A { void main() { print(1); } }
            level B { void main() { print(1); print(2); print(3); } }
            "#,
        );
        assert!(diff_levels(&low, &high, &AlignOptions::default()).is_err());
    }

    #[test]
    fn missing_method_errors() {
        let (low, high) = two_levels(
            r#"
            level A { void main() { } void helper() { } }
            level B { void main() { } }
            "#,
        );
        assert!(diff_levels(&low, &high, &AlignOptions::default())
            .unwrap_err()
            .contains("helper"));
    }

    #[test]
    fn erasure_inverts_variable_introduction() {
        let (low, high) = two_levels(
            r#"
            level A {
                var x: uint32;
                void main() { x := 1; print(x); }
            }
            level B {
                var x: uint32;
                ghost var g: int;
                void main() { x := 1; g := 5; print(x); }
            }
            "#,
        );
        let erased = erase_vars(&high, &["g".to_string()]);
        assert!(levels_equal_modulo_name(&low, &erased));
        assert!(!levels_equal_modulo_name(&low, &high));
    }

    #[test]
    fn erasure_trims_multi_assign_pairs() {
        let (low, high) = two_levels(
            r#"
            level A {
                var x: uint32;
                void main() { x := 1; }
            }
            level B {
                var x: uint32;
                ghost var g: int;
                void main() { x, g := 1, 7; }
            }
            "#,
        );
        let erased = erase_vars(&high, &["g".to_string()]);
        assert!(levels_equal_modulo_name(&low, &erased));
    }

    #[test]
    fn nested_changes_get_paths() {
        let (low, high) = two_levels(
            r#"
            level A { var x: uint32; void main() { while (x < 5) { if (x < 3) { x := 1; } } } }
            level B { var x: uint32; void main() { while (x < 5) { if (x < 3) { x := 2; } } } }
            "#,
        );
        let items = diff_levels(&low, &high, &AlignOptions::default()).unwrap();
        assert_eq!(items.len(), 1);
        match &items[0] {
            DiffItem::ChangedStmt { path, .. } => {
                assert_eq!(path.method, "main");
                assert_eq!(path.indices.len(), 3, "main stmt → while body → if body");
            }
            other => panic!("expected changed stmt, got {other:?}"),
        }
    }
}
