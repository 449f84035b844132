//! Reduction (§4.2.1), in the Cohen–Lamport generalization.
//!
//! The high level wraps low-level code in `explicit_yield { … }` blocks,
//! claiming the instructions between yield points execute atomically. The
//! correspondence holds when, within each atomic segment, the instruction
//! sequence matches the mover pattern `R* N? L*`: right movers (e.g. lock
//! acquires), at most one non-mover, then left movers (e.g. lock releases) —
//! with purely thread-local instructions counting as both movers. Because
//! the Cohen–Lamport formulation works on *phases* rather than consecutive
//! statements, segments are delimited by the yield points the high level
//! *keeps*, so atomic blocks spanning loop iterations (Figure 9) work: the
//! loop body's tail and head fall into one segment across the back edge.
//!
//! Mover classification is semantic, not syntactic: for every instruction we
//! check the commutation property on *every reachable state of the bounded
//! low-level instance* (the paper emits one Dafny commutativity lemma per
//! step pair; we discharge the same statements by exhaustive checking):
//!
//! * right mover σ: whenever σ;τ is executable (τ by another thread),
//!   τ;σ is executable and reaches the same state;
//! * left mover σ: whenever τ;σ is executable, σ;τ is too, same state.

use armada_lang::ast::{Stmt, StmtKind};
use armada_proof::{
    DischargedObligation, ObligationKind, ProofMethod, ProofObligation, StrategyReport, Verdict,
};
use armada_sm::effects::instr_effects;
use armada_sm::{Instr, Pc, ProgState, Program, StateGraph, StateId};
use std::collections::BTreeMap;

use crate::align::{diff_levels, AlignOptions, DiffItem};
use crate::common::StrategyCtx;

/// Runs the reduction strategy.
pub fn run(ctx: &StrategyCtx<'_>) -> StrategyReport {
    let mut report = ctx.report();

    // --- structural correspondence: identical modulo atomicity markers -----
    let skip = |s: &Stmt| matches!(s.kind, StmtKind::Yield);
    let options = AlignOptions {
        skip_high: &skip,
        skip_low: &|_| false,
    };
    match diff_levels(ctx.low, ctx.high, &options) {
        // The aligner sees explicit_yield blocks transparently; any real
        // difference disqualifies the correspondence.
        Ok(items) => {
            for item in items {
                match item {
                    DiffItem::InsertedHigh { .. } => {}
                    other => {
                        return ctx.structural_failure(format!(
                            "reduction permits only atomicity-marker differences; found {other:?}"
                        ))
                    }
                }
            }
        }
        Err(_) => {
            // Statement-level alignment fails when the high level wraps code
            // in explicit_yield blocks; fall back to instruction-level
            // alignment, which is the authoritative one.
        }
    }
    let markers = |i: &Instr| {
        matches!(
            i,
            Instr::AtomicBegin { .. } | Instr::AtomicEnd | Instr::YieldPoint
        )
    };
    let mapping = match crate::common::align_instructions(
        &ctx.low_prog,
        &ctx.high_prog,
        &markers,
        &markers,
    ) {
        Ok(alignment) => alignment.map,
        Err(reason) => return ctx.structural_failure(reason),
    };

    // --- mover classification over the reachable states --------------------
    let mut graph = match ctx.low_graph() {
        Ok(graph) => graph,
        Err(err) => return ctx.structural_failure(format!("initial state: {err}")),
    };
    let exploration_states = non_terminal_states(&mut graph);
    if exploration_states.is_empty() {
        return ctx.structural_failure("low level has no reachable states".to_string());
    }

    // --- segment pattern check ----------------------------------------------
    let segments = atomic_segments(&ctx.high_prog);
    if segments.is_empty() {
        return ctx.structural_failure(
            "reduction found no atomic segments in the high level".to_string(),
        );
    }
    // Mover classes quantify over every reachable state; a cut state
    // space cannot certify one.
    if graph.truncated() {
        report.obligations.push(DischargedObligation {
            obligation: ProofObligation::new(
                ObligationKind::Commutativity {
                    first: "every atomic-segment instruction".to_string(),
                    second: "each step of every other thread".to_string(),
                    right: true,
                },
                vec![],
            ),
            verdict: Verdict::Unknown("state space truncated".to_string()),
        });
        return report;
    }
    // --- store-buffer drains must be benign --------------------------------
    // A drain is the moment a buffered write becomes globally visible; it
    // can occur at *any* point inside (or after) an atomic segment, so the
    // segment pattern cannot place it. We require every drain to be a left
    // mover, so it can be retroactively commuted back against its segment
    // (a release store's drain is the canonical left mover).
    if !check_drain_discipline(ctx, &mut graph, &exploration_states, &mut report) {
        return report;
    }

    let mut mover_cache: BTreeMap<Pc, MoverClass> = BTreeMap::new();
    for segment in &segments {
        let mut phase = Phase::Right;
        let mut segment_ok = true;
        for high_pc in &segment.pcs {
            let Some(low_pc) = mapping.get(high_pc) else {
                continue;
            };
            let class = *mover_cache.entry(*low_pc).or_insert_with(|| {
                classify(ctx, &mut graph, &exploration_states, *low_pc, &mut report)
            });
            let acceptable = match (phase, class) {
                (Phase::Right, MoverClass::Both | MoverClass::Right) => true,
                (Phase::Right, MoverClass::Left) => {
                    phase = Phase::Left;
                    true
                }
                (Phase::Right, MoverClass::None) => {
                    phase = Phase::Left;
                    true // the single non-mover commits the segment
                }
                (Phase::Left, MoverClass::Both | MoverClass::Left) => true,
                (Phase::Left, MoverClass::Right | MoverClass::None) => false,
            };
            if !acceptable {
                segment_ok = false;
                report.obligations.push(DischargedObligation {
                    obligation: ProofObligation::new(
                        ObligationKind::PhaseDiscipline {
                            at: format!("{low_pc}"),
                        },
                        vec![format!(
                            "// segment {}: instruction `{}` is {:?} after the commit point",
                            segment.describe(),
                            ctx.low_prog
                                .instr_at(*low_pc)
                                .map(|i| i.describe())
                                .unwrap_or_default(),
                            class
                        )],
                    ),
                    verdict: Verdict::Refuted {
                        counterexample: format!(
                            "instruction at {low_pc} is a {class:?} in the second phase; \
                             the segment does not match R* N? L*"
                        ),
                    },
                });
                break;
            }
        }
        if segment_ok {
            report.obligations.push(DischargedObligation {
                obligation: ProofObligation::new(
                    ObligationKind::PhaseDiscipline {
                        at: segment.describe(),
                    },
                    vec![
                        "// Cohen–Lamport: no transition from the second phase back to the first"
                            .to_string(),
                        format!("// segment instructions: {}", segment.pcs.len()),
                    ],
                ),
                verdict: Verdict::Proved(ProofMethod::ModelChecked {
                    states: exploration_states.len(),
                }),
            });
        }
    }
    report
}

/// How an instruction commutes with other threads' steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MoverClass {
    /// Commutes both ways (thread-local, or verified both ways).
    Both,
    /// Right mover (acquire-like).
    Right,
    /// Left mover (release-like).
    Left,
    /// Neither.
    None,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Right,
    Left,
}

/// One atomic segment of the high-level program: the instruction span
/// between consecutive yield points (or region boundaries).
struct Segment {
    routine: String,
    pcs: Vec<Pc>,
}

impl Segment {
    fn describe(&self) -> String {
        match (self.pcs.first(), self.pcs.last()) {
            (Some(first), Some(last)) => {
                format!("{}[{}..{}]", self.routine, first.instr, last.instr)
            }
            _ => self.routine.clone(),
        }
    }
}

/// Ends the open segment of `routine`, if it has any instructions.
fn close_segment(segments: &mut Vec<Segment>, routine: &str, current: &mut Vec<Pc>) {
    if !current.is_empty() {
        segments.push(Segment {
            routine: routine.to_string(),
            pcs: std::mem::take(current),
        });
    }
}

/// Splits each `explicit_yield`/`atomic` region of `high` into segments at
/// its `YieldPoint`s.
fn atomic_segments(high: &Program) -> Vec<Segment> {
    let mut segments = Vec::new();
    for (ri, routine) in high.routines.iter().enumerate() {
        let mut depth = 0usize;
        let mut current: Vec<Pc> = Vec::new();
        for (ii, instr) in routine.instrs.iter().enumerate() {
            match instr {
                Instr::AtomicBegin { .. } => {
                    depth += 1;
                }
                Instr::AtomicEnd => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        close_segment(&mut segments, &routine.name, &mut current);
                    }
                }
                Instr::YieldPoint if depth > 0 => {
                    close_segment(&mut segments, &routine.name, &mut current);
                }
                _ if depth > 0 => current.push(Pc::new(ri as u32, ii as u32)),
                _ => {}
            }
        }
    }
    segments
}

/// Commutation check for `first; second == second; first` from `state`,
/// where `s_after_both` is the result of `first; second`. When the swapped
/// execution halts because the program terminated, states are compared by
/// their observables (termination status and event log): terminal states
/// admit no further steps, so unflushed buffers and heap residue are
/// unobservable through any refinement relation we support.
fn commutes(
    prog: &Program,
    state: &ProgState,
    first: &armada_sm::Step,
    second: &armada_sm::Step,
    s_after_both: &ProgState,
    max_buffer: usize,
) -> bool {
    let obs_eq = |a: &ProgState, b: &ProgState| {
        a.termination == b.termination && a.log == b.log && a.termination.is_terminal()
    };
    match armada_sm::step::try_step(prog, state, second, max_buffer) {
        Some(s_second) => match armada_sm::step::try_step(prog, &s_second, first, max_buffer) {
            Some(s_swapped) => s_swapped == *s_after_both || obs_eq(&s_swapped, s_after_both),
            None => obs_eq(&s_second, s_after_both),
        },
        None => false,
    }
}

/// Checks that every store-buffer drain is a *left mover*: whenever some
/// other thread's step τ is followed by a drain σ, the drain could have
/// happened first with the same outcome. Drains of writes buffered inside an
/// atomic segment occur at arbitrary later points; left-mover-ness lets the
/// Cohen–Lamport argument move them back against the segment. (A release
/// store's drain is the canonical left mover: it only *enables* other
/// threads.) Returns `false` after recording a refuted obligation on the
/// first violation.
fn check_drain_discipline(
    ctx: &StrategyCtx<'_>,
    graph: &mut StateGraph,
    states: &[StateId],
    report: &mut StrategyReport,
) -> bool {
    let prog = &ctx.low_prog;
    let max_buffer = ctx.sim.bounds.max_buffer;
    let mut checked = 0usize;
    for &id in states {
        let state = graph.state(id);
        for (tau, after_tau) in graph.successors(prog, id).iter() {
            for (sigma, after_both) in graph.successors(prog, *after_tau).iter() {
                if !matches!(sigma.kind, armada_sm::StepKind::Drain) || sigma.tid == tau.tid {
                    continue;
                }
                checked += 1;
                let s_after_both = graph.state(*after_both);
                if !commutes(prog, &state, tau, sigma, &s_after_both, max_buffer) {
                    report.obligations.push(DischargedObligation {
                        obligation: ProofObligation::new(
                            ObligationKind::Commutativity {
                                first: format!("drain by t{}", sigma.tid),
                                second: format!("step by t{}", tau.tid),
                                right: false,
                            },
                            vec![],
                        ),
                        verdict: Verdict::Refuted {
                            counterexample: format!(
                                "a store-buffer drain by t{} does not move left across a \
                                 step of t{}; the delayed write is visible mid-segment",
                                sigma.tid, tau.tid
                            ),
                        },
                    });
                    return false;
                }
            }
        }
    }
    report.obligations.push(DischargedObligation {
        obligation: ProofObligation::new(
            ObligationKind::Commutativity {
                first: "every store-buffer drain".to_string(),
                second: "every step of every other thread (left-mover check)".to_string(),
                right: false,
            },
            vec![format!("// {checked} drain/step pairs checked")],
        ),
        verdict: Verdict::Proved(ProofMethod::ModelChecked {
            states: states.len(),
        }),
    });
    true
}

/// The graph's explored non-terminal states, in discovery order.
fn non_terminal_states(graph: &mut StateGraph) -> Vec<StateId> {
    graph
        .ids()
        .filter(|&id| !graph.state(id).is_terminal())
        .collect()
}

/// Classifies the instruction at `pc` by checking commutation against every
/// other-thread step in every reachable state, recording the commutativity
/// obligation in the report.
fn classify(
    ctx: &StrategyCtx<'_>,
    graph: &mut StateGraph,
    states: &[StateId],
    pc: Pc,
    report: &mut StrategyReport,
) -> MoverClass {
    let routine = &ctx.low_prog.routines[pc.routine as usize];
    let instr = match ctx.low_prog.instr_at(pc) {
        Some(instr) => instr,
        None => return MoverClass::None,
    };
    // Fast path: thread-local instructions are both movers by effect
    // disjointness.
    let effects = instr_effects(&ctx.low_prog, routine, instr);
    if effects.is_thread_local() {
        report.obligations.push(DischargedObligation {
            obligation: ProofObligation::new(
                ObligationKind::Commutativity {
                    first: format!("{pc}: {}", instr.describe()),
                    second: "any step of another thread".to_string(),
                    right: true,
                },
                vec!["// thread-local effects: commutes both ways".to_string()],
            ),
            verdict: Verdict::Proved(ProofMethod::EffectDisjointness),
        });
        return MoverClass::Both;
    }

    let prog = &ctx.low_prog;
    let max_buffer = ctx.sim.bounds.max_buffer;
    let mut right = true;
    let mut left = true;
    let mut checked_pairs = 0usize;

    for &id in states {
        let state = graph.state(id);
        let steps = graph.successors(prog, id);
        // σ = a step of some thread currently at `pc`.
        for (sigma, after_sigma) in steps.iter() {
            let at_pc = state
                .thread(sigma.tid)
                .map(|t| {
                    t.pc == pc
                        && matches!(sigma.kind, armada_sm::StepKind::Instr { .. })
                        && t.status == armada_sm::state::ThreadStatus::Active
                })
                .unwrap_or(false);
            if !at_pc {
                continue;
            }
            // Right-mover check: σ;τ executable ⇒ τ;σ same result.
            if right {
                for (tau, after_both) in graph.successors(prog, *after_sigma).iter() {
                    if tau.tid == sigma.tid {
                        continue;
                    }
                    checked_pairs += 1;
                    let s_after_both = graph.state(*after_both);
                    if !commutes(prog, &state, sigma, tau, &s_after_both, max_buffer) {
                        right = false;
                        break;
                    }
                }
            }
            if !right && !left {
                break;
            }
        }
        // Left-mover check: τ;σ executable ⇒ σ;τ same result.
        if left {
            for (tau, after_tau) in steps.iter() {
                let s_after_tau = graph.state(*after_tau);
                for (sigma, after_both) in graph.successors(prog, *after_tau).iter() {
                    if sigma.tid == tau.tid {
                        continue;
                    }
                    let at_pc = s_after_tau
                        .thread(sigma.tid)
                        .map(|t| {
                            t.pc == pc && matches!(sigma.kind, armada_sm::StepKind::Instr { .. })
                        })
                        .unwrap_or(false);
                    if !at_pc {
                        continue;
                    }
                    checked_pairs += 1;
                    let s_after_both = graph.state(*after_both);
                    if !commutes(prog, &state, tau, sigma, &s_after_both, max_buffer) {
                        left = false;
                        break;
                    }
                }
                if !left {
                    break;
                }
            }
        }
    }

    let class = match (right, left) {
        (true, true) => MoverClass::Both,
        (true, false) => MoverClass::Right,
        (false, true) => MoverClass::Left,
        (false, false) => MoverClass::None,
    };
    report.obligations.push(DischargedObligation {
        obligation: ProofObligation::new(
            ObligationKind::Commutativity {
                first: format!("{pc}: {}", instr.describe()),
                second: "each step of every other thread".to_string(),
                right: class != MoverClass::Left,
            },
            vec![format!(
                "// NextState(NextState(s, tau), sigma) == NextState(NextState(s, sigma), tau) \
                 checked on {checked_pairs} reachable pairs; class = {class:?}"
            )],
        ),
        verdict: Verdict::Proved(ProofMethod::ModelChecked {
            states: states.len(),
        }),
    });
    class
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::{check_module, parse_module};
    use armada_verify::SimConfig;

    fn run_recipe(src: &str) -> StrategyReport {
        run_recipe_with(src, SimConfig::default())
    }

    fn run_recipe_with(src: &str, sim: SimConfig) -> StrategyReport {
        let module = parse_module(src).expect("parse");
        let typed = check_module(&module).expect("typecheck");
        let recipe = &typed.module.recipes[0];
        let ctx = StrategyCtx::build(&typed, recipe, sim).expect("ctx");
        run(&ctx)
    }

    /// Lock via a ghost flag: acquire (blocking atomic CAS-like), critical
    /// section, release.
    const LOCKED_BODY: &str = r#"
        void worker() {
            atomic { assume holder == 0; holder := $me; }
            x := x0 + 1;
            holder := 0;
        }
    "#;

    /// Low: acquire / write / release with free interleaving. High: the
    /// same wrapped in explicit_yield (one atomic segment).
    fn locked_section() -> String {
        format!(
            r#"
            level Low {{
                var x: uint32;
                var x0: uint32;
                ghost var holder: int := 0;
                {LOCKED_BODY}
                void main() {{
                    var t: uint64 := create_thread worker();
                    join t;
                }}
            }}
            level High {{
                var x: uint32;
                var x0: uint32;
                ghost var holder: int := 0;
                void worker() {{
                    explicit_yield {{
                        atomic {{ assume holder == 0; holder := $me; }}
                        x := x0 + 1;
                        holder := 0;
                    }}
                }}
                void main() {{
                    var t: uint64 := create_thread worker();
                    join t;
                }}
            }}
            proof P {{ refinement Low High reduction }}
            "#
        )
    }

    #[test]
    fn lock_critical_section_reduces_to_atomic_block() {
        let report = run_recipe(&locked_section());
        assert!(report.success(), "{}", report.failure_summary());
        let labels: Vec<&str> = report
            .obligations
            .iter()
            .map(|o| o.obligation.kind.label())
            .collect();
        assert!(labels.contains(&"commutativity"));
        assert!(labels.contains(&"phase-discipline"));
    }

    #[test]
    fn a_truncated_state_space_certifies_no_mover() {
        let mut sim = SimConfig::default();
        sim.bounds.max_states = 3;
        let report = run_recipe_with(&locked_section(), sim);
        assert!(!report.success(), "movers certified over 3 states");
        assert_eq!(
            report.obligations.last().map(|o| &o.verdict),
            Some(&Verdict::Unknown("state space truncated".to_string()))
        );
        assert!(!report
            .obligations
            .iter()
            .any(|o| matches!(o.verdict, Verdict::Proved(ProofMethod::ModelChecked { .. }))));
    }

    #[test]
    fn non_reducible_pattern_is_refuted() {
        // Two unsynchronized shared writes around a shared read by another
        // thread: the read is a non-mover and sits after another non-mover,
        // breaking R* N? L*.
        let src = r#"
            level Low {
                var x: uint32;
                var y: uint32;
                void worker() {
                    x := 1;
                    y := 1;
                    fence;
                }
                void main() {
                    var t: uint64 := create_thread worker();
                    var a: uint32 := x;
                    var b: uint32 := y;
                    print(a);
                    print(b);
                    join t;
                }
            }
            level High {
                var x: uint32;
                var y: uint32;
                void worker() {
                    explicit_yield {
                        x := 1;
                        y := 1;
                        fence;
                    }
                }
                void main() {
                    var t: uint64 := create_thread worker();
                    var a: uint32 := x;
                    var b: uint32 := y;
                    print(a);
                    print(b);
                    join t;
                }
            }
            proof P { refinement Low High reduction }
        "#;
        let report = run_recipe(src);
        assert!(
            !report.success(),
            "two raced writes + a fence cannot form R* N? L*: {}",
            report.failure_summary()
        );
    }

    #[test]
    fn figure9_yields_split_segments_across_loop_iterations() {
        // The kept yield splits the loop body so the atomic block spans
        // iterations, as in Figure 9 — here in miniature with a ghost lock.
        let src = r#"
            level Low {
                var x: uint32;
                ghost var holder: int := 0;
                void worker() {
                    var i: uint32 := 0;
                    atomic { assume holder == 0; holder := $me; }
                    while (i < 2) {
                        holder := 0;
                        atomic { assume holder == 0; holder := $me; }
                        i := i + 1;
                    }
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
                    explicit_yield {
                        var i: uint32 := 0;
                        atomic { assume holder == 0; holder := $me; }
                        while (i < 2) {
                            holder := 0;
                            yield;
                            atomic { assume holder == 0; holder := $me; }
                            i := i + 1;
                        }
                        holder := 0;
                    }
                }
                void main() {
                    var t: uint64 := create_thread worker();
                    join t;
                }
            }
            proof P { refinement Low High reduction }
        "#;
        let report = run_recipe(src);
        assert!(report.success(), "{}", report.failure_summary());
        // Multiple segments were produced by the kept yield.
        let phase_obligations = report
            .obligations
            .iter()
            .filter(|o| matches!(o.obligation.kind, ObligationKind::PhaseDiscipline { .. }))
            .count();
        assert!(phase_obligations >= 2, "kept yield splits segments");
    }
}
