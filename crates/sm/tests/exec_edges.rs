//! Execution-semantics edge cases: every terminating condition of §3.2.3
//! (normal exit, assertion failure, undefined behavior) and the blocking
//! semantics of enablement conditions and `join`.

use armada_lang::{check_module, parse_module};
use armada_sm::{explore, lower, Bounds, Program, Termination, UbReason};

fn program(src: &str) -> Program {
    let module = parse_module(src).expect("parse");
    let typed = check_module(&module).expect("typecheck");
    lower(&typed, &module.levels[0].name.clone()).expect("lower")
}

fn sole_termination(src: &str) -> Termination {
    let exploration = explore(&program(src), &Bounds::small());
    let mut terminations: Vec<Termination> = exploration
        .exited
        .iter()
        .chain(&exploration.assert_failures)
        .chain(&exploration.ub_states)
        .map(|s| s.termination.clone())
        .collect();
    terminations.sort();
    terminations.dedup();
    assert_eq!(
        terminations.len(),
        1,
        "expected a unique outcome: {terminations:?}"
    );
    terminations.pop().expect("nonempty")
}

#[test]
fn division_by_zero_is_ub() {
    let termination = sole_termination(
        r#"level L {
            void main() {
                var a: uint32 := 1;
                var b: uint32 := 0;
                var c: uint32 := a / b;
                print(c);
            }
        }"#,
    );
    assert_eq!(
        termination,
        Termination::UndefinedBehavior(UbReason::DivisionByZero)
    );
}

#[test]
fn oversized_shift_is_ub() {
    let termination = sole_termination(
        r#"level L {
            void main() {
                var a: uint32 := 1;
                var s: uint32 := 32;
                var c: uint32 := a << s;
                print(c);
            }
        }"#,
    );
    assert_eq!(
        termination,
        Termination::UndefinedBehavior(UbReason::InvalidShift)
    );
}

#[test]
fn null_dereference_is_ub() {
    let termination = sole_termination(
        r#"level L {
            void main() {
                var p: ptr<uint32> := null;
                *p := 1;
            }
        }"#,
    );
    assert_eq!(
        termination,
        Termination::UndefinedBehavior(UbReason::NullDereference)
    );
}

#[test]
fn somehow_requires_violation_is_ub() {
    let termination = sole_termination(
        r#"level L {
            ghost var g: int;
            void main() {
                somehow requires g == 1 modifies g ensures g == 2;
            }
        }"#,
    );
    assert_eq!(
        termination,
        Termination::UndefinedBehavior(UbReason::RequiresViolated)
    );
}

#[test]
fn somehow_with_solvable_postcondition_executes() {
    let p = program(
        r#"level L {
            ghost var g: int := 3;
            void main() {
                somehow modifies g ensures g == old(g) + 39;
                print(g);
            }
        }"#,
    );
    let final_state = armada_sm::run_to_completion(&p, &Bounds::small()).unwrap();
    assert_eq!(final_state.termination, Termination::Exited);
    assert_eq!(*final_state.log, vec![armada_sm::Value::MathInt(42)]);
}

#[test]
fn join_of_garbage_tid_is_ub() {
    let termination = sole_termination(
        r#"level L {
            void main() {
                var t: uint64 := 99;
                join t;
            }
        }"#,
    );
    assert_eq!(
        termination,
        Termination::UndefinedBehavior(UbReason::InvalidJoin)
    );
}

#[test]
fn assert_false_is_a_distinct_terminal() {
    let termination = sole_termination(
        r#"level L {
            void main() {
                var x: uint32 := 1;
                assert x == 2;
            }
        }"#,
    );
    assert!(matches!(termination, Termination::AssertFailed(_)));
}

#[test]
fn blocked_assume_deadlocks_rather_than_crashes() {
    let exploration = explore(
        &program(
            r#"level L {
                var x: uint32;
                void main() {
                    assume x == 1;
                    print(x);
                }
            }"#,
        ),
        &Bounds::small(),
    );
    assert!(exploration.exited.is_empty());
    assert!(exploration.ub_states.is_empty());
    assert_eq!(
        exploration.stuck.len(),
        1,
        "the enablement condition never fires"
    );
}

#[test]
fn atomic_block_excludes_other_threads() {
    // Inside `atomic`, the pair of writes is indivisible: a concurrent
    // reader can never see x == 1 && y == 0.
    let exploration = explore(
        &program(
            r#"level L {
                var x: uint32;
                var y: uint32;
                void w() {
                    atomic {
                        x ::= 1;
                        y ::= 1;
                    }
                }
                void main() {
                    var t: uint64 := create_thread w();
                    var a: uint32 := x;
                    var b: uint32 := y;
                    assert a <= b;
                    join t;
                }
            }"#,
        ),
        &Bounds::small(),
    );
    assert!(
        exploration.assert_failures.is_empty(),
        "atomicity violated: reader saw a torn pair"
    );
    assert!(!exploration.exited.is_empty());
}

#[test]
fn explicit_yield_is_interruptible_only_at_yield_points() {
    // With the yield between the writes, the torn observation IS possible.
    let exploration = explore(
        &program(
            r#"level L {
                var x: uint32;
                var y: uint32;
                void w() {
                    explicit_yield {
                        x ::= 1;
                        yield;
                        y ::= 1;
                    }
                }
                void main() {
                    var t: uint64 := create_thread w();
                    var a: uint32 := x;
                    var b: uint32 := y;
                    assert a <= b;
                    join t;
                }
            }"#,
        ),
        &Bounds::small(),
    );
    assert!(
        !exploration.assert_failures.is_empty(),
        "the yield point must admit the torn observation"
    );
}
