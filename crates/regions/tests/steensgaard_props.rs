//! Dynamic soundness of the Steensgaard analysis, as seeded randomized
//! tests: for random straight-line pointer programs, whenever the analysis
//! says two pointers *cannot* alias, an abstract replay of the program
//! (mirroring the interpreter's allocation semantics) must end with them
//! pointing at different objects.

use armada_lang::{check_module, parse_module};
use armada_regions::RegionAnalysis;
use armada_runtime::prng::{run_seeded_cases, SplitMix64};
use armada_sm::{lower, run_to_completion, Bounds, Value};

/// A random pointer statement over variables p0..p{n}.
#[derive(Debug, Clone)]
enum PtrStmt {
    Malloc(usize),
    Copy { dst: usize, src: usize },
}

fn arb_program(rng: &mut SplitMix64, vars: usize, max_len: usize) -> Vec<PtrStmt> {
    let len = 1 + rng.index(max_len - 1);
    (0..len)
        .map(|_| {
            if rng.bool() {
                PtrStmt::Malloc(rng.index(vars))
            } else {
                PtrStmt::Copy {
                    dst: rng.index(vars),
                    src: rng.index(vars),
                }
            }
        })
        .collect()
}

fn render(statements: &[PtrStmt], vars: usize) -> String {
    let mut body = String::new();
    for v in 0..vars {
        body.push_str(&format!(
            "        var p{v}: ptr<uint32> := malloc(uint32);\n"
        ));
    }
    for statement in statements {
        match statement {
            PtrStmt::Malloc(v) => body.push_str(&format!("        p{v} := malloc(uint32);\n")),
            PtrStmt::Copy { dst, src } => body.push_str(&format!("        p{dst} := p{src};\n")),
        }
    }
    format!("level L {{\n    void main() {{\n{body}    }}\n}}\n")
}

#[test]
fn no_alias_verdicts_are_dynamically_true() {
    run_seeded_cases(0x4e90_0001, 128, |rng, case| {
        let vars = 4usize;
        let statements = arb_program(rng, vars, 12);
        let source = render(&statements, vars);
        let module = parse_module(&source).expect("generated source parses");
        let typed = check_module(&module).expect("generated source typechecks");
        let analysis = RegionAnalysis::of_level(&module.levels[0]);
        // The program must at least execute cleanly.
        let program = lower(&typed, "L").expect("lowers");
        run_to_completion(&program, &Bounds::small()).expect("runs");

        // Abstract replay with exact allocation identity.
        let mut concrete: Vec<u32> = (0..vars as u32).collect();
        let mut next = vars as u32;
        for statement in &statements {
            match statement {
                PtrStmt::Malloc(v) => {
                    concrete[*v] = next;
                    next += 1;
                }
                PtrStmt::Copy { dst, src } => concrete[*dst] = concrete[*src],
            }
        }
        for a in 0..vars {
            for b in (a + 1)..vars {
                let may_alias =
                    analysis.may_alias("main", &format!("p{a}"), "main", &format!("p{b}"));
                if !may_alias {
                    assert_ne!(
                        concrete[a], concrete[b],
                        "case {case}: analysis separated p{a} and p{b} but they alias \
                         dynamically\n{source}"
                    );
                }
            }
        }
    });
}

/// End-to-end agreement with the interpreter: writing through one pointer is
/// visible through another iff they (may) alias.
#[test]
fn separated_pointers_do_not_interfere() {
    for copy_first in [false, true] {
        let source = if copy_first {
            r#"level L {
                void main() {
                    var p: ptr<uint32> := malloc(uint32);
                    var q: ptr<uint32> := p;
                    *p := 7;
                    var seen: uint32 := *q;
                    print(seen);
                }
            }"#
        } else {
            r#"level L {
                void main() {
                    var p: ptr<uint32> := malloc(uint32);
                    var q: ptr<uint32> := malloc(uint32);
                    *p := 7;
                    var seen: uint32 := *q;
                    print(seen);
                }
            }"#
        };
        let module = parse_module(source).expect("parse");
        let typed = check_module(&module).expect("typecheck");
        let analysis = RegionAnalysis::of_level(&module.levels[0]);
        let program = lower(&typed, "L").expect("lower");
        let final_state = run_to_completion(&program, &Bounds::small()).expect("run");
        let may_alias = analysis.may_alias("main", "p", "main", "q");
        assert_eq!(may_alias, copy_first);
        let expected = if copy_first { 7 } else { 0 };
        assert_eq!(*final_state.log, vec![Value::MathInt(expected)]);
    }
}
