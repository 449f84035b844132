//! The benchmark's input: the four standalone specs, the five model-scale
//! case studies, and eight small modules whose recipes claim a
//! correspondence the levels do not have. The refuted modules are copied
//! verbatim from `tests/failure_injection.rs`, so a checker that always
//! answers "verified" fails the benchmark.

/// One module of the corpus.
#[derive(Debug, Clone, Copy)]
pub struct Module {
    pub name: &'static str,
    pub source: &'static str,
}

const fn module(name: &'static str, source: &'static str) -> Module {
    Module { name, source }
}

/// Every module, in a fixed order; passes shuffle a copy of it.
pub const CORPUS: [Module; 17] = [
    module("counter", include_str!("../../../../../specs/counter.arm")),
    module(
        "spinlock",
        include_str!("../../../../../specs/spinlock.arm"),
    ),
    module("handoff", include_str!("../../../../../specs/handoff.arm")),
    module(
        "tracepoint",
        include_str!("../../../../../specs/tracepoint.arm"),
    ),
    module("barrier", armada_cases::barrier::MODEL),
    module("pointers", armada_cases::pointers::MODEL),
    module("mcs_lock", armada_cases::mcs_lock::MODEL),
    module("queue", armada_cases::queue::MODEL),
    module("tsp", armada_cases::tsp::MODEL),
    module(
        "wrong_strategy",
        r#"
        level A { var x: uint32; void main() { x := 1; } }
        level B { var x: uint32; void main() { x := *; } }
        proof P { refinement A B var_intro }
    "#,
    ),
    module(
        "tso_elim_without_ownership",
        r#"
        level A {
            var x: uint32;
            void w() { x := 1; }
            void main() { var t: uint64 := create_thread w(); x := 2; join t; }
        }
        level B {
            var x: uint32;
            void w() { x ::= 1; }
            void main() { var t: uint64 := create_thread w(); x ::= 2; join t; }
        }
        proof P { refinement A B tso_elim x "true" }
    "#,
    ),
    module(
        "racy_reduction",
        r#"
        level A {
            var x: uint32;
            var y: uint32;
            void w() { x := 1; y := 1; fence; }
            void main() {
                var t: uint64 := create_thread w();
                var a: uint32 := x;
                var b: uint32 := y;
                print(a);
                print(b);
                join t;
            }
        }
        level B {
            var x: uint32;
            var y: uint32;
            void w() { explicit_yield { x := 1; y := 1; fence; } }
            void main() {
                var t: uint64 := create_thread w();
                var a: uint32 := x;
                var b: uint32 := y;
                print(a);
                print(b);
                join t;
            }
        }
        proof P { refinement A B reduction }
    "#,
    ),
    module(
        "false_enablement",
        r#"
        level A {
            var x: uint32;
            void main() { x := 5; var t: uint32 := x; print(t); }
        }
        level B {
            var x: uint32;
            void main() { x := 5; var t: uint32 := x; assume t < 5; print(t); }
        }
        proof P { refinement A B assume_intro }
    "#,
    ),
    module(
        "hidden_output",
        r#"
        level A {
            var secret: uint32;
            void main() { secret := 3; var t: uint32 := secret; print(t); }
        }
        level B {
            void main() { var t: uint32 := 0; print(t); }
        }
        proof P { refinement A B var_hiding secret }
    "#,
    ),
    module(
        "strong_postcondition",
        r#"
        level A {
            ghost var g: int;
            void main() { atomic { g := g + 1; } print(g); }
        }
        level B {
            ghost var g: int;
            void main() { somehow modifies g ensures g == old(g) + 2; print(g); }
        }
        proof P { refinement A B combining }
    "#,
    ),
    module(
        "semantic_divergence",
        r#"
        level A { void main() { print(2); } }
        level B { void main() { print(3); } }
        proof P { refinement A B weakening }
    "#,
    ),
    module(
        "fewer_spec_behaviors",
        r#"
        level A { void main() { if (*) { print(1); } else { print(2); } } }
        level B { void main() { print(1); } }
        proof P { refinement A B weakening }
    "#,
    ),
];

/// The sub-corpus of the smoke test: one spec, one case study, one refuted
/// module. `handoff` has two recipes, so at two jobs the traced run fans
/// them out over threads.
#[cfg(test)]
pub fn smoke() -> Vec<Module> {
    ["handoff", "pointers", "semantic_divergence"]
        .iter()
        .map(|name| by_name(name))
        .collect()
}

#[cfg(test)]
fn by_name(name: &str) -> Module {
    *CORPUS
        .iter()
        .find(|m| m.name == name)
        .expect("module is in the corpus")
}
