//! Golden pin of every recipe's full strategy report over the `e2e`
//! benchmark corpus (the four specs, the five case-study models and the
//! eight refuted modules): each obligation's kind, generated lemma lines
//! and verdict — `ModelChecked` state counts and counterexample texts
//! included — at default bounds and at a `max_states` budget that
//! truncates the model-checked discharges.
//!
//! The strategies discharge their semantic obligations by walking the
//! low level's reachable states; this pin is what keeps a change to that
//! walk (its order, its truncation test, its counting) from silently
//! changing a verdict or a count.

use armada_lang::{check_module, parse_module};
use armada_sm::{enabled_steps, Bounds, StateGraph};
use armada_strategies::StrategyCtx;
use armada_verify::SimConfig;

#[allow(dead_code)]
#[path = "../crates/bench/src/bin/e2e/corpus.rs"]
mod corpus;

/// `max_states` budgets that cut the model-checked discharges: the first
/// below every case-study low level's reachable state count, the second
/// just below `mcs_lock`'s and `barrier`'s.
const TRUNCATING_MAX_STATES: [usize; 2] = [40, 300];

/// One line per recipe: module, recipe, and the FNV-1a digest of the
/// rendered report at default bounds and at each budget of
/// [`TRUNCATING_MAX_STATES`].
const PINNED: &str = "\
counter CountIsSequential db8a472062ad6bc3 d60893b4df8988de db8a472062ad6bc3
spinlock SpinlockOwnsCount 72be807df117e7c1 d60893b4df8988de d60893b4df8988de
handoff ForgetValue 7f7acca9609b7d21 7f7acca9609b7d21 7f7acca9609b7d21
handoff AuditHandoff bb97ecdb69fabc92 bb97ecdb69fabc92 bb97ecdb69fabc92
tracepoint StripTracepoints 05040b9d0b246b92 05040b9d0b246b92 05040b9d0b246b92
barrier ImplementationRefinesGhost f3100d00bd22bf4f f3100d00bd22bf4f f3100d00bd22bf4f
barrier GhostRefinesCemented 967dcc413d16a47d 10ca0feb9909ba92 10ca0feb9909ba92
barrier CementedRefinesWeak 0599cddaf9601449 0599cddaf9601449 0599cddaf9601449
barrier WeakRefinesSpec 58b248f2ac4c1e66 58b248f2ac4c1e66 58b248f2ac4c1e66
pointers ImplementationRefinesReordered 8869777b55fa999a 8869777b55fa999a 8869777b55fa999a
mcs_lock ImplementationRefinesOwned e9d37c662b83c183 e9d37c662b83c183 e9d37c662b83c183
mcs_lock OwnedRefinesAnnotated 75b18d1aa6896ba8 ce7d3fee260f1f88 ce7d3fee260f1f88
mcs_lock AnnotatedRefinesSeqX 276b58bc4f339a1a 8e97c1ddd2dbe7f4 8e97c1ddd2dbe7f4
mcs_lock SeqXRefinesAtomicCS 0b0f8b91cd7d11f9 0e000878d5d36d40 0e000878d5d36d40
queue ImplementationRefinesAbstractQueue 231378180ea6719b 231378180ea6719b 231378180ea6719b
queue AbstractQueueRefinesCemented e4921c26824f136f f031935c76d03b5e e4921c26824f136f
queue CementedRefinesWeak fdc0677c32fee595 fdc0677c32fee595 fdc0677c32fee595
queue WeakRefinesSpec a3818abbb5ae115b a3818abbb5ae115b a3818abbb5ae115b
tsp ImplementationRefinesArbitraryGuard 57219414bae45499 57219414bae45499 57219414bae45499
tsp ArbitraryGuardRefinesBestLenSequential a6df2c6cbf2e490f 0fbcf982e082ffcc a6df2c6cbf2e490f
wrong_strategy P e385e6869a6fbae8 e385e6869a6fbae8 e385e6869a6fbae8
tso_elim_without_ownership P 0b3809332f76053a 0b3809332f76053a 0b3809332f76053a
racy_reduction P 67898a601275e54d 0e000878d5d36d40 67898a601275e54d
false_enablement P 2b162876c9c7c553 2b162876c9c7c553 2b162876c9c7c553
hidden_output P 2af0dafd42e72cb8 2af0dafd42e72cb8 2af0dafd42e72cb8
strong_postcondition P 6df97bea2b15523f 6df97bea2b15523f 6df97bea2b15523f
semantic_divergence P 24f12c5f9d216036 24f12c5f9d216036 24f12c5f9d216036
fewer_spec_behaviors P 4681e1acafb9a19f 4681e1acafb9a19f 4681e1acafb9a19f
";

/// The full report of one recipe, one obligation per paragraph.
fn render(report: &Result<armada_proof::StrategyReport, String>) -> String {
    let report = match report {
        Ok(report) => report,
        Err(err) => return format!("error: {err}\n"),
    };
    let mut out = String::new();
    for discharged in &report.obligations {
        out.push_str(&format!(
            "{:?}\n{}{:?}\n\n",
            discharged.obligation.kind, discharged.obligation.lemma_text, discharged.verdict
        ));
    }
    out
}

/// `(module, recipe, rendered report)` for every recipe of the corpus.
fn reports(sim: &SimConfig) -> Vec<(&'static str, String, String)> {
    let mut out = Vec::new();
    for module in corpus::CORPUS {
        let parsed = parse_module(module.source).expect("corpus module parses");
        let typed = check_module(&parsed).expect("corpus module typechecks");
        for recipe in &typed.module.recipes {
            let report = armada_strategies::run_recipe(&typed, recipe, sim.clone());
            out.push((module.name, recipe.name.clone(), render(&report)));
        }
    }
    out
}

#[test]
fn every_recipe_report_is_pinned_at_default_and_truncating_bounds() {
    let mut runs = vec![("default".to_string(), reports(&SimConfig::default()))];
    for max_states in TRUNCATING_MAX_STATES {
        let mut sim = SimConfig::default();
        sim.bounds.max_states = max_states;
        runs.push((format!("max_states {max_states}"), reports(&sim)));
    }
    let mut table = String::new();
    for (index, (module, recipe, _)) in runs[0].1.iter().enumerate() {
        table.push_str(&format!("{module} {recipe}"));
        for (_, run) in &runs {
            let text = &run[index].2;
            table.push_str(&format!(
                " {:016x}",
                armada_runtime::fnv1a_64(text.as_bytes())
            ));
        }
        table.push('\n');
    }
    if table != PINNED {
        let pinned = PINNED.lines().chain(std::iter::repeat(""));
        for (index, (line, pinned)) in table.lines().zip(pinned).enumerate() {
            if line != pinned {
                let (module, recipe, _) = &runs[0].1[index];
                eprintln!("--- {module}/{recipe}: `{line}`, pinned `{pinned}`");
                for (label, run) in &runs {
                    eprintln!("== {label} ==\n{}", run[index].2);
                }
            }
        }
        panic!("strategy reports drifted from the pin; current table:\n{table}");
    }
}

/// The graph of `mcs_lock`'s `SeqX` level — the level the reduction
/// recipe classifies movers over — lists, for every state, exactly the
/// state's enabled steps in order, each resolving to the state the step
/// produces.
#[test]
fn mcs_lock_seqx_successors_are_the_enabled_steps() {
    let module = parse_module(armada_cases::mcs_lock::MODEL).expect("parses");
    let typed = check_module(&module).expect("typechecks");
    let program = armada_sm::lower(&typed, "SeqX").expect("lowers");
    let bounds = Bounds::small();
    let pool = bounds.pool_for(&program);
    let mut graph = StateGraph::explore(&program, &bounds).expect("graph");
    assert!(!graph.truncated());
    let ids: Vec<_> = graph.ids().collect();
    assert!(ids.len() > 300, "{} states", ids.len());
    for id in ids {
        let state = graph.state(id);
        let expected = enabled_steps(&program, &state, &pool, bounds.max_buffer);
        let edges = graph.successors(&program, id);
        assert_eq!(edges.len(), expected.len(), "state {id:?}");
        for ((step, next), (want_step, want_next)) in edges.iter().zip(&expected) {
            assert_eq!(step, want_step);
            assert_eq!(*graph.state(*next), *want_next);
        }
    }
}

/// A strategy run expands each low-level state at most once, and running
/// the strategy again over the same context expands nothing and reports
/// the same obligations — with the graph complete and with it cut.
#[test]
fn a_strategy_run_expands_each_state_at_most_once() {
    let mut cut = SimConfig::default();
    cut.bounds.max_states = TRUNCATING_MAX_STATES[0];
    for sim in [SimConfig::default(), cut] {
        for module in corpus::CORPUS {
            expand_once(module.source, &sim);
        }
    }
}

/// Runs every recipe of `source` twice over one context and checks the
/// expansion count of its low-level graph.
fn expand_once(source: &str, sim: &SimConfig) {
    let parsed = parse_module(source).expect("corpus module parses");
    let typed = check_module(&parsed).expect("corpus module typechecks");
    for recipe in &typed.module.recipes {
        let ctx = StrategyCtx::build(&typed, recipe, sim.clone()).expect("ctx");
        let first = armada_strategies::run(&ctx);
        let expanded = {
            let graph = ctx.low_graph().expect("graph");
            assert!(graph.expansions() <= graph.len(), "{}", recipe.name);
            graph.expansions()
        };
        let again = armada_strategies::run(&ctx);
        assert_eq!(first, again, "{}", recipe.name);
        let graph = ctx.low_graph().expect("graph");
        assert_eq!(graph.expansions(), expanded, "{}", recipe.name);
    }
}
