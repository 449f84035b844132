//! The reachable state graph of one program, explored once and expanded
//! on demand.
//!
//! The strategies discharge their semantic obligations by model checking
//! the low level: an invariant at every reachable state, a rely across
//! every reachable transition, a commutation across every pair of steps.
//! All of them quantify over the same space — every reachable state in
//! original thread and object coordinates, with neither local-step
//! reduction nor symmetry applied — so a [`StateGraph`] enumerates it once
//! and lets each check walk it.
//!
//! The graph is seeded by one run of the exploration engine, so its ids
//! keep the engine's discovery order and its truncation flag. That run
//! also records each committed state's successor edges (step and target
//! id), so a walk over an explored state never enumerates its steps again.
//! The edges of the rest — states on the far side of a truncation — are
//! filled in lazily on first request with one [`enabled_steps`] call, each
//! successor resolved to its arena id; only a successor past the cut can
//! be missing from the arena, and it is interned on the spot, after the
//! explored ids. Either way a state is expanded at most once.
//!
//! States are read by id through [`StateArena::get_arc_mut`], so an arena
//! spilled under `--mem-cap` faults states back in rather than being
//! iterated by reference.

use std::ops::ControlFlow;
use std::sync::Arc;

use crate::arena::{StateArena, StateId};
use crate::explore::{explore_recording_edges, Bounds};
use crate::program::Program;
use crate::state::{initial_state, ProgState};
use crate::step::{enabled_steps, Step};
use crate::value::Value;

/// One state's memoized expansion: each enabled step, in
/// [`enabled_steps`] order, with the id of the state it leads to.
pub type Successors = Arc<[(Step, StateId)]>;

/// How a [`StateGraph::depth_first`] walk ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Walk<B> {
    /// The walk ran out of states; `visited` counts the distinct states it
    /// discovered, the root included.
    Complete {
        /// Distinct states discovered.
        visited: usize,
    },
    /// A non-terminal state was popped after more than `max_states`
    /// states had been discovered.
    Truncated,
    /// A callback stopped the walk.
    Stopped(B),
}

/// The reachable states of one program under one set of bounds, with a
/// lazily filled successor table. See the module docs.
#[derive(Debug)]
pub struct StateGraph {
    /// Explored states in discovery order, then any state interned past a
    /// truncation.
    arena: StateArena,
    /// How many ids the exploration itself admitted.
    explored: usize,
    /// Whether the exploration stopped early.
    truncated: bool,
    /// The nondet candidate pool successors are enumerated with.
    pool: Vec<Value>,
    /// Store-buffer capacity successors are enumerated with.
    max_buffer: usize,
    /// Memoized expansions, by id; `None` until expanded.
    successors: Vec<Option<Successors>>,
    /// States expanded so far, by the exploration or on request.
    expansions: usize,
}

impl StateGraph {
    /// Explores every reachable state of `program` under `bounds`, with
    /// local-step reduction and symmetry forced off.
    ///
    /// # Errors
    ///
    /// Returns a message if the initial state cannot be built.
    pub fn explore(program: &Program, bounds: &Bounds) -> Result<StateGraph, String> {
        let initial = initial_state(program)?;
        let (exploration, successors) = explore_recording_edges(program, initial, bounds);
        Ok(StateGraph {
            explored: exploration.arena.len(),
            truncated: exploration.truncated,
            pool: bounds.pool_for(program),
            max_buffer: bounds.max_buffer,
            expansions: successors.iter().flatten().count(),
            successors,
            arena: exploration.arena,
        })
    }

    /// The initial state's id.
    pub fn root(&self) -> StateId {
        StateId(0)
    }

    /// The ids the exploration admitted, in discovery order.
    pub fn ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.explored as u32).map(StateId)
    }

    /// Whether the exploration stopped early (`max_states` or deadline).
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Interned states: the explored ones plus any interned past a
    /// truncation.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether no state is interned (never true: the root always is).
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// How many states have been expanded so far, by the exploration or
    /// on request; each at most once.
    pub fn expansions(&self) -> usize {
        self.expansions
    }

    /// The state behind `id`, faulted in if its page was spilled.
    pub fn state(&mut self, id: StateId) -> Arc<ProgState> {
        self.arena.get_arc_mut(id)
    }

    /// The enabled steps of state `id` and the ids they lead to, in
    /// [`enabled_steps`] order. Expands the state only if the exploration
    /// did not. `program` must be the program the graph was explored from.
    pub fn successors(&mut self, program: &Program, id: StateId) -> Successors {
        if let Some(Some(known)) = self.successors.get(id.index()) {
            return Arc::clone(known);
        }
        let state = self.arena.get_arc_mut(id);
        self.expansions += 1;
        let edges: Successors = enabled_steps(program, &state, &self.pool, self.max_buffer)
            .into_iter()
            .map(|(step, next)| {
                let fp = StateArena::fingerprint(&next);
                let (next_id, fresh) = self.arena.intern_with_fp(fp, next);
                debug_assert!(
                    !fresh || self.truncated,
                    "a complete exploration interned every successor"
                );
                (step, next_id)
            })
            .collect();
        if self.successors.len() <= id.index() {
            self.successors.resize(id.index() + 1, None);
        }
        self.successors[id.index()] = Some(Arc::clone(&edges));
        edges
    }

    /// Walks the graph depth-first from the root: a stack of ids popped
    /// last-in first-out, successors pushed in [`enabled_steps`] order the
    /// first time they are discovered. Terminal states are skipped. At
    /// every other popped state the walk first gives up with
    /// [`Walk::Truncated`] once more than `max_states` states have been
    /// discovered, then calls `at_state`, then `at_edge` on each of its
    /// edges as `(state, step, successor)`. Either callback may stop the
    /// walk with a value.
    pub fn depth_first<B>(
        &mut self,
        program: &Program,
        max_states: usize,
        mut at_state: impl FnMut(&ProgState) -> ControlFlow<B>,
        mut at_edge: impl FnMut(&ProgState, &Step, &ProgState) -> ControlFlow<B>,
    ) -> Walk<B> {
        let root = self.root();
        let mut seen = vec![false; self.len()];
        seen[root.index()] = true;
        let mut visited = 1usize;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let state = self.state(id);
            if state.is_terminal() {
                continue;
            }
            if visited > max_states {
                return Walk::Truncated;
            }
            if let ControlFlow::Break(stop) = at_state(&state) {
                return Walk::Stopped(stop);
            }
            for (step, next_id) in self.successors(program, id).iter() {
                let next = self.state(*next_id);
                if let ControlFlow::Break(stop) = at_edge(&state, step, &next) {
                    return Walk::Stopped(stop);
                }
                if seen.len() <= next_id.index() {
                    seen.resize(self.len(), false);
                }
                if !seen[next_id.index()] {
                    seen[next_id.index()] = true;
                    visited += 1;
                    stack.push(*next_id);
                }
            }
        }
        Walk::Complete { visited }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use armada_lang::{check_module, parse_module};

    /// Two threads racing buffered writes and reads of `x` and `y`.
    const TSO: &str = r#"
        level L {
            var x: uint32;
            var y: uint32;
            void w() { x := 1; var a: uint32 := y; print(a); }
            void main() {
                var t: uint64 := create_thread w();
                y := 1;
                var b: uint32 := x;
                print(b);
                join t;
            }
        }
    "#;

    fn program(src: &str) -> Program {
        let module = parse_module(src).expect("parse");
        let typed = check_module(&module).expect("typecheck");
        lower(&typed, &module.levels[0].name.clone()).expect("lower")
    }

    #[test]
    fn successors_match_enabled_steps_on_every_state() {
        let program = program(TSO);
        let bounds = Bounds::small();
        let mut graph = StateGraph::explore(&program, &bounds).expect("graph");
        assert!(!graph.truncated());
        let pool = bounds.pool_for(&program);
        let ids: Vec<StateId> = graph.ids().collect();
        assert!(ids.len() > 50, "a nontrivial TSO space: {}", ids.len());
        for &id in &ids {
            let state = graph.state(id);
            let expected = enabled_steps(&program, &state, &pool, bounds.max_buffer);
            let edges = graph.successors(&program, id);
            assert_eq!(edges.len(), expected.len());
            for ((step, next_id), (want_step, want_next)) in edges.iter().zip(&expected) {
                assert_eq!(step, want_step);
                assert_eq!(*graph.state(*next_id), *want_next);
            }
        }
        // A complete exploration expanded every state and interned every
        // successor; asking again expands nothing.
        assert_eq!(graph.len(), ids.len());
        assert_eq!(graph.expansions(), ids.len(), "each state expands once");
    }

    #[test]
    fn ids_keep_the_engines_discovery_order() {
        let program = program(TSO);
        let bounds = Bounds::small().with_reduction(false).with_symmetry(false);
        let exploration = crate::explore(&program, &bounds);
        let mut graph = StateGraph::explore(&program, &Bounds::small()).expect("graph");
        let ids: Vec<StateId> = graph.ids().collect();
        assert_eq!(ids.len(), exploration.arena.len());
        for id in ids {
            assert_eq!(*graph.state(id), *exploration.arena.get(id));
        }
    }

    #[test]
    fn a_truncated_graph_interns_successors_past_the_cut() {
        let program = program(TSO);
        let mut bounds = Bounds::small();
        bounds.max_states = 5;
        let mut graph = StateGraph::explore(&program, &bounds).expect("graph");
        assert!(graph.truncated());
        assert_eq!(graph.ids().count(), 5);
        let expanded = graph.expansions();
        assert!(expanded < 5, "the cut wave is not recorded: {expanded}");
        let walk = graph.depth_first(
            &program,
            usize::MAX,
            |_| ControlFlow::<()>::Continue(()),
            |_, _, _| ControlFlow::Continue(()),
        );
        let Walk::Complete { visited } = walk else {
            panic!("an unbounded walk completes: {walk:?}");
        };
        assert!(visited > 5, "the walk ran past the cut: {visited}");
        assert_eq!(graph.len(), visited);
        for _ in 0..2 {
            for id in (0..graph.len() as u32).map(StateId) {
                graph.successors(&program, id);
            }
            assert_eq!(graph.expansions(), graph.len(), "each state expands once");
        }
    }

    #[test]
    fn depth_first_stops_at_the_budget_and_on_request() {
        let program = program(TSO);
        let mut graph = StateGraph::explore(&program, &Bounds::small()).expect("graph");
        let total = graph.ids().count();
        let complete = graph.depth_first(
            &program,
            total,
            |_| ControlFlow::<()>::Continue(()),
            |_, _, _| ControlFlow::Continue(()),
        );
        assert_eq!(complete, Walk::Complete { visited: total });
        let cut = graph.depth_first(
            &program,
            3,
            |_| ControlFlow::<()>::Continue(()),
            |_, _, _| ControlFlow::Continue(()),
        );
        assert_eq!(cut, Walk::Truncated);
        let stopped = graph.depth_first(
            &program,
            total,
            |_| ControlFlow::Continue(()),
            |_, step, _| ControlFlow::Break(step.tid),
        );
        assert!(matches!(stopped, Walk::Stopped(_)));
    }
}
