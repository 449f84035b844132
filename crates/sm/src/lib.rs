//! # armada-sm
//!
//! Small-step state-machine semantics for Armada programs (§3.2 of the
//! paper), executable in Rust.
//!
//! An Armada [`armada_lang::ast::Level`] is *lowered* ([`lower()`]) into a
//! [`Program`]: a set of routines, each a flat list of micro-instructions
//! with structured control flow compiled to guarded branches. A program
//! state ([`ProgState`]) holds the set of threads (each with a program
//! counter, a stack of frames, and an x86-TSO store buffer), a forest-shaped
//! heap, ghost state, the observable event log, and the termination status —
//! undefined behavior is a *terminating state* (§3.2.3), not a stuck one.
//!
//! Every source of nondeterminism (the `*` expression, `somehow` havoc,
//! scheduling, store-buffer drains) is encapsulated in a [`Step`] object so
//! that [`next_state`] is a deterministic total function, mirroring §4.1's
//! annotated behaviors. [`enabled_steps`] enumerates the steps available in
//! a state under configurable [`Bounds`], and [`explore()`] exhaustively
//! enumerates the reachable state space. Exploration always runs from the
//! initial state: it can spill its arena to disk ([`SpillSpec`]) but has
//! no checkpoint/resume — that belongs to the refinement check in
//! `armada-verify`, whose product search is the expensive one.
//! [`pair_content`] renders a level pair span-free: what that check reads
//! of a module, and so what its certificates are keyed on.
//!
//! # Example
//!
//! ```
//! use armada_lang::{parse_module, check_module};
//! use armada_sm::{lower, run_to_completion, Bounds};
//!
//! let module = parse_module(
//!     "level L { var x: uint32; void main() { x := 41; x := 42; print(x); } }",
//! ).unwrap();
//! let typed = check_module(&module).unwrap();
//! let program = lower(&typed, "L").unwrap();
//! let final_state = run_to_completion(&program, &Bounds::small()).unwrap();
//! assert_eq!(final_state.log.len(), 1);
//! ```

pub mod arena;
pub mod canon;
pub mod codec;
pub mod content;
pub mod effects;
pub mod eval;
pub mod explore;
pub mod graph;
pub mod heap;
pub mod lower;
pub mod pager;
pub mod program;
pub mod reduce;
pub mod state;
pub mod step;
pub mod value;

pub use arena::{StateArena, StateId};
pub use canon::Canonicalizer;
pub use content::pair_content;
pub use explore::{explore, explore_with_telemetry, run_to_completion, Bounds, Exploration};
pub use graph::{StateGraph, Walk};
pub use heap::{Heap, Location, MemNode, ObjectId, PtrVal};
pub use lower::{lower, LowerError};
pub use pager::SpillSpec;
pub use program::{Instr, Pc, Program, Routine};
pub use reduce::{macro_steps, MacroStep, Reducer};
pub use state::{initial_state, ProgState, Termination, ThreadState, Tid};
pub use step::{enabled_steps, next_state, try_step, Step, StepKind};
pub use value::{UbReason, Value};
