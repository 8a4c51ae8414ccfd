//! # twq-automata — tree-walking automata with relational storage and look-ahead
//!
//! The primary contribution of Neven's *On the Power of Walking for
//! Querying Tree-Structured Data* (PODS 2002), implemented as an executable
//! query-automaton library:
//!
//! * [`program`] — the `tw^{r,l}` model (Definition 3.1): states, rules
//!   `(σ, q, ξ) → α`, moves, FO register updates, `atp` look-ahead; the
//!   restriction classes `tw^r`, `tw^l`, `TW` (Definition 5.1) with
//!   syntactic classification and validation;
//! * [`engine`] — direct deterministic execution on delimited trees, with
//!   cycle detection, subcomputation semantics, and full instrumentation;
//! * [`graph`] — the memoized configuration-graph evaluator realizing the
//!   PTIME/EXPTIME upper-bound arguments of Theorem 7.1;
//! * [`twir`] — a structured walker IR (sequences, branches, loops,
//!   pebble macros) compiled to flat `TW` rule sets; the workhorse behind
//!   the Theorem 7.1 simulation compilers in `twq-sim`;
//! * [`examples`] — the paper's Example 3.2 and a library of reference
//!   programs with plain-Rust oracles;
//! * [`caterpillar`] — the caterpillar expressions of Brüggemann-Klein &
//!   Wood (the intro's first tree-walking instance): regular expressions
//!   over moves and tests, evaluated by NFA × tree reachability;
//! * [`twodfa`] — two-way string automata (the model Section 3 opens
//!   with) and their literal embedding into `TW` walkers on monadic
//!   trees.

pub mod caterpillar;
pub mod engine;
pub mod examples;
pub mod graph;
pub mod program;
pub mod twir;
pub mod twodfa;

pub use engine::{
    run, run_batch, run_batch_profiled, run_in, run_on_tree, Config, Halt, Limits, RunReport,
};
pub use graph::{run_graph, run_graph_on_tree, GraphReport};
pub use program::{Action, Dir, ProgramError, Rule, State, TwClass, TwProgram, TwProgramBuilder};
