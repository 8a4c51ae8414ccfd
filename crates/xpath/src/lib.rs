//! # twq-xpath — the paper's XPath fragment
//!
//! Section 2.3 of Neven (PODS 2002) abstracts the XPath pattern language of
//! XSLT by binary `FO(∃*)` formulas. This crate provides the concrete side
//! of that abstraction:
//!
//! * [`ast`] — union / root / child / descendant / filter / element test /
//!   wildcard, plus attribute-comparison filters;
//! * [`parse`] — a concrete syntax (`a/b[c//d] | //e[@k=3]`);
//! * [`eval`] — the standard binary-relation semantics, evaluated
//!   set-at-a-time in O(|q|·|t|);
//! * [`compile()`](compile::compile) — the translation to binary `FO(∃*)` formulas, verified
//!   equivalent to [`eval`] by property tests and the fuzz oracle;
//! * [`generate`] — random expression workloads;
//! * [`to_program`] — the XSLT loop closed: XPath queries compiled into
//!   `tw^{r,l}` acceptors whose `atp` uses the compiled selector;
//! * [`cost`] — a symbolic estimate of the walking evaluator's work,
//!   consumed by the `twq-index` walk-vs-index planner.

pub mod ast;
pub mod compile;
pub mod cost;
pub mod eval;
pub mod generate;
pub mod parse;
pub mod to_program;

pub use ast::{Pred, XPath};
pub use compile::{compile, compile_guarded};
pub use cost::{walk_cost, WalkEstimate, WalkParams};
pub use eval::{eval_from, eval_from_in, eval_pairs, pred_holds, select_batch};
pub use generate::{random_xpath, random_xpath_shaped, XPathGenConfig, XPathShape};
pub use parse::{parse_xpath, XPathParseError};
pub use to_program::{xpath_to_program, xpath_to_program_checked, SelectionTest};
