//! # twq-logic — logics over attributed trees and relational stores
//!
//! The logic substrate of the `twq` workspace, covering Sections 2.2, 2.3,
//! and the logical machinery of Section 3 of Neven's *On the Power of
//! Walking for Querying Tree-Structured Data* (PODS 2002):
//!
//! * [`fo`] — first-order logic over the tree vocabulary
//!   `τ_{Σ,A} = {E, <, ≺, (O_σ), (val_a)}`, plus the extra predicates
//!   `root/leaf/first/last/succ` of the `FO(∃*)` layer;
//! * [`eval`] — naive model checking, node selection (`φ(u, ·)`), and
//!   pair selection on trees;
//! * [`exists`] — the validated `FO(∃*)` fragment (binary selectors used
//!   by `atp` and as the abstraction of XPath);
//! * [`store`] — finite relations over `D`, the relational store, and
//!   active-domain FO evaluation for guards `ξ` and updates `ψ`;
//! * [`memo`] — memoized FO evaluation (subformula caching) and the
//!   parallel batch entry points (`select_batch`, `eval_sentence_par`);
//! * [`parse`] — a concrete syntax for FO formulas;
//! * [`mso`] — monadic second-order logic with a naive small-witness
//!   evaluator (the Proposition 7.2 yardstick);
//! * [`types`] — `≡_k` type computation (Lemma 4.3).

pub mod eval;
pub mod exists;
pub mod fo;
mod join;
pub mod memo;
pub mod mso;
pub mod parse;
pub mod store;
pub mod types;

pub use eval::{eval_sentence, eval_sentence_in, select, select_in, select_pairs, Assignment};
pub use exists::{ExistsError, ExistsFormula};
pub use fo::{Formula, TreeAtom, Var};
pub use memo::{
    eval_sentence_memo, eval_sentence_memo_in, eval_sentence_par, select_batch, select_memo,
    select_memo_in, MemoCache, MemoFormula,
};
pub use mso::{eval_mso, eval_mso_capped, MsoFormula, SetVar};
pub use parse::{parse_fo, ParsedFormula};
pub use store::{eval_guard, eval_query, AttrEnv, RegId, Relation, SAtom, SFormula, STerm, Store};
