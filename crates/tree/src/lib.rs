//! # twq-tree — attributed unranked trees
//!
//! The data substrate of the `twq` workspace: attributed Σ-trees exactly as
//! defined in Section 2.1 of
//!
//! > Frank Neven. *On the Power of Walking for Querying Tree-Structured
//! > Data.* PODS 2002.
//!
//! An attributed tree is a pair `(t, (λ_a)_{a∈A})`: an unranked tree over a
//! finite alphabet `Σ` together with one total attribute function per
//! attribute name in a finite set `A`, taking values in an infinite domain
//! `D`. This crate provides:
//!
//! * [`Vocab`] — interners for `Σ`, `A` and `D` ([`SymId`], [`AttrId`],
//!   [`Value`], with [`Value::BOT`] playing the paper's `⊥`);
//! * [`Tree`] — an arena tree with O(1) walker moves and column-major
//!   attribute storage;
//! * [`DelimTree`] — the delimited tree `delim(t)` automata actually walk
//!   (Section 3);
//! * [`order`] — the canonical document order and its walkable
//!   successor/predecessor, used by the Theorem 7.1 pebble constructions;
//! * [`parse_tree`] / [`tree_to_string`] — a compact term syntax;
//! * [`generate`] — random and shaped workload generators;
//! * [`xml`] — an XML-subset reader/writer (elements + attributes);
//! * [`lex`] — the reader core every text syntax shares: [`Cursor`],
//!   [`ParseError`] and the literal rule [`Vocab::val_text`].

pub mod delim;
pub mod generate;
pub mod lex;
pub mod nodeset;
pub mod order;
pub mod parse;
pub mod tree;
pub mod vocab;
pub mod xml;

pub use delim::DelimTree;
pub use lex::{Cursor, ParseError, Syntax};
pub use nodeset::NodeSet;
pub use order::DocIntervals;
pub use parse::{parse_tree, tree_to_string};
pub use tree::{Label, NodeId, Tree};
pub use vocab::{AttrId, SymId, Value, ValueRepr, Vocab};
pub use xml::{parse_xml, to_xml};
