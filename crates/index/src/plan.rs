//! The index algebra: a small IR whose operators are exactly the things a
//! [`TreeIndex`](crate::TreeIndex) answers in word-packed time.
//!
//! A plan denotes a function from a *context set* of nodes to a node set.
//! Leaves are either the context itself ([`IxPlan::Context`]), constant
//! sets ([`IxPlan::Root`], [`IxPlan::All`], [`IxPlan::Empty`]), or postings
//! scans; inner nodes are set algebra plus the four axis expansions of
//! [`Axis`]. Every plan produced by the compilers is *union-homomorphic* in
//! its context — `plan(S) = ⋃_{x∈S} plan({x})` — which is what lets
//! [`compile_xpath`](crate::compile_xpath) substitute whole subplans for
//! `Context` when composing steps. The one construct that needs care is
//! `/p` inside a step: its value is context-independent, but an *empty*
//! context must still yield an empty result, which is what
//! [`IxPlan::IfNonEmpty`] encodes.

use twq_tree::{AttrId, SymId, Value, Vocab};

/// An axis step over the interval encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Children of every context node: sibling hops over the pre-order
    /// `end` column.
    Child,
    /// Strict descendants: a pre-order range fill per maximal subtree.
    Descendant,
    /// Parents of every context node: one read of the pre-order parent
    /// column each.
    Parent,
    /// Strict ancestors: climbing the pre-order parent column with early
    /// cutoff on overlap.
    Ancestor,
}

impl Axis {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "desc",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
        }
    }
}

/// A node of the index algebra. See the module docs for the denotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IxPlan {
    /// The context set, substituted at evaluation time.
    Context,
    /// The singleton root set.
    Root,
    /// Every node of the tree.
    All,
    /// The empty set.
    Empty,
    /// Nodes labelled with the given symbol (label postings).
    ScanLabel(SymId),
    /// Nodes whose attribute equals the given (non-`⊥`) value.
    ScanValue(AttrId, Value),
    /// Nodes whose attribute is unset (`⊥`): the complement of the
    /// column's `has` postings.
    ScanAttrBot(AttrId),
    /// Nodes where two attribute columns agree (including jointly `⊥`).
    ScanAttrPair(AttrId, AttrId),
    /// Leaves (structural postings).
    ScanLeaf,
    /// First children, root included (matches `TreeAtom::First`).
    ScanFirst,
    /// Last children, root included (matches `TreeAtom::Last`).
    ScanLast,
    /// Set intersection of all operands.
    Intersect(Vec<IxPlan>),
    /// Set union of all operands.
    Union(Vec<IxPlan>),
    /// Axis expansion of the operand's result.
    Expand(Axis, Box<IxPlan>),
    /// `if guard ≠ ∅ then body else ∅` — the context-emptiness guard for
    /// context-independent subqueries (`/p` steps, FO facts about `x`).
    IfNonEmpty(Box<IxPlan>, Box<IxPlan>),
}

impl IxPlan {
    /// Replace every [`IxPlan::Context`] leaf with a copy of `inner` — the
    /// step-composition operation of the XPath compiler.
    pub fn subst(self, inner: &IxPlan) -> IxPlan {
        match self {
            IxPlan::Context => inner.clone(),
            IxPlan::Intersect(ps) => {
                IxPlan::Intersect(ps.into_iter().map(|p| p.subst(inner)).collect())
            }
            IxPlan::Union(ps) => IxPlan::Union(ps.into_iter().map(|p| p.subst(inner)).collect()),
            IxPlan::Expand(ax, p) => IxPlan::Expand(ax, Box::new(p.subst(inner))),
            IxPlan::IfNonEmpty(c, t) => {
                IxPlan::IfNonEmpty(Box::new(c.subst(inner)), Box::new(t.subst(inner)))
            }
            leaf => leaf,
        }
    }

    /// Number of IR nodes — the planner's guard against pathological
    /// substitution blowup (nested unions multiply `Context` leaves).
    pub fn size(&self) -> usize {
        match self {
            IxPlan::Intersect(ps) | IxPlan::Union(ps) => {
                1 + ps.iter().map(IxPlan::size).sum::<usize>()
            }
            IxPlan::Expand(_, p) => 1 + p.size(),
            IxPlan::IfNonEmpty(c, t) => 1 + c.size() + t.size(),
            _ => 1,
        }
    }

    /// Render the plan compactly for diagnostics (`lint --index`).
    pub fn display(&self, vocab: &Vocab) -> String {
        match self {
            IxPlan::Context => "ctx".to_owned(),
            IxPlan::Root => "root".to_owned(),
            IxPlan::All => "all".to_owned(),
            IxPlan::Empty => "empty".to_owned(),
            IxPlan::ScanLabel(s) => format!("label({})", vocab.sym_name(*s)),
            IxPlan::ScanValue(a, v) => {
                format!(
                    "value(@{}={})",
                    vocab.attr_name(*a),
                    vocab.value_display(*v)
                )
            }
            IxPlan::ScanAttrBot(a) => format!("value(@{}=⊥)", vocab.attr_name(*a)),
            IxPlan::ScanAttrPair(a, b) => {
                format!(
                    "attrpair(@{}=@{})",
                    vocab.attr_name(*a),
                    vocab.attr_name(*b)
                )
            }
            IxPlan::ScanLeaf => "leaf".to_owned(),
            IxPlan::ScanFirst => "first".to_owned(),
            IxPlan::ScanLast => "last".to_owned(),
            IxPlan::Intersect(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.display(vocab)).collect();
                format!("and({})", parts.join(", "))
            }
            IxPlan::Union(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.display(vocab)).collect();
                format!("or({})", parts.join(", "))
            }
            IxPlan::Expand(ax, p) => format!("{}({})", ax.name(), p.display(vocab)),
            IxPlan::IfNonEmpty(c, t) => {
                format!("if-nonempty({}, {})", c.display(vocab), t.display(vocab))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subst_replaces_every_context_leaf() {
        let p = IxPlan::Intersect(vec![
            IxPlan::Context,
            IxPlan::Expand(Axis::Child, Box::new(IxPlan::Context)),
            IxPlan::Root,
        ]);
        let got = p.subst(&IxPlan::All);
        assert_eq!(
            got,
            IxPlan::Intersect(vec![
                IxPlan::All,
                IxPlan::Expand(Axis::Child, Box::new(IxPlan::All)),
                IxPlan::Root,
            ])
        );
        assert_eq!(got.size(), 5);
    }

    #[test]
    fn display_is_compact() {
        let mut v = Vocab::new();
        let s = v.sym("sigma");
        let p = IxPlan::Intersect(vec![
            IxPlan::Expand(Axis::Descendant, Box::new(IxPlan::Context)),
            IxPlan::ScanLabel(s),
        ]);
        assert_eq!(p.display(&v), "and(desc(ctx), label(sigma))");
    }
}
