//! The abstract syntax of the paper's XPath fragment (Section 2.3):
//! union, root, child, descendant, filter, element test, and wildcard —
//! plus attribute-comparison filters, which the paper notes its `FO(∃*)`
//! abstraction covers ("FO(∃*) can also compare attribute values").
//!
//! Semantics is the standard binary-relation semantics over `Dom(t)`:
//! an expression denotes the set of (context, selected) node pairs.

use twq_tree::{AttrId, SymId, Value, Vocab};

/// An XPath expression.
///
/// `Ord` is the *canonical expression order* used by the `twq-rw` rewriter
/// to sort and deduplicate union branches and filter chains; it is the
/// derived structural order and carries no semantic meaning.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum XPath {
    /// Element test `σ`: `{(x, x) | lab(x) = σ}`.
    Name(SymId),
    /// Wildcard `*`: the identity relation.
    Wild,
    /// `p₁/p₂`: `p₁`, then one child step, then `p₂`.
    Child(Box<XPath>, Box<XPath>),
    /// `p₁//p₂`: `p₁`, then a strict-descendant step, then `p₂`.
    Descendant(Box<XPath>, Box<XPath>),
    /// `/p`: evaluate `p` from the root, ignoring the context node.
    FromRoot(Box<XPath>),
    /// Leading `//p`: a strict-descendant step from the context, then `p`.
    FromDesc(Box<XPath>),
    /// An implicit leading *child* step: `{(x, z) | ∃c (E(x, c) ∧ (c, z) ∈ p)}`.
    ///
    /// This variant has no surface syntax of its own — the parser inserts
    /// it around relative paths inside filters, so that `b[d]` means
    /// "a `b` that has a `d`-child" (`E(y, y₃) ∧ O_d(y₃)` in the paper's
    /// worked translation) rather than a self test.
    FromChild(Box<XPath>),
    /// `p[q]`: keep selected nodes at which the predicate holds.
    Filter(Box<XPath>, Box<Pred>),
    /// `p₁ | p₂`: union.
    Union(Box<XPath>, Box<XPath>),
}

/// A filter predicate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pred {
    /// `[p]`: the path selects at least one node from here.
    Path(XPath),
    /// `[@a = d]`.
    AttrEqConst(AttrId, Value),
    /// `[@a = @b]` (on the same node).
    AttrEqAttr(AttrId, AttrId),
}

impl XPath {
    /// Number of AST nodes (a size measure for workload generators).
    pub fn size(&self) -> usize {
        match self {
            XPath::Name(_) | XPath::Wild => 1,
            XPath::Child(a, b) | XPath::Descendant(a, b) | XPath::Union(a, b) => {
                1 + a.size() + b.size()
            }
            XPath::FromRoot(p) | XPath::FromDesc(p) | XPath::FromChild(p) => 1 + p.size(),
            XPath::Filter(p, q) => {
                1 + p.size()
                    + match &**q {
                        Pred::Path(inner) => inner.size(),
                        _ => 1,
                    }
            }
        }
    }

    /// Render in the concrete syntax accepted by [`crate::parse_xpath`].
    pub fn display(&self, vocab: &Vocab) -> String {
        match self {
            XPath::Name(s) => vocab.sym_name(*s).to_owned(),
            XPath::Wild => "*".to_owned(),
            XPath::Child(a, b) => format!("{}/{}", a.display(vocab), b.display(vocab)),
            XPath::Descendant(a, b) => {
                format!("{}//{}", a.display(vocab), b.display(vocab))
            }
            XPath::FromRoot(p) => format!("/{}", p.display(vocab)),
            XPath::FromDesc(p) => format!("//{}", p.display(vocab)),
            // Only occurs inside filters, where the child step is implicit.
            XPath::FromChild(p) => p.display(vocab),
            XPath::Filter(p, q) => format!("{}[{}]", p.display(vocab), q.display(vocab)),
            XPath::Union(a, b) => format!("{} | {}", a.display(vocab), b.display(vocab)),
        }
    }
}

impl Pred {
    /// Render in concrete syntax.
    pub fn display(&self, vocab: &Vocab) -> String {
        match self {
            Pred::Path(p) => p.display(vocab),
            Pred::AttrEqConst(a, d) => {
                format!("@{}={}", vocab.attr_name(*a), vocab.value_display(*d))
            }
            Pred::AttrEqAttr(a, b) => {
                format!("@{}=@{}", vocab.attr_name(*a), vocab.attr_name(*b))
            }
        }
    }
}

/// Insert the implicit leading child step on every bare (axis-less) branch
/// of a filter path: `d` becomes `FromChild(d)`, while `/p`, `//p` and
/// already-relativized branches are left alone. Unions are relativized
/// per branch.
pub fn relativize(p: XPath) -> XPath {
    match p {
        XPath::Union(a, b) => XPath::Union(Box::new(relativize(*a)), Box::new(relativize(*b))),
        XPath::FromRoot(_) | XPath::FromDesc(_) | XPath::FromChild(_) => p,
        other => XPath::FromChild(Box::new(other)),
    }
}

/// Ergonomic constructors.
pub mod xb {
    use super::*;

    /// Element test.
    pub fn name(s: SymId) -> XPath {
        XPath::Name(s)
    }

    /// Wildcard.
    pub fn wild() -> XPath {
        XPath::Wild
    }

    /// `a/b`.
    pub fn child(a: XPath, b: XPath) -> XPath {
        XPath::Child(Box::new(a), Box::new(b))
    }

    /// `a//b`.
    pub fn desc(a: XPath, b: XPath) -> XPath {
        XPath::Descendant(Box::new(a), Box::new(b))
    }

    /// `/p`.
    pub fn from_root(p: XPath) -> XPath {
        XPath::FromRoot(Box::new(p))
    }

    /// `//p`.
    pub fn from_desc(p: XPath) -> XPath {
        XPath::FromDesc(Box::new(p))
    }

    /// Implicit leading child step (filter-relative path).
    pub fn from_child(p: XPath) -> XPath {
        XPath::FromChild(Box::new(p))
    }

    /// `p[q]` with a path predicate; `q` is relativized exactly as the
    /// parser does (implicit leading child step on bare branches).
    pub fn filter(p: XPath, q: XPath) -> XPath {
        XPath::Filter(Box::new(p), Box::new(Pred::Path(super::relativize(q))))
    }

    /// `p[@a = d]`.
    pub fn filter_attr_const(p: XPath, a: AttrId, d: Value) -> XPath {
        XPath::Filter(Box::new(p), Box::new(Pred::AttrEqConst(a, d)))
    }

    /// `p[@a = @b]`.
    pub fn filter_attr_attr(p: XPath, a: AttrId, b: AttrId) -> XPath {
        XPath::Filter(Box::new(p), Box::new(Pred::AttrEqAttr(a, b)))
    }

    /// `a | b`.
    pub fn union(a: XPath, b: XPath) -> XPath {
        XPath::Union(Box::new(a), Box::new(b))
    }
}

#[cfg(test)]
mod tests {
    use super::xb::*;
    use super::*;

    #[test]
    fn size_counts_nodes() {
        let mut v = Vocab::new();
        let a = v.sym("a");
        let b = v.sym("b");
        let p = child(name(a), filter(name(b), wild()));
        // filter() relativizes: the implicit child step adds one node.
        assert_eq!(p.size(), 6);
    }

    #[test]
    fn display_round_readable() {
        let mut v = Vocab::new();
        let a = v.sym("a");
        let b = v.sym("b");
        let at = v.attr("k");
        let d = v.val_int(3);
        let p = union(
            from_root(child(name(a), name(b))),
            filter_attr_const(wild(), at, d),
        );
        assert_eq!(p.display(&v), "/a/b | *[@k=3]");
    }
}
