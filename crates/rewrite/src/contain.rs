//! Conservative emptiness and containment checking for the downward
//! fragment (Hellings et al., *Comparing Downward Fragments of the
//! Relational Calculus with Transitive Closure on Trees*).
//!
//! Both checkers are **sound but incomplete**: `provably_empty` returning
//! `true` and `contains` returning `true` are semantic guarantees (verified
//! against brute-force enumeration on bounded random trees in
//! `tests/rewrite.rs`); `false` means "could not prove it".

use std::collections::BTreeSet;

use twq_tree::SymId;
use twq_xpath::{Pred, XPath};

/// What the rewriter may assume about the trees a query will run on.
///
/// The default context assumes nothing; adding facts only *enables* more
/// rewrites (alphabet-based and depth-based emptiness), it never changes
/// the meaning of a query on conforming trees.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewriteCtx {
    /// The element alphabet `Σ`: a `Name(s)` test with `s ∉ Σ` selects
    /// nothing on conforming trees.
    pub alphabet: Option<BTreeSet<SymId>>,
    /// Maximum node depth (root = 0) of conforming trees: a query whose
    /// every match needs a deeper tree is empty.
    pub max_depth: Option<usize>,
}

impl RewriteCtx {
    /// No assumptions: only structurally-provable rewrites fire.
    pub fn unconstrained() -> Self {
        RewriteCtx::default()
    }

    /// Declare the element alphabet.
    pub fn with_alphabet(mut self, syms: impl IntoIterator<Item = SymId>) -> Self {
        self.alphabet = Some(syms.into_iter().collect());
        self
    }

    /// Declare the maximum node depth.
    pub fn with_max_depth(mut self, d: usize) -> Self {
        self.max_depth = Some(d);
        self
    }
}

/// A possibly-unbounded set of element labels, read off a borrowed query
/// and never materialized: the labels `p` may select ([`Labels::Selected`])
/// or those its context node must carry ([`Labels::Context`]). A set is
/// `Any` (unbounded) or `Only` a finite set of symbols, and is built from
/// singletons, `Any`, intersections and unions.
#[derive(Clone, Copy)]
enum Labels<'a> {
    Any,
    Selected(&'a XPath),
    Context(&'a XPath),
}

/// One constructor of a [`Labels`] set.
enum LabelsNode<'a> {
    One(SymId),
    Any,
    Inter(Labels<'a>, Labels<'a>),
    Union(Labels<'a>, Labels<'a>),
    Same(Labels<'a>),
}

impl<'a> Labels<'a> {
    /// Labels the node a predicate is tested at must have for it to hold.
    fn of_pred(f: &'a Pred) -> Labels<'a> {
        match f {
            Pred::Path(q) => Labels::Context(q),
            Pred::AttrEqConst(..) | Pred::AttrEqAttr(..) => Labels::Any,
        }
    }

    fn node(self) -> LabelsNode<'a> {
        match self {
            Labels::Any => LabelsNode::Any,
            Labels::Selected(p) => match p {
                XPath::Name(s) => LabelsNode::One(*s),
                XPath::Wild => LabelsNode::Any,
                XPath::Child(_, b) | XPath::Descendant(_, b) => {
                    LabelsNode::Same(Labels::Selected(b))
                }
                XPath::FromRoot(q) | XPath::FromDesc(q) | XPath::FromChild(q) => {
                    LabelsNode::Same(Labels::Selected(q))
                }
                XPath::Filter(q, f) => LabelsNode::Inter(Labels::Selected(q), Labels::of_pred(f)),
                XPath::Union(a, b) => LabelsNode::Union(Labels::Selected(a), Labels::Selected(b)),
            },
            Labels::Context(p) => match p {
                XPath::Name(s) => LabelsNode::One(*s),
                XPath::Wild | XPath::FromRoot(_) | XPath::FromDesc(_) | XPath::FromChild(_) => {
                    LabelsNode::Any
                }
                XPath::Child(a, _) | XPath::Descendant(a, _) | XPath::Filter(a, _) => {
                    LabelsNode::Same(Labels::Context(a))
                }
                XPath::Union(a, b) => LabelsNode::Union(Labels::Context(a), Labels::Context(b)),
            },
        }
    }

    /// Is the set unbounded? An intersection is when both sides are, a
    /// union when either is.
    fn is_any(self) -> bool {
        match self.node() {
            LabelsNode::One(_) => false,
            LabelsNode::Any => true,
            LabelsNode::Inter(x, y) => x.is_any() && y.is_any(),
            LabelsNode::Union(x, y) => x.is_any() || y.is_any(),
            LabelsNode::Same(x) => x.is_any(),
        }
    }

    /// Is `s` in the set (always, for an unbounded one)?
    fn has(self, s: SymId) -> bool {
        match self.node() {
            LabelsNode::One(t) => t == s,
            LabelsNode::Any => true,
            LabelsNode::Inter(x, y) => x.has(s) && y.has(s),
            LabelsNode::Union(x, y) => x.has(s) || y.has(s),
            LabelsNode::Same(x) => x.has(s),
        }
    }

    /// Does `f` hold for some symbol the set is built from? Every member
    /// of a bounded set is one of them.
    fn any_sym(self, f: &mut impl FnMut(SymId) -> bool) -> bool {
        match self.node() {
            LabelsNode::One(t) => f(t),
            LabelsNode::Any => false,
            LabelsNode::Inter(x, y) | LabelsNode::Union(x, y) => x.any_sym(f) || y.any_sym(f),
            LabelsNode::Same(x) => x.any_sym(f),
        }
    }

    /// Two bounded sets with no common member (an unbounded set is never
    /// disjoint from anything).
    fn disjoint(self, other: Labels<'_>) -> bool {
        !self.is_any() && !other.is_any() && !self.any_sym(&mut |s| self.has(s) && other.has(s))
    }
}

/// Lower bounds on what a match of `p` needs, with the context node at
/// depth ≥ `d`: `(tree height needed, depth of the selected node)`.
/// Union takes componentwise minima, which only weakens the bound.
fn need(p: &XPath, d: usize) -> (usize, usize) {
    match p {
        XPath::Name(_) | XPath::Wild => (d, d),
        XPath::Child(a, b) | XPath::Descendant(a, b) => {
            let (ha, da) = need(a, d);
            let (hb, db) = need(b, da + 1);
            (ha.max(hb), db)
        }
        XPath::FromRoot(q) => {
            let (hq, dq) = need(q, 0);
            (hq.max(d), dq)
        }
        XPath::FromDesc(q) | XPath::FromChild(q) => need(q, d + 1),
        XPath::Filter(q, f) => {
            let (hq, dq) = need(q, d);
            match &**f {
                Pred::Path(inner) => {
                    let (hi, _) = need(inner, dq);
                    (hq.max(hi), dq)
                }
                _ => (hq, dq),
            }
        }
        XPath::Union(a, b) => {
            let (ha, da) = need(a, d);
            let (hb, db) = need(b, d);
            (ha.min(hb), da.min(db))
        }
    }
}

/// Two `@a = d` constraints on one filter chain with the same attribute
/// and different constants (they all test the same node, so they clash).
fn attr_const_clash(p: &XPath) -> bool {
    let mut outer = p;
    while let XPath::Filter(inner, f) = outer {
        if let Pred::AttrEqConst(a, v) = **f {
            let mut rest = &**inner;
            while let XPath::Filter(next, g) = rest {
                if matches!(**g, Pred::AttrEqConst(b, w) if b == a && w != v) {
                    return true;
                }
                rest = next;
            }
        }
        outer = inner;
    }
    false
}

/// Is `p` provably empty — selecting nothing at any context of any tree
/// conforming to `ctx`?
pub fn provably_empty(p: &XPath, ctx: &RewriteCtx) -> bool {
    if let Some(d) = ctx.max_depth {
        if need(p, 0).0 > d {
            return true;
        }
    }
    empty_rec(p, ctx)
}

fn empty_rec(p: &XPath, ctx: &RewriteCtx) -> bool {
    match p {
        XPath::Name(s) => ctx.alphabet.as_ref().is_some_and(|a| !a.contains(s)),
        XPath::Wild => false,
        XPath::Child(a, b) | XPath::Descendant(a, b) => empty_rec(a, ctx) || empty_rec(b, ctx),
        XPath::FromRoot(q) | XPath::FromDesc(q) | XPath::FromChild(q) => empty_rec(q, ctx),
        XPath::Filter(q, f) => {
            if empty_rec(q, ctx) || pred_empty(f, ctx) {
                return true;
            }
            // The predicate tests the node q selects: a label clash there
            // kills every match. So do conflicting `@a = d` constants on
            // the same filter chain.
            Labels::Selected(q).disjoint(Labels::of_pred(f)) || attr_const_clash(p)
        }
        XPath::Union(a, b) => empty_rec(a, ctx) && empty_rec(b, ctx),
    }
}

fn pred_empty(f: &Pred, ctx: &RewriteCtx) -> bool {
    match f {
        Pred::Path(q) => empty_rec(q, ctx),
        Pred::AttrEqConst(..) | Pred::AttrEqAttr(..) => false,
    }
}

/// Is `p` a *self relation* — a subset of the identity on `Dom(t)`?
pub fn is_self_relation(p: &XPath) -> bool {
    match p {
        XPath::Name(_) | XPath::Wild => true,
        XPath::Filter(q, _) => is_self_relation(q),
        XPath::Union(a, b) => is_self_relation(a) && is_self_relation(b),
        _ => false,
    }
}

/// Does the predicate hold at every node of every tree?
pub fn pred_tautology(f: &Pred) -> bool {
    match f {
        // A raw `Wild` predicate path is a self test: every node selects
        // itself. (The parser's `p[*]` relativizes to `FromChild(Wild)`,
        // which is *not* tautological — leaves fail it.)
        Pred::Path(XPath::Wild) => true,
        // `[/*]`: the root always exists.
        Pred::Path(XPath::FromRoot(p)) => matches!(**p, XPath::Wild),
        // Unset attributes read as ⊥ on both sides.
        Pred::AttrEqAttr(a, b) => a == b,
        _ => false,
    }
}

/// Does `f` holding imply `g` holds (at the same node)?
fn pred_implies(f: &Pred, g: &Pred) -> bool {
    if f == g || pred_tautology(g) {
        return true;
    }
    match (f, g) {
        (Pred::Path(pf), Pred::Path(pg)) => contains(pf, pg),
        _ => false,
    }
}

/// Push the union branches of `p` (`p` itself if it is not a union).
pub(crate) fn spine<'a>(p: &'a XPath, out: &mut Vec<&'a XPath>) {
    if let XPath::Union(a, b) = p {
        spine(a, out);
        spine(b, out);
    } else {
        out.push(p);
    }
}

/// Conservative containment: `true` guarantees `p(t, x) ⊆ q(t, x)` for
/// every tree `t` and context `x`. Justifies pruning `p | q` to `q`.
///
/// A union on the left is contained when each of its branches is, and a
/// single branch is contained in a union when it is in one of its
/// branches.
pub fn contains(p: &XPath, q: &XPath) -> bool {
    if p == q {
        return true;
    }
    if let XPath::Union(a, b) = p {
        return contains(a, q) && contains(b, q);
    }
    if let XPath::Union(a, b) = q {
        return contains(p, a) || contains(p, b);
    }
    contains1(p, q)
}

fn contains1(p: &XPath, q: &XPath) -> bool {
    // Tautological filters on the right cost nothing.
    if let XPath::Filter(q1, g) = q {
        if pred_tautology(g) && contains(p, q1) {
            return true;
        }
    }
    if let XPath::Filter(p1, f) = p {
        // Componentwise: `p₁[f] ⊑ q₁[g]` when `p₁ ⊑ q₁` and `f ⇒ g`.
        if let XPath::Filter(q1, g) = q {
            if pred_implies(f, g) && contains(p1, q1) {
                return true;
            }
        }
        // Weakening: `p₁[f] ⊆ p₁ ⊑ q`.
        if contains(p1, q) {
            return true;
        }
    }
    match (p, q) {
        // Every self relation is a subset of the identity.
        (_, XPath::Wild) => is_self_relation(p),
        // A child step is also a descendant step, componentwise.
        (XPath::Child(a, b), XPath::Child(c, d))
        | (XPath::Child(a, b), XPath::Descendant(c, d))
        | (XPath::Descendant(a, b), XPath::Descendant(c, d)) => contains(a, c) && contains(b, d),
        (XPath::FromChild(a), XPath::FromChild(b))
        | (XPath::FromChild(a), XPath::FromDesc(b))
        | (XPath::FromDesc(a), XPath::FromDesc(b))
        | (XPath::FromRoot(a), XPath::FromRoot(b)) => contains(a, b),
        // A self left factor collapses into the implicit-step forms.
        (XPath::Child(a, b), XPath::FromChild(q1))
        | (XPath::Child(a, b), XPath::FromDesc(q1))
        | (XPath::Descendant(a, b), XPath::FromDesc(q1)) => is_self_relation(a) && contains(b, q1),
        // ...and back: `FromChild(p) = Wild/p`.
        (XPath::FromChild(p1), XPath::Child(c, d))
        | (XPath::FromChild(p1), XPath::Descendant(c, d))
        | (XPath::FromDesc(p1), XPath::Descendant(c, d)) => {
            contains(&XPath::Wild, c) && contains(p1, d)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_tree::Vocab;
    use twq_xpath::ast::xb;

    #[test]
    fn containment_basics() {
        let mut v = Vocab::new();
        let a = v.sym("a");
        let b = v.sym("b");
        let name = xb::name(a);
        assert!(contains(&name, &XPath::Wild));
        assert!(!contains(&XPath::Wild, &name));
        let cd = xb::child(xb::name(a), xb::name(b));
        let dd = xb::desc(xb::name(a), xb::name(b));
        assert!(contains(&cd, &dd));
        assert!(!contains(&dd, &cd));
        assert!(contains(&cd, &xb::union(dd.clone(), name.clone())));
        assert!(contains(
            &xb::filter_attr_attr(cd.clone(), v.attr("k"), v.attr("k")),
            &dd
        ));
    }

    #[test]
    fn emptiness_alphabet_and_depth() {
        let mut v = Vocab::new();
        let a = v.sym("a");
        let ghost = v.sym("ghost");
        let ctx = RewriteCtx::unconstrained()
            .with_alphabet([a])
            .with_max_depth(1);
        assert!(provably_empty(&xb::name(ghost), &ctx));
        assert!(!provably_empty(&xb::name(a), &ctx));
        // a/a/a needs depth ≥ 2 below the context.
        let deep = xb::child(xb::name(a), xb::child(xb::name(a), xb::name(a)));
        assert!(provably_empty(&deep, &ctx));
        assert!(!provably_empty(&xb::child(xb::name(a), xb::name(a)), &ctx));
        // Label clash between a path and its self predicate.
        let b = v.sym("b");
        let clash = XPath::Filter(Box::new(xb::name(a)), Box::new(Pred::Path(xb::name(b))));
        assert!(provably_empty(&clash, &RewriteCtx::unconstrained()));
        // Conflicting attribute constants on one chain.
        let k = v.attr("k");
        let c1 = v.val_int(1);
        let c2 = v.val_int(2);
        let conflict = xb::filter_attr_const(xb::filter_attr_const(xb::wild(), k, c1), k, c2);
        assert!(provably_empty(&conflict, &RewriteCtx::unconstrained()));
        assert!(!provably_empty(
            &xb::filter_attr_const(xb::filter_attr_const(xb::wild(), k, c1), k, c1),
            &RewriteCtx::unconstrained()
        ));
    }

    #[test]
    fn tautologies() {
        let mut v = Vocab::new();
        let k = v.attr("k");
        assert!(pred_tautology(&Pred::Path(XPath::Wild)));
        assert!(pred_tautology(&Pred::Path(xb::from_root(xb::wild()))));
        assert!(pred_tautology(&Pred::AttrEqAttr(k, k)));
        assert!(!pred_tautology(&Pred::AttrEqAttr(k, v.attr("l"))));
    }
}
