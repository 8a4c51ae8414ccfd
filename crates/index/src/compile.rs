//! Compilers into the index algebra.
//!
//! **XPath** is covered completely: [`compile_xpath`] implements the
//! forward translation `comp(p)` (result set of `p` from a context set)
//! and filters with path predicates go through the backward translation
//! `back(q, T) = {x : comp(q)({x}) ∩ T ≠ ∅}` — the downward-fragment
//! algebra correspondence of Hellings et al. When the planner rejects a
//! plan it is on *cost* grounds, never correctness.
//!
//! **FO(∃*)** is covered on its positive two-variable fragment
//! ([`ExistsFormula::is_positive_xy`] plus an atom whitelist):
//! [`compile_exists`] returns `None` outside it and the caller falls back
//! to [`ExistsFormula::select`]. Atoms about `x` alone compile
//! to [`IxPlan::IfNonEmpty`] guards, which is sound because FO plans are
//! only ever evaluated from singleton contexts (`select` runs from one
//! `u`); XPath plans, which *are* substituted into set contexts, never use
//! x-guards.

use twq_logic::{ExistsFormula, Formula, TreeAtom, Var};
use twq_tree::Label;
use twq_xpath::{Pred, XPath};

use crate::plan::{Axis, IxPlan};

/// The forward translation `comp(p)`: a plan whose value on a context set
/// `S` is `⋃_{x∈S} eval_from(p, x)`. Union-homomorphic by construction,
/// which is what makes step composition a [`IxPlan::subst`].
pub fn compile_xpath(path: &XPath) -> IxPlan {
    match path {
        XPath::Name(s) => IxPlan::Intersect(vec![IxPlan::Context, IxPlan::ScanLabel(*s)]),
        XPath::Wild => IxPlan::Context,
        XPath::Child(p1, p2) => {
            compile_xpath(p2).subst(&IxPlan::Expand(Axis::Child, Box::new(compile_xpath(p1))))
        }
        XPath::Descendant(p1, p2) => compile_xpath(p2).subst(&IxPlan::Expand(
            Axis::Descendant,
            Box::new(compile_xpath(p1)),
        )),
        // `/p` is context-independent — except that an empty context must
        // still produce an empty result (eval_from never runs it then).
        XPath::FromRoot(p) => IxPlan::IfNonEmpty(
            Box::new(IxPlan::Context),
            Box::new(compile_xpath(p).subst(&IxPlan::Root)),
        ),
        XPath::FromDesc(p) => {
            compile_xpath(p).subst(&IxPlan::Expand(Axis::Descendant, Box::new(IxPlan::Context)))
        }
        XPath::FromChild(p) => {
            compile_xpath(p).subst(&IxPlan::Expand(Axis::Child, Box::new(IxPlan::Context)))
        }
        XPath::Filter(p, pred) => IxPlan::Intersect(vec![compile_xpath(p), sat(pred)]),
        XPath::Union(p1, p2) => IxPlan::Union(vec![compile_xpath(p1), compile_xpath(p2)]),
    }
}

/// The context-independent satisfaction set of a filter predicate:
/// `{y : pred holds at y}`.
fn sat(pred: &Pred) -> IxPlan {
    match pred {
        Pred::Path(q) => compile_back(q, IxPlan::All),
        Pred::AttrEqConst(a, d) => {
            if d.is_bot() {
                IxPlan::ScanAttrBot(*a)
            } else {
                IxPlan::ScanValue(*a, *d)
            }
        }
        Pred::AttrEqAttr(a, b) => IxPlan::ScanAttrPair(*a, *b),
    }
}

/// The backward translation `back(q, T) = {x : comp(q)({x}) ∩ T ≠ ∅}`,
/// used for existence filters: a path predicate holds at `x` exactly when
/// `back(q, All)` contains `x`.
fn compile_back(path: &XPath, t: IxPlan) -> IxPlan {
    match path {
        XPath::Name(s) => IxPlan::Intersect(vec![IxPlan::ScanLabel(*s), t]),
        XPath::Wild => t,
        XPath::Child(p1, p2) => compile_back(
            p1,
            IxPlan::Expand(Axis::Parent, Box::new(compile_back(p2, t))),
        ),
        XPath::Descendant(p1, p2) => compile_back(
            p1,
            IxPlan::Expand(Axis::Ancestor, Box::new(compile_back(p2, t))),
        ),
        // `/p` succeeds from every context node or from none: test the
        // root once, return All or nothing.
        XPath::FromRoot(p) => IxPlan::IfNonEmpty(
            Box::new(IxPlan::Intersect(vec![IxPlan::Root, compile_back(p, t)])),
            Box::new(IxPlan::All),
        ),
        XPath::FromDesc(p) => IxPlan::Expand(Axis::Ancestor, Box::new(compile_back(p, t))),
        XPath::FromChild(p) => IxPlan::Expand(Axis::Parent, Box::new(compile_back(p, t))),
        XPath::Filter(p, pred) => compile_back(p, IxPlan::Intersect(vec![t, sat(pred)])),
        XPath::Union(p1, p2) => {
            IxPlan::Union(vec![compile_back(p1, t.clone()), compile_back(p2, t)])
        }
    }
}

/// Compile a binary FO(∃*) select into the index algebra, or `None` when
/// the formula leaves the positive two-variable fragment (quantifiers,
/// negation, sibling-order atoms, cross-node value joins, delimiter
/// labels). The resulting plan is valid for **singleton** contexts only —
/// exactly how [`crate::fo_select_routed`] evaluates it.
pub fn compile_exists(phi: &ExistsFormula) -> Option<IxPlan> {
    if !phi.is_positive_xy() {
        return None;
    }
    translate(phi.matrix(), phi.x(), phi.y())
}

fn translate(f: &Formula, x: Var, y: Var) -> Option<IxPlan> {
    match f {
        Formula::True => Some(IxPlan::All),
        Formula::False => Some(IxPlan::Empty),
        Formula::Atom(a) => atom_plan(a, x, y),
        Formula::And(fs) => fs
            .iter()
            .map(|g| translate(g, x, y))
            .collect::<Option<Vec<_>>>()
            .map(IxPlan::Intersect),
        Formula::Or(fs) => fs
            .iter()
            .map(|g| translate(g, x, y))
            .collect::<Option<Vec<_>>>()
            .map(IxPlan::Union),
        Formula::Not(_) | Formula::Exists(..) | Formula::Forall(..) => None,
    }
}

/// An x-only fact, lifted to a set of `y`s: everything if the (singleton)
/// context satisfies it, nothing otherwise.
fn guard(p: IxPlan) -> IxPlan {
    IxPlan::IfNonEmpty(Box::new(p), Box::new(IxPlan::All))
}

/// Same fact about the context node itself, as a guard condition.
fn on_ctx(p: IxPlan) -> IxPlan {
    guard(IxPlan::Intersect(vec![IxPlan::Context, p]))
}

fn atom_plan(a: &TreeAtom, x: Var, y: Var) -> Option<IxPlan> {
    Some(match *a {
        TreeAtom::Eq(p, q) if p == q => IxPlan::All,
        TreeAtom::Eq(p, q) if (p, q) == (x, y) || (p, q) == (y, x) => IxPlan::Context,
        TreeAtom::Edge(p, q) | TreeAtom::Desc(p, q) | TreeAtom::SibLess(p, q) if p == q => {
            // All three relations are irreflexive.
            IxPlan::Empty
        }
        TreeAtom::Succ(p, q) if p == q => IxPlan::Empty,
        TreeAtom::Edge(p, q) if (p, q) == (x, y) => {
            IxPlan::Expand(Axis::Child, Box::new(IxPlan::Context))
        }
        TreeAtom::Edge(p, q) if (p, q) == (y, x) => {
            IxPlan::Expand(Axis::Parent, Box::new(IxPlan::Context))
        }
        TreeAtom::Desc(p, q) if (p, q) == (x, y) => {
            IxPlan::Expand(Axis::Descendant, Box::new(IxPlan::Context))
        }
        TreeAtom::Desc(p, q) if (p, q) == (y, x) => {
            IxPlan::Expand(Axis::Ancestor, Box::new(IxPlan::Context))
        }
        TreeAtom::Lab(Label::Sym(s), v) if v == y => IxPlan::ScanLabel(s),
        TreeAtom::Lab(Label::Sym(s), v) if v == x => on_ctx(IxPlan::ScanLabel(s)),
        TreeAtom::ValConst(attr, v, d) if v == y || v == x => {
            let scan = if d.is_bot() {
                IxPlan::ScanAttrBot(attr)
            } else {
                IxPlan::ScanValue(attr, d)
            };
            if v == y {
                scan
            } else {
                on_ctx(scan)
            }
        }
        TreeAtom::ValEq(a1, p, a2, q) if p == q => {
            let scan = IxPlan::ScanAttrPair(a1, a2);
            if p == y {
                scan
            } else {
                on_ctx(scan)
            }
        }
        TreeAtom::Root(v) if v == y => IxPlan::Root,
        TreeAtom::Root(v) if v == x => on_ctx(IxPlan::Root),
        TreeAtom::Leaf(v) if v == y => IxPlan::ScanLeaf,
        TreeAtom::Leaf(v) if v == x => on_ctx(IxPlan::ScanLeaf),
        TreeAtom::First(v) if v == y => IxPlan::ScanFirst,
        TreeAtom::First(v) if v == x => on_ctx(IxPlan::ScanFirst),
        TreeAtom::Last(v) if v == y => IxPlan::ScanLast,
        TreeAtom::Last(v) if v == x => on_ctx(IxPlan::ScanLast),
        // Sibling order, successor, cross-node value joins, and delimiter
        // labels stay with the walking evaluator.
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_xpath::ast::xb;

    #[test]
    fn selective_descendant_query_compiles_to_range_intersect() {
        let s = twq_tree::SymId(3);
        let plan = compile_xpath(&xb::from_desc(xb::name(s)));
        assert_eq!(
            plan,
            IxPlan::Intersect(vec![
                IxPlan::Expand(Axis::Descendant, Box::new(IxPlan::Context)),
                IxPlan::ScanLabel(s),
            ])
        );
    }

    #[test]
    fn from_root_gets_an_emptiness_guard() {
        let s = twq_tree::SymId(0);
        let plan = compile_xpath(&xb::from_root(xb::name(s)));
        match plan {
            IxPlan::IfNonEmpty(c, t) => {
                assert_eq!(*c, IxPlan::Context);
                assert_eq!(
                    *t,
                    IxPlan::Intersect(vec![IxPlan::Root, IxPlan::ScanLabel(s)])
                );
            }
            other => panic!("expected guard, got {other:?}"),
        }
    }

    #[test]
    fn path_filter_uses_the_backward_translation() {
        let s = twq_tree::SymId(1);
        // *[s] — keep context nodes with an s-labelled child. The builder
        // wraps the predicate path in FromChild (child-relative test), so
        // the backward translation contracts it through a parent step.
        let plan = compile_xpath(&xb::filter(xb::wild(), xb::name(s)));
        assert_eq!(
            plan,
            IxPlan::Intersect(vec![
                IxPlan::Context,
                IxPlan::Expand(
                    Axis::Parent,
                    Box::new(IxPlan::Intersect(vec![IxPlan::ScanLabel(s), IxPlan::All])),
                ),
            ])
        );
    }
}
