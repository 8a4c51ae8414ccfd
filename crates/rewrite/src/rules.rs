//! The rewrite rule catalog. Every rule is a named [`RwRule`] carrying a
//! *local* top-node rewrite: `apply` inspects only the root constructor of
//! the given expression and returns the replacement if the rule fires
//! there. The engine in [`crate::norm`] drives rules bottom-up to a
//! fixpoint; `tests/rewrite.rs` discharges one proptest equivalence
//! obligation per catalog entry (rewritten ≡ direct on ≥256 random trees).
//!
//! Soundness arguments live in DESIGN.md §15; the one-line justifications
//! here name the algebraic identity each rule instantiates.
//!
//! The union rules decide on the borrowed union spine and clone branches
//! only to build the replacement of a rule that fires.

use twq_xpath::XPath;

use crate::contain::{contains, pred_tautology, provably_empty, spine, RewriteCtx};

/// A named, individually-testable rewrite rule.
pub struct RwRule {
    /// Stable rule name (the key of [`crate::Rewritten::fired`]).
    pub name: &'static str,
    /// The identity the rule instantiates.
    pub doc: &'static str,
    /// Try the rule at the root of `p`; `Some` is the rewritten node.
    pub apply: fn(&XPath, &RewriteCtx) -> Option<XPath>,
}

impl std::fmt::Debug for RwRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwRule").field("name", &self.name).finish()
    }
}

/// The catalog, in default application order (cheap structural rules
/// first, containment-backed pruning last).
pub static CATALOG: &[RwRule] = &[
    RwRule {
        name: "union-canon",
        doc: "∪ is associative, commutative, idempotent: flatten, sort, dedupe",
        apply: union_canon,
    },
    RwRule {
        name: "filter-true",
        doc: "p[f] = p when f is tautological (σ ∩ Dom = Dom)",
        apply: filter_true,
    },
    RwRule {
        name: "filter-canon",
        doc: "filters on one node commute and absorb: sort and dedupe chains",
        apply: filter_canon,
    },
    RwRule {
        name: "filter-pushdown",
        doc: "(p∘q)[f] = p∘(q[f]): filters slide through steps to the element test",
        apply: filter_pushdown,
    },
    RwRule {
        name: "wild-fuse",
        doc: "id∘R = R: a wildcard left factor vanishes into the implicit step",
        apply: wild_fuse,
    },
    RwRule {
        name: "step-assoc",
        doc: "relation composition associates: right-nest step chains",
        apply: step_assoc,
    },
    RwRule {
        name: "axis-fuse",
        doc: "≺∘E = E∘≺ and ≺∘≺ = E∘≺: collapse //+/ chains, descendants drift inward",
        apply: axis_fuse,
    },
    RwRule {
        name: "root-canon",
        doc: "evaluating from the root twice is evaluating from the root once",
        apply: root_canon,
    },
    RwRule {
        name: "empty-prune",
        doc: "∅ ∪ q = q: delete provably-empty union branches",
        apply: empty_prune,
    },
    RwRule {
        name: "union-subsume",
        doc: "p ⊑ q ⟹ p ∪ q = q: drop subsumed union branches",
        apply: union_subsume,
    },
];

/// Look a rule up by name (tests address rules this way).
pub fn rule(name: &str) -> Option<&'static RwRule> {
    CATALOG.iter().find(|r| r.name == name)
}

/// Union branches of `p` (the whole of `p` if it is not a union).
pub(crate) fn spine_len(p: &XPath) -> u64 {
    match p {
        XPath::Union(a, b) => spine_len(a) + spine_len(b),
        _ => 1,
    }
}

/// Is `p` already the union [`rebuild_union`] makes of its sorted,
/// deduplicated spine: right-nested, with strictly ascending branches?
fn canonical_spine(p: &XPath) -> bool {
    let mut cur = p;
    while let XPath::Union(a, b) = cur {
        let next = match &**b {
            XPath::Union(c, _) => &**c,
            last => last,
        };
        if matches!(**a, XPath::Union(..)) || **a >= *next {
            return false;
        }
        cur = b;
    }
    true
}

/// The right-nested union of clones of `branches`, in order.
fn rebuild_union<'a>(branches: impl DoubleEndedIterator<Item = &'a XPath>) -> XPath {
    let mut rev = branches.rev();
    let last = rev.next().expect("non-empty union spine").clone();
    rev.fold(last, |acc, b| {
        XPath::Union(Box::new(b.clone()), Box::new(acc))
    })
}

fn union_canon(p: &XPath, _ctx: &RewriteCtx) -> Option<XPath> {
    if canonical_spine(p) {
        return None;
    }
    let mut branches = Vec::new();
    spine(p, &mut branches);
    branches.sort();
    branches.dedup();
    Some(rebuild_union(branches.into_iter()))
}

fn filter_true(p: &XPath, _ctx: &RewriteCtx) -> Option<XPath> {
    let XPath::Filter(inner, f) = p else {
        return None;
    };
    pred_tautology(f).then(|| (**inner).clone())
}

fn filter_canon(p: &XPath, _ctx: &RewriteCtx) -> Option<XPath> {
    let XPath::Filter(mid, g) = p else {
        return None;
    };
    let XPath::Filter(base, f) = &**mid else {
        return None;
    };
    if g == f {
        return Some((**mid).clone());
    }
    // Both predicates test the same selected node, so they commute; order
    // chains by the canonical predicate order, innermost-smallest.
    (g < f).then(|| XPath::Filter(Box::new(XPath::Filter(base.clone(), g.clone())), f.clone()))
}

fn filter_pushdown(p: &XPath, _ctx: &RewriteCtx) -> Option<XPath> {
    let XPath::Filter(inner, f) = p else {
        return None;
    };
    let refilter = |q: &XPath| Box::new(XPath::Filter(Box::new(q.clone()), f.clone()));
    match &**inner {
        XPath::Child(a, b) => Some(XPath::Child(a.clone(), refilter(b))),
        XPath::Descendant(a, b) => Some(XPath::Descendant(a.clone(), refilter(b))),
        XPath::FromRoot(q) => Some(XPath::FromRoot(refilter(q))),
        XPath::FromDesc(q) => Some(XPath::FromDesc(refilter(q))),
        XPath::FromChild(q) => Some(XPath::FromChild(refilter(q))),
        _ => None,
    }
}

fn wild_fuse(p: &XPath, _ctx: &RewriteCtx) -> Option<XPath> {
    match p {
        XPath::Child(a, b) if **a == XPath::Wild => Some(XPath::FromChild(b.clone())),
        XPath::Descendant(a, b) if **a == XPath::Wild => Some(XPath::FromDesc(b.clone())),
        _ => None,
    }
}

fn step_assoc(p: &XPath, _ctx: &RewriteCtx) -> Option<XPath> {
    // (a ∘step₁ b) ∘step₂ c  =  a ∘step₁ (b ∘step₂ c)
    let rebuild = |a: &XPath, inner: XPath, left_is_child: bool| {
        if left_is_child {
            XPath::Child(Box::new(a.clone()), Box::new(inner))
        } else {
            XPath::Descendant(Box::new(a.clone()), Box::new(inner))
        }
    };
    match p {
        XPath::Child(l, c) => match &**l {
            XPath::Child(a, b) => Some(rebuild(a, XPath::Child(b.clone(), c.clone()), true)),
            XPath::Descendant(a, b) => Some(rebuild(a, XPath::Child(b.clone(), c.clone()), false)),
            _ => None,
        },
        XPath::Descendant(l, c) => match &**l {
            XPath::Child(a, b) => Some(rebuild(a, XPath::Descendant(b.clone(), c.clone()), true)),
            XPath::Descendant(a, b) => {
                Some(rebuild(a, XPath::Descendant(b.clone(), c.clone()), false))
            }
            _ => None,
        },
        _ => None,
    }
}

fn axis_fuse(p: &XPath, _ctx: &RewriteCtx) -> Option<XPath> {
    // ≺∘E = E∘≺ (both are "strictly below, depth ≥ 2") and ≺∘≺ = E∘≺,
    // so a descendant step before an implicit step (or an absolute path,
    // which ignores its context entirely) weakens to a child step.
    match p {
        XPath::Descendant(a, b) => match &**b {
            XPath::FromChild(q) => Some(XPath::Child(
                a.clone(),
                Box::new(XPath::FromDesc(q.clone())),
            )),
            XPath::FromDesc(_) | XPath::FromRoot(_) => Some(XPath::Child(a.clone(), b.clone())),
            _ => None,
        },
        XPath::FromDesc(b) => match &**b {
            XPath::FromChild(q) => Some(XPath::FromChild(Box::new(XPath::FromDesc(q.clone())))),
            XPath::FromDesc(_) | XPath::FromRoot(_) => Some(XPath::FromChild(b.clone())),
            _ => None,
        },
        _ => None,
    }
}

fn root_canon(p: &XPath, _ctx: &RewriteCtx) -> Option<XPath> {
    let XPath::FromRoot(inner) = p else {
        return None;
    };
    matches!(**inner, XPath::FromRoot(_)).then(|| (**inner).clone())
}

/// `(branches, provably empty branches)` of `p`'s union spine.
fn count_empty(p: &XPath, ctx: &RewriteCtx) -> (usize, usize) {
    match p {
        XPath::Union(a, b) => {
            let (na, ea) = count_empty(a, ctx);
            let (nb, eb) = count_empty(b, ctx);
            (na + nb, ea + eb)
        }
        _ => (1, usize::from(provably_empty(p, ctx))),
    }
}

fn empty_prune(p: &XPath, ctx: &RewriteCtx) -> Option<XPath> {
    let XPath::Union(..) = p else { return None };
    // A fully-empty union has no expressible form in the fragment; the
    // top-level certificate (RW002) covers that case instead.
    let (n, empty) = count_empty(p, ctx);
    if empty == 0 || empty == n {
        return None;
    }
    let mut branches = Vec::with_capacity(n);
    spine(p, &mut branches);
    Some(rebuild_union(
        branches.into_iter().filter(|b| !provably_empty(b, ctx)),
    ))
}

/// The branches of a right-nested union, left to right, read in place.
fn right_spine(p: &XPath) -> impl Iterator<Item = &XPath> + Clone {
    let mut rest = Some(p);
    std::iter::from_fn(move || match rest? {
        XPath::Union(a, b) => {
            rest = Some(b);
            Some(&**a)
        }
        last => {
            rest = None;
            Some(last)
        }
    })
}

fn union_subsume(p: &XPath, _ctx: &RewriteCtx) -> Option<XPath> {
    let XPath::Union(..) = p else { return None };
    // A canonical spine's branches are distinct, so until a branch drops
    // every one is citable: nothing fires exactly when no branch is
    // contained in another. Decide that on the spine in place.
    if canonical_spine(p) {
        let spine = right_spine(p).enumerate();
        let subsumed = spine
            .clone()
            .any(|(i, b)| spine.clone().any(|(j, c)| i != j && contains(b, c)));
        if !subsumed {
            return None;
        }
    }
    let mut branches = Vec::new();
    spine(p, &mut branches);
    // Operate on the canonical spine so the surviving set is independent
    // of branch order (confluence with `union-canon`).
    branches.sort();
    branches.dedup();
    let n = branches.len();
    let mut keep = vec![true; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            // Cite only branches that cannot themselves be dropped on our
            // account: already-final earlier keeps, or any later branch
            // (forward-citation chains strictly increase and end at a
            // kept branch, so every drop is covered transitively).
            let citable = if j < i { keep[j] } else { true };
            if citable && contains(branches[i], branches[j]) {
                keep[i] = false;
                break;
            }
        }
    }
    Some(rebuild_union(
        branches
            .into_iter()
            .zip(keep)
            .filter_map(|(b, k)| k.then_some(b)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_tree::Vocab;
    use twq_xpath::ast::xb;

    fn ctx() -> RewriteCtx {
        RewriteCtx::unconstrained()
    }

    #[test]
    fn catalog_names_are_unique_and_resolve() {
        let mut names: Vec<_> = CATALOG.iter().map(|r| r.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), CATALOG.len());
        for r in CATALOG {
            assert!(rule(r.name).is_some());
        }
    }

    #[test]
    fn union_canon_flattens_sorts_dedupes() {
        let mut v = Vocab::new();
        let a = xb::name(v.sym("a"));
        let b = xb::name(v.sym("b"));
        let p = xb::union(xb::union(b.clone(), a.clone()), b.clone());
        let out = (rule("union-canon").unwrap().apply)(&p, &ctx()).unwrap();
        assert_eq!(out, xb::union(a.clone(), b.clone()));
        assert!((rule("union-canon").unwrap().apply)(&out, &ctx()).is_none());
    }

    #[test]
    fn subsume_keeps_one_of_mutually_contained() {
        let mut v = Vocab::new();
        let a = xb::name(v.sym("a"));
        let b = xb::name(v.sym("b"));
        // a/b ⊑ a//b: the child-step branch is pruned.
        let cd = xb::child(a.clone(), b.clone());
        let dd = xb::desc(a.clone(), b.clone());
        let out =
            (rule("union-subsume").unwrap().apply)(&xb::union(cd.clone(), dd.clone()), &ctx())
                .unwrap();
        assert_eq!(out, dd);
        // Equivalent branches leave exactly one survivor.
        let p = xb::union(a.clone(), a.clone());
        let out = (rule("union-subsume").unwrap().apply)(&p, &ctx()).unwrap();
        assert_eq!(out, a);
    }

    #[test]
    fn axis_fuse_collapses_desc_chains() {
        let mut v = Vocab::new();
        let a = xb::name(v.sym("a"));
        // //(//(a)) = /child::*//(a) modulo implicit-step notation.
        let p = xb::from_desc(xb::from_desc(a.clone()));
        let out = (rule("axis-fuse").unwrap().apply)(&p, &ctx()).unwrap();
        assert_eq!(out, xb::from_child(xb::from_desc(a.clone())));
    }
}
