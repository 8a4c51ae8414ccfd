//! The rewrite engine: drives the [`crate::rules`] catalog bottom-up to a
//! fixpoint, producing the canonical normal form.
//!
//! Children (including filter-predicate paths) are normalized first; then
//! rules are applied at the node until none fires, re-normalizing any
//! subterm a top-level fire rearranged. Every rule strictly simplifies or
//! canonically reorders, so the loop converges; a generous fuel bound
//! makes termination unconditional regardless (idempotence and
//! confluence-on-samples are asserted in `tests/rewrite.rs`).
//!
//! The engine is copy-on-write: it borrows the query, and a subterm that
//! no rule changes comes back as `None`, so only the path from a fire up
//! to the root is rebuilt. A query already in normal form is not copied
//! at all.

use std::borrow::Cow;

use twq_xpath::{Pred, XPath};

use crate::contain::RewriteCtx;
use crate::rules::{spine_len, RwRule, CATALOG};

/// Per-run rule accounting.
#[derive(Debug, Default)]
pub(crate) struct EngineStats {
    /// Fires per rule, by [`CATALOG`] position.
    pub fired: [u64; CATALOG.len()],
    /// Union branches deleted (dedupe + emptiness + subsumption).
    pub pruned: u64,
}

/// The catalog positions in default application order.
fn catalog_order() -> [usize; CATALOG.len()] {
    std::array::from_fn(|i| i)
}

/// `p` with every direct subterm (including the predicate path of a
/// filter) replaced by `f`'s result, or `None` when `f` returns `None`
/// (unchanged) for all of them. Unchanged siblings of a changed subterm
/// are cloned.
fn map_children(p: &XPath, f: &mut impl FnMut(&XPath) -> Option<XPath>) -> Option<XPath> {
    fn both(
        a: &XPath,
        b: &XPath,
        f: &mut impl FnMut(&XPath) -> Option<XPath>,
    ) -> Option<(Box<XPath>, Box<XPath>)> {
        match (f(a), f(b)) {
            (None, None) => None,
            (fa, fb) => Some((
                Box::new(fa.unwrap_or_else(|| a.clone())),
                Box::new(fb.unwrap_or_else(|| b.clone())),
            )),
        }
    }
    match p {
        XPath::Name(_) | XPath::Wild => None,
        XPath::Child(a, b) => both(a, b, f).map(|(a, b)| XPath::Child(a, b)),
        XPath::Descendant(a, b) => both(a, b, f).map(|(a, b)| XPath::Descendant(a, b)),
        XPath::Union(a, b) => both(a, b, f).map(|(a, b)| XPath::Union(a, b)),
        XPath::FromRoot(q) => f(q).map(|q| XPath::FromRoot(Box::new(q))),
        XPath::FromDesc(q) => f(q).map(|q| XPath::FromDesc(Box::new(q))),
        XPath::FromChild(q) => f(q).map(|q| XPath::FromChild(Box::new(q))),
        XPath::Filter(q, pred) => {
            let inner = match &**pred {
                Pred::Path(inner) => f(inner).map(Pred::Path),
                _ => None,
            };
            match (f(q), inner) {
                (None, None) => None,
                (q2, pred2) => Some(XPath::Filter(
                    Box::new(q2.unwrap_or_else(|| (**q).clone())),
                    Box::new(pred2.unwrap_or_else(|| (**pred).clone())),
                )),
            }
        }
    }
}

fn prunes_branches(rule: &RwRule) -> bool {
    matches!(rule.name, "union-canon" | "empty-prune" | "union-subsume")
}

/// The normal form of `p`, or `None` when `p` is already in it.
fn norm_rec(p: &XPath, ctx: &RewriteCtx, order: &[usize], st: &mut EngineStats) -> Option<XPath> {
    let mut cur = match map_children(p, &mut |c| norm_rec(c, ctx, order, st)) {
        Some(changed) => Cow::Owned(changed),
        None => Cow::Borrowed(p),
    };
    // Fuel bounds top-level fires at this node; each fire either shrinks
    // the term or canonically reorders it, so the bound is generous. It is
    // sized on the node's first fire, which most nodes never reach.
    let mut fuel: Option<usize> = None;
    'fix: loop {
        for &ri in order {
            let rule = &CATALOG[ri];
            if let Some(next) = (rule.apply)(&cur, ctx) {
                debug_assert_ne!(next, *cur, "rule {} fired without changing", rule.name);
                let fuel = fuel.get_or_insert_with(|| 16 + 4 * cur.size());
                st.fired[ri] += 1;
                if prunes_branches(rule) {
                    st.pruned += spine_len(&cur).saturating_sub(spine_len(&next));
                }
                let renormed = map_children(&next, &mut |c| norm_rec(c, ctx, order, st));
                cur = Cow::Owned(renormed.unwrap_or(next));
                *fuel -= 1;
                if *fuel == 0 {
                    break 'fix;
                }
                continue 'fix;
            }
        }
        break;
    }
    match cur {
        Cow::Owned(changed) => Some(changed),
        Cow::Borrowed(_) => None,
    }
}

/// The normal form (`None` when `p` is already in it) and the run's
/// accounting, under the default rule order.
pub(crate) fn normalize_stats(p: &XPath, ctx: &RewriteCtx) -> (Option<XPath>, EngineStats) {
    let mut st = EngineStats::default();
    let out = norm_rec(p, ctx, &catalog_order(), &mut st);
    (out, st)
}

/// Normalize under the default (assumption-free) context.
pub fn normalize(p: &XPath) -> XPath {
    normalize_in(p, &RewriteCtx::unconstrained())
}

/// Normalize under `ctx` (alphabet/depth facts enable emptiness pruning).
pub fn normalize_in(p: &XPath, ctx: &RewriteCtx) -> XPath {
    normalize_stats(p, ctx).0.unwrap_or_else(|| p.clone())
}

/// Normalize with a seed-shuffled rule application order. The result must
/// not depend on the order — `tests/rewrite.rs` asserts this confluence
/// property on samples.
pub fn normalize_seeded(p: &XPath, ctx: &RewriteCtx, seed: u64) -> XPath {
    let mut order = catalog_order();
    // Fisher–Yates on a splitmix64 stream: deterministic per seed.
    let mut s = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = || {
        s = s.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut st = EngineStats::default();
    norm_rec(p, ctx, &order, &mut st).unwrap_or_else(|| p.clone())
}

/// Apply one rule everywhere it matches, once, bottom-up — the shape the
/// per-rule proptest obligations exercise (`None` if it fired nowhere).
pub fn apply_rule_deep(rule: &RwRule, p: &XPath, ctx: &RewriteCtx) -> Option<XPath> {
    fn go(rule: &RwRule, p: &XPath, ctx: &RewriteCtx) -> Option<XPath> {
        match map_children(p, &mut |c| go(rule, c, ctx)) {
            Some(cur) => Some((rule.apply)(&cur, ctx).unwrap_or(cur)),
            None => (rule.apply)(p, ctx),
        }
    }
    go(rule, p, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_tree::Vocab;
    use twq_xpath::ast::xb;

    #[test]
    fn normal_form_examples() {
        let mut v = Vocab::new();
        let a = xb::name(v.sym("a"));
        let b = xb::name(v.sym("b"));
        let c = xb::name(v.sym("c"));
        // Left-nested steps right-associate.
        let p = xb::child(xb::child(a.clone(), b.clone()), c.clone());
        assert_eq!(
            normalize(&p),
            xb::child(a.clone(), xb::child(b.clone(), c.clone()))
        );
        // `a//(*/b)` = `a/(*//b)` = `a/descendant-or-deeper b`.
        let p = xb::desc(a.clone(), xb::from_child(b.clone()));
        assert_eq!(
            normalize(&p),
            xb::child(a.clone(), xb::from_desc(b.clone()))
        );
        // Wildcard left factors vanish.
        let p = xb::child(xb::wild(), b.clone());
        assert_eq!(normalize(&p), xb::from_child(b.clone()));
        // Filters land on the element test.
        let k = v.attr("k");
        let one = v.val_int(1);
        let p = xb::filter_attr_const(xb::child(a.clone(), b.clone()), k, one);
        assert_eq!(
            normalize(&p),
            xb::child(a.clone(), xb::filter_attr_const(b.clone(), k, one))
        );
        // Idempotent on its own output.
        let q = normalize(&p);
        assert_eq!(normalize(&q), q);
    }

    #[test]
    fn union_pruning_counts() {
        let mut v = Vocab::new();
        let a = xb::name(v.sym("a"));
        let b = xb::name(v.sym("b"));
        let p = xb::union(
            xb::child(a.clone(), b.clone()),
            xb::union(
                xb::desc(a.clone(), b.clone()),
                xb::child(a.clone(), b.clone()),
            ),
        );
        let (out, st) = normalize_stats(&p, &RewriteCtx::unconstrained());
        assert_eq!(out, Some(xb::desc(a.clone(), b.clone())));
        assert!(st.pruned >= 2, "pruned {} branches", st.pruned);
        let subsume = CATALOG.iter().position(|r| r.name == "union-subsume");
        assert!(st.fired[subsume.unwrap()] > 0);
    }
}
