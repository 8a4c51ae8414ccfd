//! Evaluation of index plans over pre-order bitsets.
//!
//! Everything inside [`eval_plan_pre`] lives in pre-order space: a set bit
//! `j` means "the node at pre-order position `j`". Value scans turn their
//! sorted pre-order lists into bitsets at the leaf. Axis expansions read
//! only the interval encoding's pre-order columns, never the tree: a
//! descendant step fills ranges, a child step hops from sibling to
//! sibling over the `end` column, and parent and ancestor steps read and
//! climb the parent column. [`eval_plan_from`] converts a single arena
//! context in and the result back out, unless the tree's arena ids are
//! its pre-order positions, when both conversions are the identity.
//!
//! A set the index or the caller already holds — the context, a label
//! posting, a structural posting — is read in place wherever it is an
//! operand of an intersection, a union, an axis expansion or a guard. An
//! intersection skips its `All` operands (the neutral element) and
//! accumulates into its first computed operand, so a stored set is copied
//! only when it is the whole result, or when an intersection of several
//! stored sets is. An intersection of one stored set with `All`, as
//! `[p]` filters compile to, is that set, read in place.

use std::borrow::Cow;
use std::cmp::Ordering;

use twq_logic::ExistsFormula;
use twq_tree::{AttrId, NodeId, NodeSet, Tree};

use crate::build::TreeIndex;
use crate::compile::compile_exists;
use crate::plan::{Axis, IxPlan};

/// Every pre-order position of the indexed tree.
fn all_pre(idx: &TreeIndex) -> NodeSet {
    let n = idx.len();
    let mut s = NodeSet::with_capacity(n);
    s.insert_range(NodeId(0), NodeId(n as u32 - 1));
    s
}

/// The set a leaf names that is already stored — the context, a
/// non-empty label posting, a structural posting — or `None` for a plan
/// node whose set is computed.
fn stored<'a>(idx: &'a TreeIndex, plan: &IxPlan, ctx: &'a NodeSet) -> Option<&'a NodeSet> {
    match plan {
        IxPlan::Context => Some(ctx),
        IxPlan::ScanLabel(s) => idx.label_posting(*s),
        IxPlan::ScanLeaf => Some(idx.leaves()),
        IxPlan::ScanFirst => Some(idx.firsts()),
        IxPlan::ScanLast => Some(idx.lasts()),
        _ => None,
    }
}

/// `plan`'s set as an operand: borrowed in place when it is stored (or an
/// intersection that reduces to one stored set), computed otherwise.
fn operand<'a>(idx: &'a TreeIndex, plan: &IxPlan, ctx: &'a NodeSet) -> Cow<'a, NodeSet> {
    match (stored(idx, plan, ctx), plan) {
        (Some(s), _) => Cow::Borrowed(s),
        (None, IxPlan::Intersect(ps)) => intersect(idx, ps, ctx),
        (None, _) => Cow::Owned(eval_plan_pre(idx, plan, ctx)),
    }
}

/// The intersection of `ps`, skipping its `All` operands (`All` when none
/// is left). The first computed operand holds the result and the others
/// are read as [`operand`]s; with none computed, the first stored set is
/// copied into it, or read as it is when it is the only operand.
fn intersect<'a>(idx: &'a TreeIndex, ps: &[IxPlan], ctx: &'a NodeSet) -> Cow<'a, NodeSet> {
    let operands = || ps.iter().filter(|p| !matches!(p, IxPlan::All));
    // An empty stored operand settles the result before anything is
    // computed.
    if operands().any(|p| stored(idx, p, ctx).is_some_and(NodeSet::is_empty)) {
        return Cow::Owned(NodeSet::new());
    }
    let computed = operands().find(|p| stored(idx, p, ctx).is_none());
    let Some(head) = computed.or_else(|| operands().next()) else {
        return Cow::Owned(all_pre(idx));
    };
    let mut rest = operands().filter(|&p| !std::ptr::eq(p, head)).peekable();
    if rest.peek().is_none() {
        return operand(idx, head, ctx);
    }
    let mut acc = operand(idx, head, ctx).into_owned();
    for p in rest {
        if acc.is_empty() {
            break;
        }
        acc.intersect_with(&operand(idx, p, ctx));
    }
    Cow::Owned(acc)
}

/// Evaluate `plan` against the context set `ctx` (both in pre-order
/// space). An empty `Intersect` denotes `All`, an empty `Union` denotes
/// `Empty` (the usual neutral elements).
pub fn eval_plan_pre(idx: &TreeIndex, plan: &IxPlan, ctx: &NodeSet) -> NodeSet {
    match plan {
        IxPlan::Context
        | IxPlan::ScanLabel(_)
        | IxPlan::ScanLeaf
        | IxPlan::ScanFirst
        | IxPlan::ScanLast => stored(idx, plan, ctx).cloned().unwrap_or_default(),
        IxPlan::Root => NodeSet::from([NodeId(0)]),
        IxPlan::All => all_pre(idx),
        IxPlan::Empty => NodeSet::new(),
        IxPlan::ScanValue(a, v) => idx.value_posting(*a, *v).map_or_else(NodeSet::new, set_of),
        IxPlan::ScanAttrBot(a) => {
            let mut s = all_pre(idx);
            if let Some(h) = idx.has_attr(*a) {
                s.difference_with(h);
            }
            s
        }
        IxPlan::ScanAttrPair(a, b) => scan_attr_pair(idx, *a, *b),
        IxPlan::Intersect(ps) => intersect(idx, ps, ctx).into_owned(),
        IxPlan::Union(ps) => {
            let mut iter = ps.iter();
            let Some(first) = iter.next() else {
                return NodeSet::new();
            };
            let mut acc = eval_plan_pre(idx, first, ctx);
            for p in iter {
                acc.union_with(&operand(idx, p, ctx));
            }
            acc
        }
        IxPlan::Expand(ax, p) => expand(idx, *ax, &operand(idx, p, ctx)),
        IxPlan::IfNonEmpty(cond, body) => {
            if operand(idx, cond, ctx).is_empty() {
                NodeSet::new()
            } else {
                eval_plan_pre(idx, body, ctx)
            }
        }
    }
}

/// The set of an ascending pre-order list, sized to its last member.
fn set_of(pres: &[u32]) -> NodeSet {
    let mut s = NodeSet::with_capacity(pres.last().map_or(0, |&p| p as usize + 1));
    for &p in pres {
        s.insert(NodeId(p));
    }
    s
}

/// `{y : val_a(y) = val_b(y)}` — the value groups both columns share,
/// merged pairwise as sorted lists, plus the nodes where both columns are
/// `⊥` (equal by totality of `attr`).
fn scan_attr_pair(idx: &TreeIndex, a: AttrId, b: AttrId) -> NodeSet {
    if a == b {
        return all_pre(idx);
    }
    let mut out = NodeSet::with_capacity(idx.len());
    let (ga, gb) = (idx.value_groups(a), idx.value_groups(b));
    let (va, vb) = (ga.values(), gb.values());
    let (mut i, mut j) = (0, 0);
    while i < va.len() && j < vb.len() {
        match va[i].cmp(&vb[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let (pa, pb) = (ga.group(i), gb.group(j));
                let (mut x, mut y) = (0, 0);
                while x < pa.len() && y < pb.len() {
                    match pa[x].cmp(&pb[y]) {
                        Ordering::Less => x += 1,
                        Ordering::Greater => y += 1,
                        Ordering::Equal => {
                            out.insert(NodeId(pa[x]));
                            x += 1;
                            y += 1;
                        }
                    }
                }
                i += 1;
                j += 1;
            }
        }
    }
    let mut bots = all_pre(idx);
    if let Some(h) = idx.has_attr(a) {
        bots.difference_with(h);
    }
    if let Some(h) = idx.has_attr(b) {
        bots.difference_with(h);
    }
    out.union_with(&bots);
    out
}

fn expand(idx: &TreeIndex, axis: Axis, inner: &NodeSet) -> NodeSet {
    let iv = idx.intervals();
    let mut out = NodeSet::with_capacity(idx.len());
    match axis {
        Axis::Child => {
            // The first child sits right after its parent, and each next
            // sibling right after the previous child's subtree.
            for p in inner {
                let end = iv.end_of_pre(p.0);
                let mut c = p.0 + 1;
                while c <= end {
                    out.insert(NodeId(c));
                    c = iv.end_of_pre(c) + 1;
                }
            }
        }
        Axis::Parent => {
            for p in inner {
                if let Some(q) = iv.parent_of_pre(p.0) {
                    out.insert(NodeId(q));
                }
            }
        }
        Axis::Descendant => {
            // Subtree intervals of an ascending pre-order scan are nested
            // or disjoint, so one high-water cursor merges them: a position
            // at or below the cursor is already covered in full.
            let mut cur_hi: i64 = -1;
            for p in inner {
                let pre = p.0;
                if i64::from(pre) <= cur_hi {
                    continue;
                }
                let e = iv.end_of_pre(pre);
                if pre < e {
                    out.insert_range(NodeId(pre + 1), NodeId(e));
                }
                cur_hi = i64::from(e);
            }
        }
        Axis::Ancestor => {
            // Climb, stopping as soon as an ancestor is already present —
            // the output is ancestor-closed at every point.
            for p in inner {
                let mut cur = iv.parent_of_pre(p.0);
                while let Some(q) = cur {
                    if !out.insert(NodeId(q)) {
                        break;
                    }
                    cur = iv.parent_of_pre(q);
                }
            }
        }
    }
    out
}

/// Evaluate a plan from one arena context node, returning an arena-space
/// result — the indexed counterpart of `eval_from(tree, path, x)` when
/// `plan = compile_xpath(path)`. Compile once per query and reuse the
/// plan across contexts; `tests/index.rs` and the fuzz oracle check the
/// pair against `eval_from` at every context node.
///
/// When the tree's arena ids are its pre-order positions
/// ([`DocIntervals::arena_is_preorder`](twq_tree::DocIntervals::arena_is_preorder),
/// true of every parsed tree), the pre-order result is the arena result
/// and is returned as it is; otherwise it is permuted back.
pub fn eval_plan_from(tree: &Tree, idx: &TreeIndex, plan: &IxPlan, x: NodeId) -> NodeSet {
    debug_assert_eq!(idx.len(), tree.len(), "index built for another tree");
    let iv = idx.intervals();
    let ctx = NodeSet::from([NodeId(iv.begin(x))]);
    let pre = eval_plan_pre(idx, plan, &ctx);
    if iv.arena_is_preorder() {
        return pre;
    }
    let mut out = NodeSet::with_capacity(tree.len());
    for p in &pre {
        out.insert(iv.node_at(p.0));
    }
    out
}

/// [`ExistsFormula::select`] through the index: formulas in the positive
/// two-variable fragment ([`compile_exists`] returns a plan) run as
/// bitset algebra, the rest fall back to [`ExistsFormula::select`].
/// Always answers, reporting whether the index (`true`) or the fallback
/// (`false`) produced the result.
pub fn fo_select_routed(
    tree: &Tree,
    idx: &TreeIndex,
    phi: &ExistsFormula,
    u: NodeId,
) -> (NodeSet, bool) {
    match compile_exists(phi).map(|plan| eval_plan_from(tree, idx, &plan, u)) {
        Some(out) => (out, true),
        None => (phi.select(tree, u), false),
    }
}
