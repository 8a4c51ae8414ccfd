//! Set-at-a-time (walking) evaluation of XPath expressions — the
//! evaluator every planner falls back to, checked against the `FO(∃*)`
//! translation of [`compile`](crate::compile()) by the fuzz oracle.
//!
//! Each AST node maps a *frontier* [`NodeSet`] to a [`NodeSet`] once per
//! query, following the tree's links; nothing (no interval encoding, no
//! index) is built per query. The union of `eval_from(p, x)` over the
//! frontier's members is what comes out:
//!
//! * `σ` and `*` filter the frontier; `/` steps follow child links;
//! * `//` steps walk the subtree of each frontier member that an earlier
//!   member's walk has not already covered. Members are visited in
//!   ascending arena id, and a parent's id is always below its
//!   children's, so overlapping subtrees are walked once;
//! * `/p` runs `p` from `{root}` when the frontier is non-empty;
//! * a path filter `p[q]` keeps the members of `p`'s result from which
//!   `q` selects something: a forward pass runs `q` from those members
//!   and keeps the sets the backward pass needs, then a backward pass
//!   (parents; ancestors climbed with early exit) maps `q`'s result back
//!   to its starting points, touching only what the forward pass reached.
//!
//! One call therefore costs O(|q|·|t|) and allocates O(|q|) sets — the
//! linear bound for navigational XPath (Libkin, *Logics for Unranked
//! Trees*). The forward/backward split is the same one `twq-index`
//! compiles into postings (`compile_xpath` / `compile_back`), run here
//! over the tree's links instead.

use std::collections::BTreeSet;

use twq_exec::Pool;
use twq_guard::{DepthKind, GaugeKind, Guard, GuardError, NullGuard, TwqError};
use twq_obs::{Collector, FoEval, NullCollector};
use twq_tree::{Label, NodeId, NodeSet, Tree};

use crate::ast::{Pred, XPath};

/// All nodes selected by `path` from context node `x`, as a [`NodeSet`]
/// (iteration in arena order — the same order the former `BTreeSet`
/// return carried).
pub fn eval_from(tree: &Tree, path: &XPath, x: NodeId) -> NodeSet {
    eval_from_in(tree, path, x, &mut NullCollector, &mut NullGuard).expect("NullGuard never trips")
}

/// [`eval_from`] with a collector and a resource guard.
///
/// Each AST-node evaluation emits one [`FoEval::Path`] and one nested
/// axis span whose frontier is that node's whole result set — what a
/// [`TraceCollector`](twq_obs::TraceCollector) records — and each filter
/// application one [`FoEval::Pred`]. The guard sees one
/// [`DepthKind::Query`] level per AST-node evaluation, one
/// [`Guard::charge`] per AST node of one unit plus the nodes that step
/// touched (so fuel grows with the tree, at most a constant times
/// `|q|·|t|`), and each result's size as a [`GaugeKind::Relation`]
/// observation. With [`NullGuard`] the call never fails.
pub fn eval_from_in<C: Collector, G: Guard>(
    tree: &Tree,
    path: &XPath,
    x: NodeId,
    c: &mut C,
    g: &mut G,
) -> Result<NodeSet, TwqError> {
    let mut w = Walker::new(tree, c, g);
    w.fwd(path, &NodeSet::from([x]), false)
        .map_err(TwqError::Guard)
}

/// Whether a filter predicate holds at node `y`.
pub fn pred_holds(tree: &Tree, pred: &Pred, y: NodeId) -> bool {
    let (mut c, mut g) = (NullCollector, NullGuard);
    let kept = Walker::new(tree, &mut c, &mut g).keep(pred, NodeSet::from([y]));
    !kept.expect("NullGuard never trips").is_empty()
}

/// All (context, selected) pairs — the full binary relation.
pub fn eval_pairs(tree: &Tree, path: &XPath) -> BTreeSet<(NodeId, NodeId)> {
    let mut out = BTreeSet::new();
    for x in tree.nodes() {
        for y in eval_from(tree, path, x) {
            out.insert((x, y));
        }
    }
    out
}

/// Batch [`eval_from`]: one selection per context node in `contexts`,
/// fanned across `pool`, results in `contexts` order. Equivalent to mapping
/// [`eval_from`] serially — and with a 1-worker pool it *is* that loop.
pub fn select_batch(tree: &Tree, path: &XPath, contexts: &[NodeId], pool: &Pool) -> Vec<NodeSet> {
    pool.scoped(contexts.len(), |i| eval_from(tree, path, contexts[i]))
}

/// The stable axis-step name a trace span carries for each [`XPath`]
/// variant.
fn axis_name(path: &XPath) -> &'static str {
    match path {
        XPath::Name(_) => "name",
        XPath::Wild => "wildcard",
        XPath::Child(..) => "child",
        XPath::Descendant(..) => "descendant",
        XPath::FromRoot(_) => "from-root",
        XPath::FromDesc(_) => "from-desc",
        XPath::FromChild(_) => "from-child",
        XPath::Filter(..) => "filter",
        XPath::Union(..) => "union",
    }
}

/// One AST node's entry on the tape of a path filter's forward pass:
/// pushed after its operands' entries, popped before them.
struct Frame {
    /// The tape length when the node's forward pass began. Once the
    /// backward pass runs out of targets, everything above it goes.
    mark: usize,
    saved: Saved,
}

/// What a node's backward step needs from its forward step.
enum Saved {
    /// Nothing: the step needs no set, or it never ran (an empty frontier
    /// maps to the empty set, so its evaluation is skipped).
    Nothing,
    /// `p₁//p₂` and `//p`: the nodes the walk started from, and the
    /// strict descendants it reached.
    Desc { from: NodeSet, reach: NodeSet },
    /// `/p`: the frontier it ran from.
    Root(NodeSet),
    /// `p₁ | p₂`: each branch's result.
    Union(NodeSet, NodeSet),
}

struct Walker<'a, C, G> {
    tree: &'a Tree,
    c: &'a mut C,
    g: &'a mut G,
    /// Frames of the path filters whose forward pass is running.
    tape: Vec<Frame>,
    /// Nodes touched by the AST node being evaluated, charged on exit.
    rows: u64,
}

impl<'a, C: Collector, G: Guard> Walker<'a, C, G> {
    fn new(tree: &'a Tree, c: &'a mut C, g: &'a mut G) -> Self {
        Walker {
            tree,
            c,
            g,
            tape: Vec::new(),
            rows: 0,
        }
    }

    fn empty(&self) -> NodeSet {
        NodeSet::with_capacity(self.tree.len())
    }

    /// The union of `eval_from(path, x)` over `ctx`, with every hook of
    /// one AST-node evaluation. With `rec`, the node and its operands
    /// push the frames the backward pass needs; without, the step's saved
    /// sets are dropped.
    fn fwd(&mut self, path: &XPath, ctx: &NodeSet, rec: bool) -> Result<NodeSet, GuardError> {
        let mark = self.tape.len();
        if ctx.is_empty() {
            if rec {
                self.tape.push(Frame {
                    mark,
                    saved: Saved::Nothing,
                });
            }
            return Ok(NodeSet::new());
        }
        self.c.fo_eval(FoEval::Path);
        if G::ENABLED {
            self.g.enter(DepthKind::Query)?;
        }
        if C::ENABLED {
            self.c.axis_enter(axis_name(path));
        }
        let outer = std::mem::take(&mut self.rows);
        let out = self.step(path, ctx, rec).and_then(|(s, saved)| {
            if G::ENABLED {
                self.g.charge(1 + self.rows)?;
                self.g.gauge(GaugeKind::Relation, s.len())?;
            }
            if rec {
                self.tape.push(Frame { mark, saved });
            }
            Ok(s)
        });
        self.rows = outer;
        if C::ENABLED {
            // The axis span's frontier is the step's full result node set.
            let frontier: Vec<u64> = match &out {
                Ok(s) => s.iter().map(|n| u64::from(n.0)).collect(),
                Err(_) => Vec::new(),
            };
            self.c.axis_exit(&frontier);
        }
        if G::ENABLED {
            self.g.exit(DepthKind::Query);
        }
        out
    }

    fn step(
        &mut self,
        path: &XPath,
        ctx: &NodeSet,
        rec: bool,
    ) -> Result<(NodeSet, Saved), GuardError> {
        let tree = self.tree;
        Ok(match path {
            XPath::Name(s) => (
                self.retain(ctx, |u| tree.label(u) == Label::Sym(*s)),
                Saved::Nothing,
            ),
            XPath::Wild => (ctx.clone(), Saved::Nothing),
            XPath::Child(p1, p2) => {
                let from = self.fwd(p1, ctx, rec)?;
                let next = self.children(&from);
                (self.fwd(p2, &next, rec)?, Saved::Nothing)
            }
            XPath::Descendant(p1, p2) => {
                let from = self.fwd(p1, ctx, rec)?;
                let reach = self.descendants(&from);
                let out = self.fwd(p2, &reach, rec)?;
                (out, Saved::Desc { from, reach })
            }
            XPath::FromRoot(p) => {
                let out = self.fwd(p, &NodeSet::from([tree.root()]), rec)?;
                (out, Saved::Root(ctx.clone()))
            }
            XPath::FromDesc(p) => {
                let reach = self.descendants(ctx);
                let out = self.fwd(p, &reach, rec)?;
                let from = ctx.clone();
                (out, Saved::Desc { from, reach })
            }
            XPath::FromChild(p) => {
                let next = self.children(ctx);
                (self.fwd(p, &next, rec)?, Saved::Nothing)
            }
            // The backward pass needs nothing from the filter itself: the
            // targets it is handed already satisfy the predicate.
            XPath::Filter(p, q) => {
                let from = self.fwd(p, ctx, rec)?;
                (self.keep(q, from)?, Saved::Nothing)
            }
            XPath::Union(p1, p2) => {
                let left = self.fwd(p1, ctx, rec)?;
                let right = self.fwd(p2, ctx, rec)?;
                let mut out = left.clone();
                out.union_with(&right);
                self.rows += out.len() as u64;
                (out, Saved::Union(left, right))
            }
        })
    }

    /// The members of `from` at which `pred` holds: one filter
    /// application.
    fn keep(&mut self, pred: &Pred, from: NodeSet) -> Result<NodeSet, GuardError> {
        self.c.fo_eval(FoEval::Pred);
        let tree = self.tree;
        let q = match pred {
            Pred::Path(q) => q,
            Pred::AttrEqConst(a, d) => return Ok(self.retain(&from, |y| tree.attr(y, *a) == *d)),
            Pred::AttrEqAttr(a, b) => {
                return Ok(self.retain(&from, |y| tree.attr(y, *a) == tree.attr(y, *b)))
            }
        };
        // Forward from `from`, then back from everything reached:
        // `{y ∈ from : eval_from(q, y) ≠ ∅}`.
        let mark = self.tape.len();
        let reached = self.fwd(q, &from, true)?;
        let out = self.back(q, reached);
        debug_assert_eq!(self.tape.len(), mark, "unbalanced filter tape");
        Ok(out)
    }

    /// The members of `from` that pass `test`.
    fn retain(&mut self, from: &NodeSet, test: impl Fn(NodeId) -> bool) -> NodeSet {
        self.rows += from.len() as u64;
        let mut out = self.empty();
        out.extend(from.iter().filter(|&y| test(y)));
        out
    }

    /// The backward pass: given targets `t` among `path`'s result from
    /// the frontier `C` its forward pass ran from, the members of `C`
    /// from which `path` selects some target. Pops the frames
    /// `fwd(path, C, true)` pushed.
    fn back(&mut self, path: &XPath, t: NodeSet) -> NodeSet {
        let Frame { mark, saved } = self.tape.pop().expect("one frame per AST node");
        if t.is_empty() {
            self.tape.truncate(mark);
            return t;
        }
        match (path, saved) {
            // `t` lies in the result, which is a subset of `C` here.
            (XPath::Name(_) | XPath::Wild, _) => t,
            (XPath::Child(p1, p2), _) => {
                let hit = self.back(p2, t);
                let mid = self.parents(&hit);
                self.back(p1, mid)
            }
            (XPath::Descendant(p1, p2), Saved::Desc { from, reach }) => {
                let hit = self.back(p2, t);
                let mid = self.ancestors_in(&hit, &from, reach);
                self.back(p1, mid)
            }
            // `t` lies in `p`'s result from the root, so every member of
            // the frontier reaches it.
            (XPath::FromRoot(_), Saved::Root(ctx)) => {
                self.tape.truncate(mark);
                ctx
            }
            (XPath::FromDesc(p), Saved::Desc { from, reach }) => {
                let hit = self.back(p, t);
                self.ancestors_in(&hit, &from, reach)
            }
            (XPath::FromChild(p), _) => {
                let hit = self.back(p, t);
                self.parents(&hit)
            }
            (XPath::Filter(p, _), _) => self.back(p, t),
            (XPath::Union(p1, p2), Saved::Union(left, right)) => {
                let mut t2 = t.clone();
                t2.intersect_with(&right);
                let mut t1 = t;
                t1.intersect_with(&left);
                let mut out = self.back(p2, t2);
                out.union_with(&self.back(p1, t1));
                out
            }
            _ => unreachable!("filter tape out of step with the query"),
        }
    }

    /// Every child of every member of `from`.
    fn children(&mut self, from: &NodeSet) -> NodeSet {
        let mut out = self.empty();
        for u in from {
            out.extend(self.tree.children(u));
        }
        self.rows += (from.len() + out.len()) as u64;
        out
    }

    /// Every strict descendant of every member of `from`. A member
    /// already reached lies inside a subtree walked before it (ancestors
    /// have lower ids), so its own subtree is skipped.
    fn descendants(&mut self, from: &NodeSet) -> NodeSet {
        let tree = self.tree;
        let mut out = self.empty();
        for u in from {
            if out.contains(u) {
                continue;
            }
            if u == tree.root() {
                // The root is id 0 and its subtree every id: one range
                // fill covers every member.
                let last = NodeId(tree.len() as u32 - 1);
                out.insert_range(NodeId(1), last);
                break;
            }
            let Some(mut cur) = tree.first_child(u) else {
                continue;
            };
            'walk: loop {
                out.insert(cur);
                if let Some(c) = tree.first_child(cur) {
                    cur = c;
                    continue;
                }
                loop {
                    if let Some(s) = tree.next_sibling(cur) {
                        cur = s;
                        break;
                    }
                    cur = tree.parent(cur).expect("a walked node lies below `u`");
                    if cur == u {
                        break 'walk;
                    }
                }
            }
        }
        self.rows += (from.len() + out.len()) as u64;
        out
    }

    /// The parent of every member of `hit` (all non-root here).
    fn parents(&mut self, hit: &NodeSet) -> NodeSet {
        let tree = self.tree;
        let mut out = self.empty();
        out.extend(hit.iter().filter_map(|v| tree.parent(v)));
        self.rows += hit.len() as u64;
        out
    }

    /// The members of `from` that are strict ancestors of some member of
    /// `hit ⊆ reach`, where `reach` holds the strict descendants of
    /// `from`. Each climb stops at the first node outside `reach` — no
    /// member of `from` lies above it — and removes what it passes from
    /// `reach`, so a later climb stops where an earlier one went through.
    fn ancestors_in(&mut self, hit: &NodeSet, from: &NodeSet, mut reach: NodeSet) -> NodeSet {
        let tree = self.tree;
        let mut out = self.empty();
        let mut climbed = 0;
        for v in hit {
            let mut cur = tree.parent(v);
            while let Some(u) = cur {
                climbed += 1;
                if from.contains(u) {
                    out.insert(u);
                }
                if !reach.remove(u) {
                    break;
                }
                cur = tree.parent(u);
            }
        }
        self.rows += climbed;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::xb;
    use crate::parse::parse_xpath;
    use twq_tree::{parse_tree, Vocab};

    fn doc() -> (Vocab, Tree) {
        let mut v = Vocab::new();
        let t = parse_tree(
            "lib(book[y=1999](title,author,author),book[y=2001](title[y=2001],author))",
            &mut v,
        )
        .unwrap();
        (v, t)
    }

    #[test]
    fn child_steps() {
        let (mut v, t) = doc();
        let p = parse_xpath("lib/book/author", &mut v).unwrap();
        let sel = eval_from(&t, &p, t.root());
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn descendant_steps() {
        let (mut v, t) = doc();
        let p = parse_xpath("lib//author", &mut v).unwrap();
        assert_eq!(eval_from(&t, &p, t.root()).len(), 3);
        let q = parse_xpath("//title", &mut v).unwrap();
        assert_eq!(eval_from(&t, &q, t.root()).len(), 2);
    }

    #[test]
    fn filters() {
        let (mut v, t) = doc();
        // Books with at least two authors: none of the shape below — use a
        // simple existence filter instead.
        let p = parse_xpath("lib/book[title]", &mut v).unwrap();
        assert_eq!(eval_from(&t, &p, t.root()).len(), 2);
        let q = parse_xpath("lib/book[@y=1999]", &mut v).unwrap();
        assert_eq!(eval_from(&t, &q, t.root()).len(), 1);
    }

    #[test]
    fn attr_eq_attr_filter() {
        let (mut v, t) = doc();
        // title whose y equals the book's y would need an axis; here test
        // same-node comparison: book[@y=@y] is trivially all books with y.
        let p = parse_xpath("lib/book[@y=@y]", &mut v).unwrap();
        assert_eq!(eval_from(&t, &p, t.root()).len(), 2);
    }

    #[test]
    fn from_root_ignores_context() {
        let (mut v, t) = doc();
        let p = parse_xpath("/lib/book", &mut v).unwrap();
        // From a deep node, /lib/book still selects both books.
        let deep = t.node_at_path(&[1, 1]).unwrap();
        assert_eq!(eval_from(&t, &p, deep).len(), 2);
    }

    #[test]
    fn union_combines() {
        let (mut v, t) = doc();
        let p = parse_xpath("//title | //author", &mut v).unwrap();
        assert_eq!(eval_from(&t, &p, t.root()).len(), 5);
    }

    #[test]
    fn wildcard_is_identity() {
        let (mut v, t) = doc();
        let p = parse_xpath("*", &mut v).unwrap();
        for u in t.nodes() {
            assert_eq!(eval_from(&t, &p, u), NodeSet::from([u]));
        }
    }

    #[test]
    fn nested_filters_walk_back_through_every_axis() {
        // Each filter path exercises one backward step: ancestors, `/p`,
        // unions, and a filter nested inside a filter.
        let (mut v, t) = doc();
        for (q, want) in [
            ("lib[book//author]", 1),
            ("lib/book[//title[@y=2001]]", 1),
            ("lib/book[author | title[@y=2001]]", 2),
            ("lib/book[title[@y=2001] | nothing]", 1),
            ("lib/book[/lib/book/title]", 2),
            ("lib/book[/nothing]", 0),
            ("//*[title[@y=2001]]", 1),
            ("lib[book[title[@y=1999]]/author]", 0),
            ("lib[book[@y=1999]/author]", 1),
        ] {
            let p = parse_xpath(q, &mut v).unwrap();
            assert_eq!(eval_from(&t, &p, t.root()).len(), want, "{q}");
        }
    }

    #[test]
    fn filters_agree_with_a_per_member_test() {
        // `//*[q]` keeps exactly the strict descendants from which `q`
        // selects something, checked one member at a time.
        let (mut v, t) = doc();
        for q in ["*", "//author", "title | author", "*//*", "/lib[book]"] {
            let inner = parse_xpath(q, &mut v).unwrap();
            let p = xb::filter(xb::from_desc(xb::wild()), inner);
            let XPath::Filter(_, pred) = &p else {
                unreachable!()
            };
            let Pred::Path(rel) = pred.as_ref() else {
                unreachable!()
            };
            let slow: NodeSet = t
                .nodes()
                .filter(|&y| y != t.root() && !eval_from(&t, rel, y).is_empty())
                .collect();
            assert_eq!(eval_from(&t, &p, t.root()), slow, "{q}");
            for y in t.nodes() {
                assert_eq!(
                    pred_holds(&t, pred, y),
                    !eval_from(&t, rel, y).is_empty(),
                    "{q}"
                );
            }
        }
    }

    #[test]
    fn select_batch_matches_serial_any_worker_count() {
        let (mut v, t) = doc();
        let p = parse_xpath("//author | lib/book[@y=1999]", &mut v).unwrap();
        let contexts: Vec<NodeId> = t.nodes().collect();
        for workers in [1, 3] {
            let batch = select_batch(&t, &p, &contexts, &Pool::new(workers));
            assert_eq!(batch.len(), contexts.len());
            for (i, &x) in contexts.iter().enumerate() {
                assert_eq!(batch[i], eval_from(&t, &p, x), "workers={workers} x={x:?}");
            }
        }
    }

    #[test]
    fn pairs_cover_all_contexts() {
        let (mut v, t) = doc();
        let p = parse_xpath("*", &mut v).unwrap();
        assert_eq!(eval_pairs(&t, &p).len(), t.len());
    }
}
