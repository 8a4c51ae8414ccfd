//! Direct (relational) evaluation of XPath expressions — the reference
//! semantics the `FO(∃*)` compilation is tested against.

use std::collections::BTreeSet;

use twq_exec::Pool;
use twq_guard::{DepthKind, Guard, GuardError, NullGuard, TwqError};
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
/// The collector sees one [`FoEval::Path`] per subexpression evaluation
/// (including recursive steps) and one [`FoEval::Pred`] per
/// filter-predicate test, exposing the relational evaluator's cost
/// profile, plus one nested axis span per subexpression carrying its node
/// frontier — what a [`TraceCollector`](twq_obs::TraceCollector) records.
/// The guard is charged one fuel unit per subexpression evaluation, and
/// expression recursion (including filter nesting) is tracked as
/// [`DepthKind::Query`]. With [`NullGuard`] the call never fails.
pub fn eval_from_in<C: Collector, G: Guard>(
    tree: &Tree,
    path: &XPath,
    x: NodeId,
    c: &mut C,
    g: &mut G,
) -> Result<NodeSet, TwqError> {
    eval_from_inner(tree, path, x, c, g).map_err(TwqError::Guard)
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

fn eval_from_inner<C: Collector, G: Guard>(
    tree: &Tree,
    path: &XPath,
    x: NodeId,
    c: &mut C,
    g: &mut G,
) -> Result<NodeSet, GuardError> {
    c.fo_eval(FoEval::Path);
    if G::ENABLED {
        g.tick()?;
        g.enter(DepthKind::Query)?;
    }
    if C::ENABLED {
        c.axis_enter(axis_name(path));
    }
    let out = eval_from_cases(tree, path, x, c, g);
    if C::ENABLED {
        // The axis span's frontier is the step's full result node set.
        let frontier: Vec<u64> = match &out {
            Ok(s) => s.iter().map(|n| u64::from(n.0)).collect(),
            Err(_) => Vec::new(),
        };
        c.axis_exit(&frontier);
    }
    if G::ENABLED {
        g.exit(DepthKind::Query);
    }
    out
}

fn eval_from_cases<C: Collector, G: Guard>(
    tree: &Tree,
    path: &XPath,
    x: NodeId,
    c: &mut C,
    g: &mut G,
) -> Result<NodeSet, GuardError> {
    Ok(match path {
        XPath::Name(s) => {
            if tree.label(x) == Label::Sym(*s) {
                NodeSet::from([x])
            } else {
                NodeSet::new()
            }
        }
        XPath::Wild => NodeSet::from([x]),
        XPath::Child(p1, p2) => {
            let mut out = NodeSet::with_capacity(tree.len());
            for y in &eval_from_inner(tree, p1, x, c, g)? {
                for ch in tree.children(y) {
                    out.union_with(&eval_from_inner(tree, p2, ch, c, g)?);
                }
            }
            out
        }
        XPath::Descendant(p1, p2) => {
            let mut out = NodeSet::with_capacity(tree.len());
            for y in &eval_from_inner(tree, p1, x, c, g)? {
                for d in tree.node_ids() {
                    if tree.is_strict_ancestor(y, d) {
                        out.union_with(&eval_from_inner(tree, p2, d, c, g)?);
                    }
                }
            }
            out
        }
        XPath::FromRoot(p) => eval_from_inner(tree, p, tree.root(), c, g)?,
        XPath::FromDesc(p) => {
            let mut out = NodeSet::with_capacity(tree.len());
            for d in tree.node_ids() {
                if tree.is_strict_ancestor(x, d) {
                    out.union_with(&eval_from_inner(tree, p, d, c, g)?);
                }
            }
            out
        }
        XPath::FromChild(p) => {
            let mut out = NodeSet::with_capacity(tree.len());
            for ch in tree.children(x) {
                out.union_with(&eval_from_inner(tree, p, ch, c, g)?);
            }
            out
        }
        XPath::Filter(p, q) => {
            let mut out = NodeSet::with_capacity(tree.len());
            for y in &eval_from_inner(tree, p, x, c, g)? {
                if pred_holds_inner(tree, q, y, c, g)? {
                    out.insert(y);
                }
            }
            out
        }
        XPath::Union(p1, p2) => {
            let mut out = eval_from_inner(tree, p1, x, c, g)?;
            out.union_with(&eval_from_inner(tree, p2, x, c, g)?);
            out
        }
    })
}

/// Whether a filter predicate holds at node `y`.
pub fn pred_holds(tree: &Tree, pred: &Pred, y: NodeId) -> bool {
    pred_holds_inner(tree, pred, y, &mut NullCollector, &mut NullGuard)
        .expect("NullGuard never trips")
}

fn pred_holds_inner<C: Collector, G: Guard>(
    tree: &Tree,
    pred: &Pred,
    y: NodeId,
    c: &mut C,
    g: &mut G,
) -> Result<bool, GuardError> {
    c.fo_eval(FoEval::Pred);
    Ok(match pred {
        Pred::Path(p) => !eval_from_inner(tree, p, y, c, g)?.is_empty(),
        Pred::AttrEqConst(a, d) => tree.attr(y, *a) == *d,
        Pred::AttrEqAttr(a, b) => tree.attr(y, *a) == tree.attr(y, *b),
    })
}

/// All (context, selected) pairs — the full binary relation.
pub fn eval_pairs(tree: &Tree, path: &XPath) -> BTreeSet<(NodeId, NodeId)> {
    let mut out = BTreeSet::new();
    for x in tree.node_ids() {
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

#[cfg(test)]
mod tests {
    use super::*;
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
        for u in t.node_ids() {
            assert_eq!(eval_from(&t, &p, u), NodeSet::from([u]));
        }
    }

    #[test]
    fn select_batch_matches_serial_any_worker_count() {
        let (mut v, t) = doc();
        let p = parse_xpath("//author | lib/book[@y=1999]", &mut v).unwrap();
        let contexts: Vec<NodeId> = t.node_ids().collect();
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
