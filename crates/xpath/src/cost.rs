//! A coarse cost model of [`eval_from`](crate::eval_from)'s set-at-a-time
//! walk from the root.
//!
//! The walker evaluates each AST node once, on a whole frontier, so its
//! work is the nodes its steps touch: the frontier each AST node maps
//! (into a fresh set of `n/64` words), the rows of the subtrees a `//`
//! step walks, and for a path filter its forward reach plus the backward
//! pass over what that reached. [`walk_cost`] mirrors that evaluation
//! symbolically over a handful of tree statistics. It tracks each
//! frontier's expected size and its subtree mass (the sum of its members'
//! subtree sizes), which prices the next `//` step, and returns an
//! estimated count of touched nodes and the output cardinality. The
//! `twq-index` planner multiplies the count by a calibrated per-node cost
//! to weigh walking against an index plan; the estimate only needs to be
//! *rankable*, not tight.

use twq_tree::SymId;

use crate::ast::{Pred, XPath};

/// Tree statistics the estimate is computed against (the index layer
/// derives them from its build-time stats).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkParams {
    /// Node count `n`.
    pub nodes: f64,
    /// Mean node depth (root = 0).
    pub avg_depth: f64,
    /// Mean children per internal node.
    pub fanout: f64,
    /// Mean subtree size (`avg_depth + 1` by the depth-sum identity).
    pub avg_subtree: f64,
    /// Distinct element labels: an element test keeps `1/labels` of its
    /// frontier.
    pub labels: f64,
    /// The root's label: an element test on the root itself keeps it or
    /// nothing.
    pub root_label: Option<SymId>,
}

/// The symbolic mirror of one `eval_from` call from the root.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkEstimate {
    /// Estimated nodes touched (the frontier rows and subtree rows each
    /// AST node's step maps, plus one per AST node and per word of the
    /// set it fills), the quantity a per-node cost multiplies.
    pub visits: f64,
    /// Estimated result cardinality, capped at `n`.
    pub out_card: f64,
}

/// Estimate the walking evaluator's work for `path` from the root.
pub fn walk_cost(path: &XPath, p: &WalkParams) -> WalkEstimate {
    let (visits, out) = rec(path, Front::root(p), p);
    WalkEstimate {
        visits,
        out_card: out.card,
    }
}

/// An estimated frontier: its size, the sum of its members' subtree
/// sizes (the root's is `n`), and whether it is exactly the root.
#[derive(Debug, Clone, Copy)]
struct Front {
    card: f64,
    mass: f64,
    is_root: bool,
}

impl Front {
    /// The root context.
    fn root(p: &WalkParams) -> Front {
        Front {
            card: 1.0,
            mass: p.nodes,
            is_root: true,
        }
    }

    /// A fraction `sel` of the frontier, with the same mean subtree size.
    fn keep(self, sel: f64) -> Front {
        Front {
            card: self.card * sel,
            mass: self.mass * sel,
            is_root: false,
        }
    }

    /// Rows and result of a child step.
    fn children(self, p: &WalkParams) -> (f64, Front) {
        let card = (self.card * p.fanout).min(p.nodes);
        let next = Front {
            card,
            mass: (self.mass - self.card).max(card),
            is_root: false,
        };
        (self.card + card, next)
    }

    /// Rows and result of a strict-descendant step: the walk covers the
    /// frontier's subtrees (nested ones once), less the frontier itself.
    fn descendants(self, p: &WalkParams) -> (f64, Front) {
        let card = (self.mass.min(p.nodes) - self.card).max(0.0);
        let next = Front {
            card,
            mass: card * p.avg_subtree,
            is_root: false,
        };
        (self.card + card, next)
    }
}

/// Nodes touched evaluating `path` on frontier `ctx`, and its result.
fn rec(path: &XPath, ctx: Front, p: &WalkParams) -> (f64, Front) {
    let (visits, out) = match path {
        XPath::Name(s) if ctx.is_root => {
            let hit = p.root_label == Some(*s);
            (1.0, if hit { ctx } else { ctx.keep(0.0) })
        }
        XPath::Name(_) => (ctx.card, ctx.keep(1.0 / p.labels.max(1.0))),
        XPath::Wild => (ctx.card, ctx),
        XPath::Child(p1, p2) => {
            let (c1, from) = rec(p1, ctx, p);
            let (rows, next) = from.children(p);
            let (c2, out) = rec(p2, next, p);
            (c1 + rows + c2, out)
        }
        XPath::Descendant(p1, p2) => {
            let (c1, from) = rec(p1, ctx, p);
            let (rows, next) = from.descendants(p);
            let (c2, out) = rec(p2, next, p);
            (c1 + rows + c2, out)
        }
        XPath::FromRoot(q) => rec(q, Front::root(p), p),
        XPath::FromDesc(q) => {
            let (rows, next) = ctx.descendants(p);
            let (c, out) = rec(q, next, p);
            (rows + c, out)
        }
        XPath::FromChild(q) => {
            let (rows, next) = ctx.children(p);
            let (c, out) = rec(q, next, p);
            (rows + c, out)
        }
        XPath::Filter(q, pred) => {
            let (c, from) = rec(q, ctx, p);
            let test = match pred.as_ref() {
                // The forward pass, then a backward pass over its reach.
                Pred::Path(r) => 2.0 * rec(r, from, p).0,
                Pred::AttrEqConst(..) | Pred::AttrEqAttr(..) => from.card,
            };
            // Selectivity guess: a filter keeps half its input.
            (c + test, from.keep(0.5))
        }
        XPath::Union(p1, p2) => {
            let (c1, a) = rec(p1, ctx, p);
            let (c2, b) = rec(p2, ctx, p);
            let card = (a.card + b.card).min(p.nodes);
            let out = Front {
                card,
                mass: a.mass + b.mass,
                is_root: false,
            };
            (c1 + c2 + card, out)
        }
    };
    let out = Front {
        card: out.card.min(p.nodes),
        ..out
    };
    // Every AST node evaluated fills a fresh set, whatever its frontier.
    (1.0 + p.nodes / 64.0 + visits, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::xb;
    use twq_tree::Vocab;

    fn params() -> WalkParams {
        WalkParams {
            nodes: 1000.0,
            avg_depth: 6.0,
            fanout: 3.0,
            avg_subtree: 7.0,
            labels: 8.0,
            root_label: None,
        }
    }

    #[test]
    fn a_descendant_step_from_the_root_walks_the_tree_once() {
        let mut v = Vocab::new();
        let s = v.sym("s");
        let p = params();
        let shallow = walk_cost(&xb::from_child(xb::name(s)), &p);
        let deep = walk_cost(&xb::from_desc(xb::name(s)), &p);
        // Two AST nodes, each filling a set: `//s` walks every node below
        // the root and tests each once, a child step only the root's
        // fanout.
        let sets = 2.0 * (1.0 + p.nodes / 64.0);
        assert!((deep.visits - sets - (2.0 * p.nodes - 1.0)).abs() < 1e-9);
        assert!((shallow.visits - sets - 1.0 - 2.0 * p.fanout).abs() < 1e-9);
        assert!((deep.out_card - (p.nodes - 1.0) / p.labels).abs() < 1e-9);
    }

    #[test]
    fn stacked_descendant_steps_stay_linear() {
        let mut v = Vocab::new();
        let s = v.sym("s");
        let p = params();
        // Each step maps at most n rows, whatever its frontier, so the
        // estimate stays within a constant times |q|·n.
        let q = xb::from_desc(xb::desc(xb::desc(xb::name(s), xb::name(s)), xb::name(s)));
        let e = walk_cost(&q, &p);
        assert!(e.out_card <= p.nodes);
        assert!(e.visits <= 2.0 * q.size() as f64 * p.nodes, "{e:?}");
    }

    #[test]
    fn a_path_filter_pays_its_forward_reach_twice() {
        let mut v = Vocab::new();
        let (s, t) = (v.sym("s"), v.sym("t"));
        let p = params();
        let plain = walk_cost(&xb::from_desc(xb::name(s)), &p);
        let filtered = walk_cost(&xb::filter(xb::from_desc(xb::name(s)), xb::name(t)), &p);
        // `[t]` from k members: k parents + k·fanout children + the test,
        // forward and back, on top of the filter node's own set.
        let set = 1.0 + p.nodes / 64.0;
        let k = plain.out_card;
        let reach = set + (k + k * p.fanout) + set + k * p.fanout;
        assert!((filtered.visits - plain.visits - set - 2.0 * reach).abs() < 1e-6);
    }
}
