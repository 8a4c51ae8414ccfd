//! The walk-vs-index cost model.
//!
//! Both sides are priced in (approximate) nanoseconds from three
//! calibrated unit costs:
//!
//! * `word_ns` — one 64-bit word touched by a bitset operation;
//! * `row_ns` — one row materialized through a link-following expansion
//!   (child/parent/ancestor steps, conversions);
//! * `walk_node_ns` — one node the walking evaluator touches (the count
//!   comes from [`twq_xpath::walk_cost`]).
//!
//! Index-plan cost and cardinality are estimated bottom-up from postings
//! lengths and the build-time [`IndexStats`]; walking cost mirrors
//! `eval_from`'s set-at-a-time walk symbolically: the frontier each AST
//! node maps, the subtree rows of each `//` step, and each path filter's
//! forward reach plus its backward pass. The defaults are measured against
//! the `index_speedup` bench; [`CostModel::calibrated`] rescales them from
//! the `index/act_*` vs `index/est_*` registry counters a telemetered
//! session accumulates, closing the estimated-vs-actual loop. Estimates
//! only need to *rank* the two evaluators correctly — both sides are
//! priced with the same crudeness.

use twq_obs::Registry;
use twq_xpath::{walk_cost, WalkParams, XPath};

use crate::build::{IndexStats, TreeIndex};
use crate::plan::{Axis, IxPlan};

/// Planner override for equivalence testing and benchmarking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Force {
    /// Let the cost model decide.
    Auto,
    /// Always take the index plan.
    Index,
    /// Always walk.
    Walk,
}

/// The planner's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Evaluate the index plan.
    Index,
    /// Run the walking evaluator.
    Walk,
}

/// Cost estimates for one query against one tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated index-plan cost (~ns).
    pub index_ns: f64,
    /// Estimated walking cost (~ns).
    pub walk_ns: f64,
    /// Estimated index-plan result cardinality.
    pub index_card: f64,
}

/// Unit costs plus the plan-size guard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// ~ns per bitset word touched.
    pub word_ns: f64,
    /// ~ns per link-expanded row.
    pub row_ns: f64,
    /// ~ns per node the walking evaluator touches.
    pub walk_node_ns: f64,
    /// Plans larger than this (IR nodes) always walk — the guard against
    /// substitution blowup on pathologically nested unions.
    pub max_plan_size: usize,
}

impl Default for CostModel {
    /// Units measured on the `index_speedup` workload (release build);
    /// see DESIGN §16 for the calibration procedure.
    fn default() -> Self {
        CostModel {
            word_ns: 1.0,
            row_ns: 8.0,
            walk_node_ns: 1.1,
            max_plan_size: 4096,
        }
    }
}

impl CostModel {
    /// The walk-side parameters derived from build-time stats.
    pub fn walk_params(stats: &IndexStats) -> WalkParams {
        WalkParams {
            nodes: stats.nodes as f64,
            avg_depth: stats.avg_depth,
            fanout: stats.fanout(),
            avg_subtree: stats.avg_subtree(),
            labels: stats.distinct_labels as f64,
            root_label: stats.root_label,
        }
    }

    /// Estimated walking cost (~ns) for `path` from the root.
    pub fn est_walk(&self, stats: &IndexStats, path: &XPath) -> f64 {
        self.walk_node_ns * walk_cost(path, &Self::walk_params(stats)).visits
    }

    /// Estimated index cost (~ns) and result cardinality for `plan`,
    /// bottom-up from postings lengths. `ctx_card` is the context-set
    /// cardinality (1 for root runs).
    pub fn est_plan(&self, idx: &TreeIndex, plan: &IxPlan, ctx_card: f64) -> (f64, f64) {
        let stats = idx.stats();
        let n = stats.nodes as f64;
        let words = (stats.nodes / 64 + 1) as f64;
        let set_op = self.word_ns * words;
        match plan {
            IxPlan::Context => (0.0, ctx_card),
            IxPlan::Root => (self.row_ns, 1.0),
            IxPlan::All => (set_op, n),
            IxPlan::Empty => (0.0, 0.0),
            IxPlan::ScanLabel(s) => (
                set_op,
                idx.label_posting(*s).map_or(0.0, |p| p.len() as f64),
            ),
            IxPlan::ScanValue(a, v) => (
                set_op,
                idx.value_posting(*a, *v).map_or(0.0, |p| p.len() as f64),
            ),
            IxPlan::ScanAttrBot(a) => (
                2.0 * set_op,
                n - idx.has_attr(*a).map_or(0.0, |p| p.len() as f64),
            ),
            IxPlan::ScanAttrPair(a, b) => {
                if a == b {
                    return (set_op, n);
                }
                let (ga, gb) = (idx.value_groups(*a), idx.value_groups(*b));
                // One word-wide intersect+union per shared value group.
                let common = ga.len().min(gb.len()) as f64;
                let cost =
                    self.word_ns * words * (2.0 * common + 3.0) + (ga.len() + gb.len()) as f64;
                let (ha, hb) = (
                    idx.has_attr(*a).map_or(0.0, |p| p.len() as f64),
                    idx.has_attr(*b).map_or(0.0, |p| p.len() as f64),
                );
                // Matches among valued nodes, plus the jointly-⊥ nodes.
                let card = (ha.min(hb) * 0.5 + (n - ha - hb).max(0.0)).min(n);
                (cost, card)
            }
            IxPlan::ScanLeaf => (set_op, stats.leaves as f64),
            IxPlan::ScanFirst | IxPlan::ScanLast => (set_op, (n / stats.fanout()).min(n)),
            IxPlan::Intersect(ps) => {
                if ps.is_empty() {
                    return (set_op, n);
                }
                let mut cost = 0.0;
                let mut card = f64::INFINITY;
                for p in ps {
                    let (c, k) = self.est_plan(idx, p, ctx_card);
                    cost += c + set_op;
                    card = card.min(k);
                }
                (cost, card)
            }
            IxPlan::Union(ps) => {
                let mut cost = 0.0;
                let mut card = 0.0;
                for p in ps {
                    let (c, k) = self.est_plan(idx, p, ctx_card);
                    cost += c + set_op;
                    card += k;
                }
                (cost, card.min(n))
            }
            IxPlan::Expand(ax, p) => {
                let (c, k) = self.est_plan(idx, p, ctx_card);
                match ax {
                    Axis::Child => (
                        c + self.row_ns * k * stats.fanout(),
                        (k * stats.fanout()).min(n),
                    ),
                    Axis::Parent => (c + self.row_ns * k, k.min(n)),
                    Axis::Descendant => (
                        c + self.row_ns * k + set_op,
                        (k * stats.avg_subtree()).min(n),
                    ),
                    Axis::Ancestor => {
                        let climb = stats.avg_depth.max(1.0);
                        (c + self.row_ns * k * climb, (k * climb).min(n))
                    }
                }
            }
            IxPlan::IfNonEmpty(cond, body) => {
                let (cc, _) = self.est_plan(idx, cond, ctx_card);
                let (cb, kb) = self.est_plan(idx, body, ctx_card);
                (cc + cb, kb)
            }
        }
    }

    /// Both sides of the decision for a root-context run of `path` with
    /// its compiled `plan`.
    pub fn estimate(&self, idx: &TreeIndex, plan: &IxPlan, path: &XPath) -> Estimate {
        // Result conversion back to arena space costs one row per output.
        let (cost, card) = self.est_plan(idx, plan, 1.0);
        Estimate {
            index_ns: cost + self.row_ns * card,
            walk_ns: self.est_walk(idx.stats(), path),
            index_card: card,
        }
    }

    /// Pick an evaluator. `Force` wins; on `Auto` the cheaper estimate
    /// does, with oversized plans always walking.
    pub fn choose(&self, est: &Estimate, plan_size: usize, force: Force) -> Choice {
        match force {
            Force::Index => Choice::Index,
            Force::Walk => Choice::Walk,
            Force::Auto => {
                if plan_size > self.max_plan_size || est.index_ns > est.walk_ns {
                    Choice::Walk
                } else {
                    Choice::Index
                }
            }
        }
    }

    /// Rescale the default units from a session registry's accumulated
    /// actual-vs-estimated counters (`index/act_index_ns` /
    /// `index/est_index_ns` and the walk pair), recorded by
    /// `run_query_indexed_with`. Counters absent ⇒ defaults unchanged.
    pub fn calibrated(reg: &Registry) -> CostModel {
        let mut m = CostModel::default();
        let scale = |act: u64, est: u64| {
            if act > 0 && est > 0 {
                act as f64 / est as f64
            } else {
                1.0
            }
        };
        let si = scale(
            reg.counter("index/act_index_ns"),
            reg.counter("index/est_index_ns"),
        );
        m.word_ns *= si;
        m.row_ns *= si;
        m.walk_node_ns *= scale(
            reg.counter("index/act_walk_ns"),
            reg.counter("index/est_walk_ns"),
        );
        m
    }
}
