//! Certificate-aware query planning: the routing layer that consults the
//! rewrite record — emptiness, streamability certificate, compiled index
//! plan — before picking an evaluator (the front half of the ROADMAP
//! item 3 planner).
//!
//! Each stage is also usable on its own: [`crate::rewrite`] yields a normal
//! form that any `twq-xpath` evaluator accepts unchanged, and
//! `twq_index::compile_xpath` turns it into an index plan. The fuzz oracle
//! checks every stage against the plain evaluators directly.

use std::time::Instant;

use twq_index::{
    compile_xpath, eval_plan_from, Choice, CostModel, Estimate, Force, IxPlan, TreeIndex,
};
use twq_obs::{Collector, NullCollector};
use twq_tree::{NodeSet, Tree};
use twq_xpath::{eval_from, XPath};

use crate::contain::RewriteCtx;
use crate::stream::{stream_select, Certificate};
use crate::{rewrite_in, Rewritten};

/// Which evaluator the planner picked for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedEvaluator {
    /// Provably empty: no evaluation at all.
    EmptyShortCircuit,
    /// Certified streamable: the one-pass evaluator.
    Streaming,
    /// The relational reference evaluator.
    Relational,
}

/// A rewritten query plus the evaluator its certificate selects.
#[derive(Debug)]
pub struct QueryPlan {
    /// The rewrite record (normal form, certificate, diagnostics).
    pub rewritten: Rewritten,
    /// The choice the certificate justifies.
    pub evaluator: PlannedEvaluator,
}

/// Rewrite `q` under `ctx` and pick an evaluator from its certificate.
pub fn plan_query(q: &XPath, ctx: &RewriteCtx) -> QueryPlan {
    let rewritten = rewrite_in(q, ctx);
    let evaluator = match &rewritten.certificate {
        Certificate::Empty => PlannedEvaluator::EmptyShortCircuit,
        Certificate::Streamable { .. } => PlannedEvaluator::Streaming,
        Certificate::NotStreamable { .. } => PlannedEvaluator::Relational,
    };
    QueryPlan {
        rewritten,
        evaluator,
    }
}

/// Evaluate `q` from the root along its plan. Equal to
/// `eval_from(tree, q, tree.root())` whichever evaluator runs.
pub fn run_query_planned(tree: &Tree, q: &XPath, ctx: &RewriteCtx) -> (NodeSet, QueryPlan) {
    let plan = plan_query(q, ctx);
    let out = match plan.evaluator {
        PlannedEvaluator::EmptyShortCircuit => NodeSet::new(),
        PlannedEvaluator::Streaming => {
            stream_select(tree, &plan.rewritten.output)
                .expect("certified streamable")
                .0
        }
        PlannedEvaluator::Relational => eval_from(tree, &plan.rewritten.output, tree.root()),
    };
    (out, plan)
}

/// Which evaluator the cost-based planner picked for a query against an
/// indexed tree (the back half of the ROADMAP item 3 planner: rewrite
/// first, then price walk against index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexedEvaluator {
    /// Provably empty after rewriting: no evaluation at all.
    EmptyShortCircuit,
    /// The bitset evaluator over the compiled index plan.
    Indexed,
    /// The walking evaluator on the rewritten query.
    Walking,
}

/// A rewritten query plus the evaluator the cost model selects for one
/// specific [`TreeIndex`].
#[derive(Debug)]
pub struct IndexedPlan {
    /// The rewrite record (normal form, certificate, diagnostics).
    pub rewritten: Rewritten,
    /// The cost model's verdict (or the forced override).
    pub evaluator: IndexedEvaluator,
    /// The compiled index plan (`None` after an empty short-circuit).
    pub plan: Option<IxPlan>,
    /// Both sides of the cost comparison (`None` after a short-circuit).
    pub estimate: Option<Estimate>,
}

/// Rewrite `q` under `ctx`, compile the normal form into the index
/// algebra, and let `model` pick walk or index for this `index`.
pub fn plan_indexed(
    q: &XPath,
    ctx: &RewriteCtx,
    index: &TreeIndex,
    model: &CostModel,
    force: Force,
) -> IndexedPlan {
    plan_indexed_with(q, ctx, index, model, force, &mut NullCollector)
}

/// [`plan_indexed`] with instrumentation: reports `index/plan_empty`,
/// `index/plan_indexed`, or `index/plan_walk` through `c`.
pub fn plan_indexed_with<C: Collector>(
    q: &XPath,
    ctx: &RewriteCtx,
    index: &TreeIndex,
    model: &CostModel,
    force: Force,
    c: &mut C,
) -> IndexedPlan {
    let rewritten = crate::rewrite_with(q, ctx, c);
    if rewritten.provably_empty {
        if C::ENABLED {
            c.counter("index/plan_empty", 1);
        }
        return IndexedPlan {
            rewritten,
            evaluator: IndexedEvaluator::EmptyShortCircuit,
            plan: None,
            estimate: None,
        };
    }
    let plan = compile_xpath(&rewritten.output);
    let estimate = model.estimate(index, &plan, &rewritten.output);
    let evaluator = match model.choose(&estimate, plan.size(), force) {
        Choice::Index => IndexedEvaluator::Indexed,
        Choice::Walk => IndexedEvaluator::Walking,
    };
    if C::ENABLED {
        c.counter(
            match evaluator {
                IndexedEvaluator::Indexed => "index/plan_indexed",
                _ => "index/plan_walk",
            },
            1,
        );
    }
    IndexedPlan {
        rewritten,
        evaluator,
        plan: Some(plan),
        estimate: Some(estimate),
    }
}

/// Evaluate `q` from the root along its cost-based plan. Equal to
/// `eval_from(tree, q, tree.root())` whichever evaluator runs (the fuzz
/// oracle and `tests/rewrite.rs` enforce this, under every [`Force`]).
///
/// The walking fallback evaluates the query *as given*, not the rewrite
/// normal form the planner priced; the `twq-e2e` benchmark driver's split
/// path mirrors that routing, so both move together. The rewrite still
/// runs first for the emptiness certificate and plan compilation.
pub fn run_query_indexed(
    tree: &Tree,
    index: &TreeIndex,
    q: &XPath,
    ctx: &RewriteCtx,
    model: &CostModel,
    force: Force,
) -> (NodeSet, IndexedPlan) {
    run_query_indexed_with(tree, index, q, ctx, model, force, &mut NullCollector)
}

/// [`run_query_indexed`] with instrumentation: alongside the planning
/// counters it records the actual-vs-estimated pair the chosen side ran at
/// (`index/act_index_ns` + `index/est_index_ns`, or the walk pair) and the
/// absolute relative error `index/cost_err_pct` — the feedback
/// [`CostModel::calibrated`] closes the loop on.
#[allow(clippy::too_many_arguments)]
pub fn run_query_indexed_with<C: Collector>(
    tree: &Tree,
    index: &TreeIndex,
    q: &XPath,
    ctx: &RewriteCtx,
    model: &CostModel,
    force: Force,
    c: &mut C,
) -> (NodeSet, IndexedPlan) {
    let plan = plan_indexed_with(q, ctx, index, model, force, c);
    let t0 = Instant::now();
    let out = match plan.evaluator {
        IndexedEvaluator::EmptyShortCircuit => NodeSet::new(),
        IndexedEvaluator::Indexed => eval_plan_from(
            tree,
            index,
            plan.plan.as_ref().expect("indexed plan present"),
            tree.root(),
        ),
        IndexedEvaluator::Walking => eval_from(tree, q, tree.root()),
    };
    if C::ENABLED {
        if let Some(est) = &plan.estimate {
            let act = t0.elapsed().as_nanos() as u64;
            let est_ns = match plan.evaluator {
                IndexedEvaluator::Indexed => est.index_ns,
                _ => est.walk_ns,
            };
            let (act_key, est_key) = match plan.evaluator {
                IndexedEvaluator::Indexed => ("index/act_index_ns", "index/est_index_ns"),
                _ => ("index/act_walk_ns", "index/est_walk_ns"),
            };
            c.counter(act_key, act);
            c.counter(est_key, est_ns as u64);
            if act > 0 {
                let err = ((act as f64 - est_ns).abs() / act as f64 * 100.0) as u64;
                c.counter("index/cost_err_pct", err);
            }
        }
    }
    (out, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_tree::{parse_tree, Vocab};
    use twq_xpath::ast::xb;

    #[test]
    fn planned_run_matches_naive() {
        let mut v = Vocab::new();
        let t = parse_tree("sigma(delta(sigma,sigma),sigma(delta))", &mut v).unwrap();
        let sigma = v.sym("sigma");
        let delta = v.sym("delta");
        let ctx = RewriteCtx::unconstrained();
        let queries = vec![
            xb::from_desc(xb::name(delta)),
            xb::union(
                xb::child(xb::name(sigma), xb::name(delta)),
                xb::desc(xb::name(sigma), xb::name(delta)),
            ),
            xb::filter(xb::from_desc(xb::wild()), xb::name(sigma)),
        ];
        for q in queries {
            let (got, plan) = run_query_planned(&t, &q, &ctx);
            let want = eval_from(&t, &q, t.root());
            assert_eq!(
                got.iter().collect::<Vec<_>>(),
                want.iter().collect::<Vec<_>>(),
                "query {} via {:?}",
                q.display(&v),
                plan.evaluator
            );
        }
    }

    #[test]
    fn indexed_run_matches_naive_under_every_force() {
        let mut v = Vocab::new();
        let t = parse_tree(
            "lib(book[y=1999](title,author,author),book[y=2001](title,author))",
            &mut v,
        )
        .unwrap();
        let idx = TreeIndex::build(&t);
        let ctx = RewriteCtx::unconstrained();
        let model = CostModel::default();
        let lib = v.sym("lib");
        let book = v.sym("book");
        let author = v.sym("author");
        let queries = vec![
            xb::from_desc(xb::name(author)),
            xb::child(xb::name(lib), xb::name(book)),
            xb::filter(xb::from_desc(xb::wild()), xb::name(author)),
        ];
        for q in &queries {
            let want = eval_from(&t, q, t.root());
            for force in [Force::Auto, Force::Index, Force::Walk] {
                let (got, plan) = run_query_indexed(&t, &idx, q, &ctx, &model, force);
                assert_eq!(
                    got.iter().collect::<Vec<_>>(),
                    want.iter().collect::<Vec<_>>(),
                    "query {} forced {force:?} via {:?}",
                    q.display(&v),
                    plan.evaluator
                );
                match force {
                    Force::Index => assert_eq!(plan.evaluator, IndexedEvaluator::Indexed),
                    Force::Walk => assert_eq!(plan.evaluator, IndexedEvaluator::Walking),
                    Force::Auto => assert!(plan.estimate.is_some()),
                }
            }
        }
    }

    #[test]
    fn indexed_plan_short_circuits_provably_empty_queries() {
        let mut v = Vocab::new();
        let t = parse_tree("sigma(delta)", &mut v).unwrap();
        let idx = TreeIndex::build(&t);
        let sigma = v.sym("sigma");
        let ghost = v.sym("ghost");
        let ctx = RewriteCtx::unconstrained().with_alphabet([sigma]);
        let (out, plan) = run_query_indexed(
            &t,
            &idx,
            &xb::name(ghost),
            &ctx,
            &CostModel::default(),
            Force::Auto,
        );
        assert!(out.is_empty());
        assert_eq!(plan.evaluator, IndexedEvaluator::EmptyShortCircuit);
        assert!(plan.plan.is_none() && plan.estimate.is_none());
    }

    #[test]
    fn empty_certificate_short_circuits_routing() {
        let mut v = Vocab::new();
        let t = parse_tree("sigma(delta)", &mut v).unwrap();
        let sigma = v.sym("sigma");
        let ghost = v.sym("ghost");
        let ctx = RewriteCtx::unconstrained().with_alphabet([sigma]);
        let plan = plan_query(&xb::name(ghost), &ctx);
        assert_eq!(plan.evaluator, PlannedEvaluator::EmptyShortCircuit);
        // Structurally-empty query: label clash needs no ctx at all, and
        // the walk over the query as given agrees with the vacuous verdict.
        let clash = twq_xpath::XPath::Filter(
            Box::new(xb::name(sigma)),
            Box::new(twq_xpath::Pred::Path(xb::name(ghost))),
        );
        let plan = plan_query(&clash, &RewriteCtx::unconstrained());
        assert!(plan.rewritten.provably_empty);
        assert_eq!(plan.evaluator, PlannedEvaluator::EmptyShortCircuit);
        let prog = twq_xpath::xpath_to_program(
            &clash,
            &[sigma, ghost],
            v.attr("id"),
            twq_xpath::SelectionTest::NonEmpty,
        );
        let delim = twq_tree::DelimTree::build(&t);
        let routed = twq_analyze::run_routed(&prog, &delim, twq_automata::Limits::default());
        assert!(!routed.accepted);
    }
}
