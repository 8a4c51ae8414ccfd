//! Index speedup — what the inverted indexes buy and what they cost.
//! Four questions, one group, all over a 64k-node tree:
//!
//! * `selective_label/*` — `//rare` (one symbol in 64): the walking
//!   evaluator's one set-at-a-time pass over the document vs. the index
//!   plan's range intersection, planner included on the index side;
//! * `selective_value/*` — `//*[@a=v]` (one value in thousands): same
//!   comparison for the value postings;
//! * `unselective/*` — a cross-attribute value join over high-cardinality
//!   columns, where the cost model correctly refuses the index and the
//!   planned run must stay within a few percent of the direct walk;
//! * `build/*` — one full index build, the cost the selective queries
//!   amortize (several hundred of them, against a linear walk).
//!
//! The selective entries are the ≥10× speedup claim of DESIGN §16 and the
//! README table; all entries are gated by `bench-diff` against
//! `bench/baseline.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twq_index::{CostModel, Force, TreeIndex};
use twq_rw::{plan_indexed, run_query_indexed, IndexedEvaluator, RewriteCtx};
use twq_tree::generate::{random_tree, TreeGenConfig};
use twq_tree::{Tree, Vocab};
use twq_xpath::ast::xb;
use twq_xpath::{eval_from, XPath};

const NODES: usize = 65_536;

/// 64 symbols, two attribute columns drawing from 4096-value pools: big
/// enough that one label or one value is genuinely selective, and that a
/// cross-column join has far too many groups for the index to win.
fn workload(vocab: &mut Vocab) -> (Tree, TreeGenConfig) {
    let symbols = (0..64).map(|i| vocab.sym(&format!("s{i}"))).collect();
    let a = vocab.attr("a");
    let b = vocab.attr("b");
    let pool_a = (0..4096).map(|i| vocab.val_int(i)).collect();
    let pool_b = (0..4096).map(|i| vocab.val_int(4096 + i)).collect();
    let cfg = TreeGenConfig {
        nodes: NODES,
        max_children: 4,
        symbols,
        attributes: vec![(a, pool_a), (b, pool_b)],
        collision_pool: None,
    };
    (random_tree(&cfg, 42), cfg)
}

fn bench(c: &mut Criterion) {
    let mut vocab = Vocab::new();
    let (tree, cfg) = workload(&mut vocab);
    let idx = TreeIndex::build(&tree);
    let ctx = RewriteCtx::unconstrained();
    let model = CostModel::default();

    let rare = cfg.symbols[17];
    let (attr_a, attr_b) = (cfg.attributes[0].0, cfg.attributes[1].0);
    let rare_val = cfg.attributes[0].1[123];
    let q_label = xb::from_desc(xb::name(rare));
    let q_value = xb::filter_attr_const(xb::from_desc(xb::wild()), attr_a, rare_val);
    let q_join = xb::filter_attr_attr(xb::from_desc(xb::wild()), attr_a, attr_b);

    // Sanity before pricing: the twins agree, the planner picks the index
    // for the selective queries and refuses it for the join.
    for q in [&q_label, &q_value, &q_join] {
        let (got, _) = run_query_indexed(&tree, &idx, q, &ctx, &model, Force::Index);
        assert_eq!(
            got,
            eval_from(&tree, q, tree.root()),
            "indexed twin diverged"
        );
    }
    for q in [&q_label, &q_value] {
        let plan = plan_indexed(q, &ctx, &idx, &model, Force::Auto);
        assert_eq!(
            plan.evaluator,
            IndexedEvaluator::Indexed,
            "selective query must be planned onto the index"
        );
    }
    let join_plan = plan_indexed(&q_join, &ctx, &idx, &model, Force::Auto);
    assert_eq!(
        join_plan.evaluator,
        IndexedEvaluator::Walking,
        "high-cardinality join must fall back to walking"
    );

    let mut group = c.benchmark_group("index_speedup");
    group.sample_size(10);

    let walk_vs_index = |group: &mut criterion::BenchmarkGroup<'_>, label: &str, q: &XPath| {
        group.bench_with_input(BenchmarkId::new(label, "walk"), q, |bch, q| {
            bch.iter(|| eval_from(&tree, q, tree.root()).len())
        });
        group.bench_with_input(BenchmarkId::new(label, "index"), q, |bch, q| {
            bch.iter(|| {
                run_query_indexed(&tree, &idx, q, &ctx, &model, Force::Index)
                    .0
                    .len()
            })
        });
    };
    walk_vs_index(&mut group, "selective_label", &q_label);
    walk_vs_index(&mut group, "selective_value", &q_value);

    // The planner's refusal must be nearly free: direct walk vs. the full
    // planned run (rewrite + compile + estimate + walk).
    group.bench_with_input(
        BenchmarkId::new("unselective", "direct"),
        &q_join,
        |bch, q| bch.iter(|| eval_from(&tree, q, tree.root()).len()),
    );
    group.bench_with_input(
        BenchmarkId::new("unselective", "planned"),
        &q_join,
        |bch, q| {
            bch.iter(|| {
                run_query_indexed(&tree, &idx, q, &ctx, &model, Force::Auto)
                    .0
                    .len()
            })
        },
    );

    // Build amortization: one full index build over the 64k-node tree.
    group.bench_with_input(BenchmarkId::new("build", "64k"), &tree, |bch, t| {
        bch.iter(|| TreeIndex::build(t).stats().postings_bytes)
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
