//! Execution-layer scaling — the two speedups the exec layer claims:
//! batch tree runs fanned across the worker pool (the E4-style
//! polynomial-sweep workload), and memoized FO evaluation against the
//! naive recursive evaluator on deep trees — plus the walking step those
//! batches are made of (`walk_step`): one program run on a prebuilt
//! `delim(t)`, and `delim(t)` built alone.
//!
//! On a single-core host the pool rows collapse to the serial inline
//! path, so the worker sweep then prices pool overhead rather than
//! demonstrating speedup — nothing here asserts a ratio. Verdict
//! equality across worker counts *is* asserted before timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twq_automata::{examples, run, run_batch, run_on_tree, Limits};
use twq_bench::Bench;
use twq_exec::Pool;
use twq_logic::fo::build::*;
use twq_logic::{eval_sentence, eval_sentence_memo, eval_sentence_par, select, select_memo};
use twq_tree::{DelimTree, Tree};

fn batch_scaling(c: &mut Criterion) {
    let mut b = Bench::new();
    let a = b.attr;
    let prog = examples::parent_child_match_program(&b.symbols, a);
    // Distinct values on every node: no parent-child match exists, so
    // every run performs its full polynomial sweep (the E4 worst case) —
    // uniform per-item cost, the best case for chunked fan-out.
    let trees: Vec<Tree> = (0..8i64)
        .map(|s| {
            let mut t = b.tree(80, &[], 30 + s as u64);
            let ids: Vec<_> = t.node_ids().collect();
            for (i, u) in ids.into_iter().enumerate() {
                let val = b.vocab.val_int(10_000 + s * 1_000 + i as i64);
                t.set_attr(u, a, val);
            }
            t
        })
        .collect();
    let mut group = c.benchmark_group("exec_scaling");
    group.sample_size(10);
    let baseline = run_batch(&prog, &trees, Limits::default(), &Pool::new(1));
    for workers in [1usize, 2, 4] {
        let pool = Pool::new(workers);
        let got = run_batch(&prog, &trees, Limits::default(), &pool);
        for (s, g) in baseline.iter().zip(&got) {
            assert_eq!(s.accepted(), g.accepted());
            assert_eq!(s.steps, g.steps);
        }
        group.bench_with_input(
            BenchmarkId::new("run_batch_workers", workers),
            &pool,
            |bch, pool| bch.iter(|| run_batch(&prog, &trees, Limits::default(), pool)),
        );
    }
    group.finish();
}

fn memo_speedup(c: &mut Criterion) {
    let mut b = Bench::new();
    let t = b.tree(48, &[1, 2], 7);
    let (x, y, z, w, v) = (var(0), var(1), var(2), var(3), var(4));
    // φ(x, y): a *closed* well-formedness clause (every edge is a
    // descendant pair) conjoined with "y is below x and has a leaf below
    // it". The clause is a doubly-universal truth, so proving it scans
    // all n² pairs with no short-circuit; the memoized evaluator pays
    // that once per select, the naive evaluator once per candidate y.
    let closed = forall(w, forall(v, implies(edge(w, v), desc(w, v))));
    let phi = and([
        closed.clone(),
        desc(x, y),
        exists(z, and([desc(y, z), leaf(z)])),
    ]);
    let u = t.root();
    let naive = select(&t, &phi, x, u, y).unwrap();
    let memo = select_memo(&t, &phi, x, u, y).unwrap();
    assert_eq!(naive, memo);

    // The inner clause is closed: memoized it is proven once, naively it
    // is re-proven under every outer leaf binding.
    let sentence = forall(x, implies(leaf(x), closed.clone()));
    let base = eval_sentence(&t, &sentence).unwrap();
    assert_eq!(base, eval_sentence_memo(&t, &sentence).unwrap());
    let pool = Pool::new(4);
    assert_eq!(base, eval_sentence_par(&t, &sentence, &pool).unwrap());

    let mut group = c.benchmark_group("exec_scaling");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("select", "naive"), |bch| {
        bch.iter(|| select(&t, &phi, x, u, y).unwrap())
    });
    group.bench_function(BenchmarkId::new("select", "memo"), |bch| {
        bch.iter(|| select_memo(&t, &phi, x, u, y).unwrap())
    });
    group.bench_function(BenchmarkId::new("sentence", "naive"), |bch| {
        bch.iter(|| eval_sentence(&t, &sentence).unwrap())
    });
    group.bench_function(BenchmarkId::new("sentence", "memo"), |bch| {
        bch.iter(|| eval_sentence_memo(&t, &sentence).unwrap())
    });
    group.bench_function(BenchmarkId::new("sentence", "par4"), |bch| {
        bch.iter(|| eval_sentence_par(&t, &sentence, &pool).unwrap())
    });
    group.finish();
}

/// The engine's own cost per run, with `delim(t)` built once outside the
/// loop: `even_leaves` is all `true` guards and moves, `distinct_values`
/// one look-ahead of a subcomputation per node, each an update and a
/// union, then a three-variable quantified guard.
fn walk_step(c: &mut Criterion) {
    let mut b = Bench::new();
    let a = b.attr;
    let tree = b.tree(2048, &[1, 2], 11);
    let delim = DelimTree::build(&tree);
    let programs = [
        ("even_leaves", examples::even_leaves_program(&b.symbols)),
        (
            "distinct_values",
            examples::distinct_values_at_least(&b.symbols, a, 3),
        ),
    ];
    let mut group = c.benchmark_group("walk_step");
    group.sample_size(10);
    for (name, prog) in &programs {
        let want = run_on_tree(prog, &tree, Limits::default());
        let got = run(prog, &delim, Limits::default());
        assert_eq!(got.accepted(), want.accepted(), "{name}");
        assert_eq!(got.steps, want.steps, "{name}");
        group.bench_with_input(BenchmarkId::new(*name, 2048), &delim, |bch, d| {
            bch.iter(|| run(prog, d, Limits::default()))
        });
    }
    group.bench_with_input(BenchmarkId::new("delim_build", 2048), &tree, |bch, t| {
        bch.iter(|| DelimTree::build(t))
    });
    group.finish();
}

criterion_group!(benches, batch_scaling, memo_speedup, walk_step);
criterion_main!(benches);
