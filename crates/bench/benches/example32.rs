//! E1 — Example 3.2 at scale: the paper's worked `tw^{r,l}` automaton on
//! growing random trees, direct engine vs. memoized graph evaluator. The
//! 2,048-node row gates the `atp` look-ahead: one data value, so every
//! δ-node selects its leaf descendants, and the run took ~8.5 s when each
//! selection tried every node as `y`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twq_automata::{examples, run, run_graph, Limits};
use twq_bench::Bench;

fn bench(c: &mut Criterion) {
    let mut b = Bench::new();
    let ex = examples::example_32(&mut b.vocab);
    let mut group = c.benchmark_group("e1_example32");
    group.sample_size(10);
    for n in [20usize, 60, 180] {
        let t = b.tree(n, &[1, 2], 7);
        let dt = twq_tree::DelimTree::build(&t);
        group.bench_with_input(BenchmarkId::new("direct", n), &dt, |bch, dt| {
            bch.iter(|| run(&ex.program, dt, Limits::default()))
        });
        group.bench_with_input(BenchmarkId::new("graph", n), &dt, |bch, dt| {
            bch.iter(|| run_graph(&ex.program, dt, Limits::default()))
        });
    }
    let t = b.tree(2048, &[1], 7);
    let dt = twq_tree::DelimTree::build(&t);
    assert!(run(&ex.program, &dt, Limits::default()).accepted());
    group.bench_with_input(BenchmarkId::new("direct", 2048), &dt, |bch, dt| {
        bch.iter(|| run(&ex.program, dt, Limits::default()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
