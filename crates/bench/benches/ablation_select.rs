//! Ablation — `ExistsFormula::select` vs. the naive nested-quantifier
//! evaluator, on compiled XPath selectors (the design choice called out in
//! DESIGN.md §4): naive evaluation of a union with k existential variables
//! costs n^k, while the DNF split reduces each tree-shaped branch by
//! semi-joins, linear in the tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twq_bench::Bench;
use twq_logic::eval::select as naive_select;
use twq_xpath::{compile, parse_xpath};

fn bench(c: &mut Criterion) {
    let mut b = Bench::new();
    // A union query: modest per-branch variable counts, but the naive
    // evaluator must still enumerate the union of both branches' variables
    // (n^8-ish) while each DNF branch is one semi-join pass.
    let phi = compile(&parse_xpath("sigma/delta | delta/sigma", &mut b.vocab).unwrap());
    let formula = phi.to_formula();
    let mut group = c.benchmark_group("ablation_select");
    group.sample_size(10);
    for n in [4usize, 6, 8] {
        let t = b.tree(n, &[1], 21);
        // Sanity: both evaluators agree.
        let fast = phi.select(&t, t.root());
        let naive = naive_select(&t, &formula, phi.x(), t.root(), phi.y()).unwrap();
        assert_eq!(fast, naive);
        group.bench_with_input(BenchmarkId::new("semijoin", n), &t, |bch, t| {
            bch.iter(|| phi.select(t, t.root()))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &t, |bch, t| {
            bch.iter(|| naive_select(t, &formula, phi.x(), t.root(), phi.y()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
