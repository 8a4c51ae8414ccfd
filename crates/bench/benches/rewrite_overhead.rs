//! Rewrite overhead — what query-level static analysis costs and what it
//! buys. Three questions, one group:
//!
//! * `analyze/*` — the price of a full `rewrite()` pass (normalize +
//!   emptiness + certify) per query shape, the cost a planner pays
//!   before ever touching a tree. Diagnostics are not formatted here:
//!   `Rewritten::diagnostics` derives them only when a caller asks;
//! * `eval/*` — batch selection over a query mix, direct vs. rewrite then
//!   walk the normal form (the rewrite runs again on every call, so this
//!   is the worst-case per-evaluation overhead);
//! * `stream/*` — a streamable query on a deep chain, the walking
//!   evaluator vs. the certified one-pass evaluator whose state is
//!   bounded by `max_depth_state`.
//!
//! On the linear walker a walk over this 200-node tree costs less than
//! the rewrite pass, so `eval/rewritten` trails `eval/direct` by about the
//! analysis cost: the gate pins each side, not their order. Likewise the
//! walk beats the one-pass evaluator on the chain; streaming's gain is its
//! `O(depth)` state, not its speed. Every entry is gated by `bench-diff`
//! against `bench/baseline.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twq_bench::Bench;
use twq_rw::{rewrite, stream_select, Certificate};
use twq_tree::generate::chain_tree;
use twq_tree::{NodeSet, Tree};
use twq_xpath::{eval_from, random_xpath_shaped, XPath, XPathGenConfig, XPathShape};

fn corpus(b: &mut Bench, shape: XPathShape, n: usize) -> Vec<XPath> {
    let one = b.vocab.val_int(1);
    let cfg = XPathGenConfig {
        symbols: b.symbols.clone(),
        attrs: vec![b.attr],
        values: vec![one],
        max_depth: 3,
    };
    (0..n as u64)
        .map(|s| random_xpath_shaped(&cfg, s, shape))
        .collect()
}

/// Rewrite `q`, short-circuit a provably-empty normal form, and walk the
/// rest from the root.
fn rewrite_then_walk(t: &Tree, q: &XPath) -> NodeSet {
    let rw = rewrite(q);
    if rw.provably_empty {
        return NodeSet::new();
    }
    eval_from(t, &rw.output, t.root())
}

fn bench(c: &mut Criterion) {
    let mut b = Bench::new();
    let mut group = c.benchmark_group("rewrite_overhead");
    group.sample_size(10);

    // Analysis latency per query shape: 64 queries per pass.
    for (label, shape) in [
        ("uniform", XPathShape::Uniform),
        ("union_heavy", XPathShape::UnionHeavy),
        ("filter_heavy", XPathShape::FilterHeavy),
    ] {
        let queries = corpus(&mut b, shape, 64);
        group.bench_with_input(BenchmarkId::new("analyze", label), &queries, |bch, qs| {
            bch.iter(|| qs.iter().map(|q| rewrite(q).fired.len()).sum::<usize>())
        });
    }

    // Direct vs. rewritten batch selection on a mixed corpus. Sanity:
    // both sides must agree before we price them.
    let mix: Vec<XPath> = corpus(&mut b, XPathShape::Uniform, 16)
        .into_iter()
        .chain(corpus(&mut b, XPathShape::UnionHeavy, 16))
        .chain(corpus(&mut b, XPathShape::FilterHeavy, 16))
        .collect();
    let t = b.tree(200, &[1, 2], 5);
    for q in &mix {
        assert_eq!(
            eval_from(&t, q, t.root()),
            rewrite_then_walk(&t, q),
            "normal form diverged on `{}`",
            q.display(&b.vocab)
        );
    }
    group.bench_with_input(BenchmarkId::new("eval", "direct"), &mix, |bch, qs| {
        bch.iter(|| {
            qs.iter()
                .map(|q| eval_from(&t, q, t.root()).len())
                .sum::<usize>()
        })
    });
    group.bench_with_input(BenchmarkId::new("eval", "rewritten"), &mix, |bch, qs| {
        bch.iter(|| {
            qs.iter()
                .map(|q| rewrite_then_walk(&t, q).len())
                .sum::<usize>()
        })
    });

    // Certified streaming on a deep chain: one streamable query, both
    // evaluators. The certificate is asserted, not assumed.
    let sigma = b.symbols[0];
    let chain = chain_tree(sigma, 512);
    let streamable = corpus(&mut b, XPathShape::Uniform, 64)
        .into_iter()
        .find(|q| matches!(rewrite(q).certificate, Certificate::Streamable { .. }))
        .expect("uniform corpus contains a streamable query");
    let direct = eval_from(&chain, &streamable, chain.root());
    let (streamed, _) =
        stream_select(&chain, &rewrite(&streamable).output).expect("certified query must stream");
    assert_eq!(direct, streamed);
    group.bench_with_input(
        BenchmarkId::new("stream", "relational"),
        &streamable,
        |bch, q| bch.iter(|| eval_from(&chain, q, chain.root()).len()),
    );
    group.bench_with_input(
        BenchmarkId::new("stream", "one_pass"),
        &streamable,
        |bch, q| {
            let nf = rewrite(q).output;
            bch.iter(|| stream_select(&chain, &nf).map(|(s, _)| s.len()))
        },
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
