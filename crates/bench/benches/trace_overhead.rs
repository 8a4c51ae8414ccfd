//! Trace overhead — the same long compiled-pebble walk run three ways:
//! through the public uninstrumented entry point (`run`, which
//! monomorphizes over `NullCollector`), through `run_in` with an
//! explicit `NullCollector` (the disabled-trace path, which must stay
//! indistinguishable from `run` even with the trace hooks compiled in),
//! and through a `TraceCollector` recording the full causal span tree.
//! The first two enforce the zero-cost claim for the six hooks the trace
//! layer added (`quant_*`, `axis_*`, `selected`, `trip`); the last
//! prices full trace capture.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twq_automata::{run, run_in, Limits};
use twq_bench::Bench;
use twq_guard::NullGuard;
use twq_obs::{NullCollector, TraceCollector};
use twq_sim::compile_logspace;
use twq_xtm::machines;

/// Median wall-clock of `samples` runs of `f`, in nanoseconds.
fn median_ns(samples: usize, mut f: impl FnMut()) -> u128 {
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn bench(c: &mut Criterion) {
    let mut b = Bench::new();
    let machine = machines::leaf_count_even(&b.symbols);
    let symbols = b.symbols.clone();
    let id = b.id;
    let prog = compile_logspace(&machine, &symbols, id, &mut b.vocab).unwrap();
    let (p, lw) = (&prog.program, Limits::long_walk());
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    for n in [6usize, 8] {
        let t = b.tree(n, &[1], 5);
        let dt = b.delim_with_ids(&t);
        // Sanity: tracing must not change the verdict, and the recorded
        // root must carry the same halt the report does.
        let base = run(p, &dt, lw);
        let mut tc = TraceCollector::new();
        let traced = run_in(p, &dt, lw, &mut tc, &mut NullGuard).unwrap();
        assert_eq!(base.accepted(), traced.accepted());
        let trace = tc.finish("bench");
        assert_eq!(
            trace.verdict().and_then(|v| v.accepted()),
            Some(base.accepted())
        );
        group.bench_with_input(BenchmarkId::new("uninstrumented", n), &dt, |bch, dt| {
            bch.iter(|| run(p, dt, lw))
        });
        group.bench_with_input(BenchmarkId::new("null_collector", n), &dt, |bch, dt| {
            bch.iter(|| run_in(p, dt, lw, &mut NullCollector, &mut NullGuard))
        });
        group.bench_with_input(BenchmarkId::new("trace_collector", n), &dt, |bch, dt| {
            bch.iter(|| {
                let mut tc = TraceCollector::new();
                let _ = run_in(p, dt, lw, &mut tc, &mut NullGuard);
                tc.finish("bench").size()
            })
        });
    }
    group.finish();

    // The zero-cost assertion for the disabled-trace path: with
    // `NullCollector` the instrumented entry point must cost the same as
    // the uninstrumented one. The 2x bound is deliberately generous — it
    // tolerates shared-CI noise while still catching the failure mode
    // that matters (trace argument preparation leaking onto the
    // `C::ENABLED = false` path, which shows up as an integer multiple).
    let t = b.tree(8, &[1], 5);
    let dt = b.delim_with_ids(&t);
    let uninstrumented = median_ns(7, || {
        run(p, &dt, lw);
    })
    .max(1);
    let null = median_ns(7, || {
        let _ = run_in(p, &dt, lw, &mut NullCollector, &mut NullGuard);
    });
    println!(
        "disabled-trace overhead: {null} ns vs {uninstrumented} ns uninstrumented \
         ({:.2}x)",
        null as f64 / uninstrumented as f64
    );
    assert!(
        null <= uninstrumented.saturating_mul(2),
        "NullCollector run ({null} ns) costs more than 2x the uninstrumented \
         run ({uninstrumented} ns): the zero-cost trace seam has regressed"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
