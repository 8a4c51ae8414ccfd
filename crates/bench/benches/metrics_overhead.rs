//! Observability overhead — the same long compiled-pebble walk run four
//! ways: through the public uninstrumented entry point (`run`, which
//! monomorphizes over `NullCollector`), through `run_in` with an
//! explicit `NullCollector` (must be indistinguishable from `run`),
//! through `run_in` with a `MetricsCollector`, and through a
//! `MetricsCollector` with a `twq-prof` `Registry` attached.
//! The first two quantify the zero-cost claim — enforced here with a
//! generous runtime assertion, not just eyeballed — and the last two
//! price full metrics collection with and without registry export.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twq_automata::{run, run_in, Limits};
use twq_bench::Bench;
use twq_guard::NullGuard;
use twq_obs::{MetricsCollector, NullCollector, Registry};
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
    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(10);
    for n in [6usize, 8] {
        let t = b.tree(n, &[1], 5);
        let dt = b.delim_with_ids(&t);
        // Sanity: instrumentation must not change the verdict or the count.
        let base = run(p, &dt, lw);
        let mut mc = MetricsCollector::new();
        let measured = run_in(p, &dt, lw, &mut mc, &mut NullGuard).unwrap();
        assert_eq!(base.accepted(), measured.accepted());
        assert_eq!(base.steps, mc.metrics.steps);
        group.bench_with_input(BenchmarkId::new("uninstrumented", n), &dt, |bch, dt| {
            bch.iter(|| run(p, dt, lw))
        });
        group.bench_with_input(BenchmarkId::new("null_collector", n), &dt, |bch, dt| {
            bch.iter(|| run_in(p, dt, lw, &mut NullCollector, &mut NullGuard))
        });
        group.bench_with_input(BenchmarkId::new("metrics_collector", n), &dt, |bch, dt| {
            bch.iter(|| {
                let mut mc = MetricsCollector::new();
                let _ = run_in(p, dt, lw, &mut mc, &mut NullGuard);
                mc.metrics.steps
            })
        });
        group.bench_with_input(BenchmarkId::new("with_registry", n), &dt, |bch, dt| {
            let mut reg = Registry::new();
            bch.iter(|| {
                let mut mc = MetricsCollector::with_registry(&mut reg);
                let _ = run_in(p, dt, lw, &mut mc, &mut NullGuard);
                mc.into_metrics().steps
            })
        });
    }
    group.finish();

    // The zero-cost assertion: with `NullCollector` the instrumented entry
    // point must cost the same as the uninstrumented one. The 2x bound is
    // deliberately generous — it tolerates shared-CI noise while still
    // catching the failure mode that matters (a registry check
    // accidentally leaking onto the `C::ENABLED = false` path, which
    // shows up as an integer multiple, not a few percent).
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
        "null-collector overhead: {null} ns vs {uninstrumented} ns uninstrumented \
         ({:.2}x)",
        null as f64 / uninstrumented as f64
    );
    assert!(
        null <= uninstrumented.saturating_mul(2),
        "NullCollector run ({null} ns) costs more than 2x the uninstrumented \
         run ({uninstrumented} ns): the zero-cost seam has regressed"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
