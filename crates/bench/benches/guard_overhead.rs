//! Guard overhead — the same long compiled-pebble walk run three ways:
//! through the public ungoverned entry point (`run`, which monomorphizes
//! over `NullGuard`), through `run_in` with an explicit `NullGuard`
//! (must be indistinguishable from `run`), and through `run_in` with
//! a metering `ResourceGuard`. The first two quantify the zero-cost claim;
//! the third prices full fuel/depth/gauge accounting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twq_automata::{run, run_in, Limits};
use twq_bench::Bench;
use twq_guard::{NullGuard, ResourceGuard};
use twq_obs::NullCollector;
use twq_sim::compile_logspace;
use twq_xtm::machines;

fn bench(c: &mut Criterion) {
    let mut b = Bench::new();
    let machine = machines::leaf_count_even(&b.symbols);
    let symbols = b.symbols.clone();
    let id = b.id;
    let prog = compile_logspace(&machine, &symbols, id, &mut b.vocab).unwrap();
    let (p, lw) = (&prog.program, Limits::long_walk());
    let mut group = c.benchmark_group("guard_overhead");
    group.sample_size(10);
    for n in [6usize, 8] {
        let t = b.tree(n, &[1], 5);
        let dt = b.delim_with_ids(&t);
        // Sanity: governance must not change the verdict, and the metered
        // fuel must equal the step count.
        let base = run(p, &dt, lw);
        let mut meter = ResourceGuard::unlimited();
        let governed = run_in(p, &dt, lw, &mut NullCollector, &mut meter)
            .expect("unlimited guard never trips");
        assert_eq!(base.accepted(), governed.accepted());
        assert_eq!(base.steps, meter.fuel_spent());
        group.bench_with_input(BenchmarkId::new("ungoverned", n), &dt, |bch, dt| {
            bch.iter(|| run(p, dt, lw))
        });
        group.bench_with_input(BenchmarkId::new("null_guard", n), &dt, |bch, dt| {
            bch.iter(|| run_in(p, dt, lw, &mut NullCollector, &mut NullGuard))
        });
        group.bench_with_input(BenchmarkId::new("resource_guard", n), &dt, |bch, dt| {
            bch.iter(|| {
                let mut g = ResourceGuard::unlimited();
                let r = run_in(p, dt, lw, &mut NullCollector, &mut g);
                (r.is_ok(), g.fuel_spent())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
