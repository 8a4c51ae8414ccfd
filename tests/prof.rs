//! Property-based tests for the `twq-prof` observability layer:
//! histogram algebra, quantile accuracy, pool-telemetry determinism
//! across worker counts, registry snapshot round-trips, and flame/guard
//! profile determinism.

use proptest::prelude::*;

use twq::automata::{examples, run_batch_profiled, run_in, Limits};
use twq::exec::Pool;
use twq::guard::{NullGuard, ResourceGuard};
use twq::obs::{
    Collector, FlameProfiler, Histogram, MetricsCollector, NullCollector, Registry, Snapshot, Tail,
};
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::{parse_tree, DelimTree, Tree, Vocab};

/// A deterministic value stream (splitmix64) — the vendored proptest
/// shim has no collection strategies, so sample vectors derive from a
/// seed. Mixing wide and narrow ranges exercises many log2 buckets.
fn values(seed: u64, len: usize) -> Vec<u64> {
    let mut s = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|i| match i % 3 {
            0 => next() % 50,
            1 => next() % 100_000,
            _ => next() % (u64::MAX / 2),
        })
        .collect()
}

fn hist_of(vals: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in vals {
        h.record(v);
    }
    h
}

/// The log2 bucket a value falls in — the resolution [`Histogram`]
/// quantiles are allowed to be off by.
fn bucket_of(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// A small batch of example-3.2 trees for the pool-determinism tests.
fn batch(seed: u64, n: usize) -> (Vocab, Vec<Tree>) {
    let mut vocab = Vocab::new();
    let cfg = TreeGenConfig::example32(&mut vocab, 24, &[1, 2]);
    let trees = (0..n).map(|i| random_tree(&cfg, seed + i as u64)).collect();
    (vocab, trees)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Histogram merge is commutative: a+b and b+a agree exactly.
    #[test]
    fn hist_merge_commutes(sa in 0u64..1_000, sb in 0u64..1_000, la in 0usize..60, lb in 0usize..60) {
        let (a, b) = (values(sa, la), values(sb, lb));
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), (a.len() + b.len()) as u64);
    }

    /// Histogram merge is associative: (a+b)+c = a+(b+c), and both equal
    /// the histogram of the concatenated samples.
    #[test]
    fn hist_merge_is_associative(sa in 0u64..1_000, sb in 0u64..1_000, sc in 0u64..1_000, len in 0usize..50) {
        let (a, b, c) = (values(sa, len), values(sb, len / 2 + 1), values(sc, len / 3 + 2));
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut right = hb.clone();
        right.merge(&hc);
        let mut right_total = ha.clone();
        right_total.merge(&right);
        prop_assert_eq!(&left, &right_total);
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &hist_of(&all));
    }

    /// Quantile estimates land within one log2 bucket of the exact
    /// order statistic, and q=0 / q=1 are exactly min / max.
    #[test]
    fn quantiles_are_bucket_accurate(seed in 0u64..1_000, len in 1usize..80, qm in 0u64..=1_000) {
        let vals = values(seed, len);
        let q = qm as f64 / 1_000.0;
        let h = hist_of(&vals);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.quantile(0.0), Some(sorted[0]));
        prop_assert_eq!(h.quantile(1.0), Some(*sorted.last().unwrap()));
        let est = h.quantile(q).unwrap();
        let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
        let exact = sorted[rank - 1];
        prop_assert!(
            bucket_of(est).abs_diff(bucket_of(exact)) <= 1,
            "q={q} est={est} exact={exact}"
        );
    }

    /// Registry snapshots survive the JSONL round trip exactly.
    #[test]
    fn registry_snapshot_round_trips_as_jsonl(seed in 0u64..1_000, n in 0usize..40) {
        let vals = values(seed, n);
        let mut reg = Registry::new();
        for (i, &v) in vals.iter().enumerate() {
            // Realistic magnitudes: the JSON layer stores integers as
            // i64, so astronomically large sums (> i64::MAX) would degrade
            // to floats and fail the exact round trip.
            if i % 4 == 0 {
                reg.counter_add(&format!("pool/c{}", v % 5), v % 1_000_000);
            } else {
                reg.hist_record("latency/E1", v % 100_000_000_000);
            }
        }
        let snap = reg.snapshot();
        let line = snap.to_jsonl();
        prop_assert!(!line.contains('\n'), "JSONL must be one line: {}", line);
        let parsed = twq::obs::Json::parse(&line).expect("snapshot renders valid JSON");
        let back = Snapshot::from_json(&parsed).expect("snapshot parses back");
        prop_assert_eq!(&back, &snap);
    }

    /// Merged pool telemetry is worker-count independent in its totals:
    /// a 4-worker batch accounts for exactly the same tasks and run
    /// results as the serial batch, and the merged metrics agree exactly.
    #[test]
    fn pool_telemetry_totals_match_across_worker_counts(seed in 0u64..200) {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let (_, trees) = batch(seed, 7);
        let (r1, m1, p1) = run_batch_profiled(&ex.program, &trees, Limits::default(), &Pool::new(1));
        let (r4, m4, p4) = run_batch_profiled(&ex.program, &trees, Limits::default(), &Pool::new(4));
        prop_assert_eq!(r1.len(), r4.len());
        for (a, b) in r1.iter().zip(&r4) {
            prop_assert_eq!(a.accepted(), b.accepted());
            prop_assert_eq!(a.steps, b.steps);
        }
        prop_assert_eq!(m1.steps, m4.steps);
        prop_assert_eq!(m1.halt, m4.halt);
        let (t1, t4) = (p1.stats.totals(), p4.stats.totals());
        prop_assert_eq!(t1.tasks, trees.len() as u64);
        prop_assert_eq!(t4.tasks, trees.len() as u64);
        prop_assert_eq!(p1.latencies_ns.len(), trees.len());
        prop_assert_eq!(p4.latencies_ns.len(), trees.len());
        // Serial execution neither steals nor spins.
        prop_assert_eq!(t1.steals, 0);
        prop_assert_eq!(t1.idle_spins, 0);
    }

    /// A governed batch — a fresh guard per item — is deterministic and
    /// worker-count independent: each item's verdict and the fuel its
    /// guard spent are the same for any pool.
    #[test]
    fn guard_stats_are_worker_count_independent(seed in 0u64..200, budget in 1u64..400) {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let (_, trees) = batch(seed, 6);
        let governed = |workers: usize| {
            Pool::new(workers).scoped(trees.len(), |i| {
                let mut g = ResourceGuard::unlimited().with_budget(budget);
                let dt = DelimTree::build(&trees[i]);
                let verdict = run_in(&ex.program, &dt, Limits::default(), &mut NullCollector, &mut g);
                (verdict, g.fuel_spent())
            })
        };
        prop_assert_eq!(governed(1), governed(4));
    }

    /// The flame profiler is deterministic: profiling the same run twice
    /// yields byte-identical collapsed stacks, and its total weight
    /// covers at least one sample per interpreter step.
    #[test]
    fn flame_profile_is_deterministic(seed in 0u64..200) {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let cfg = TreeGenConfig::example32(&mut vocab, 30, &[1, 2]);
        let t = random_tree(&cfg, seed);
        let dt = twq::tree::DelimTree::build(&t);
        let collapse = || {
            let mut c = (MetricsCollector::new(), FlameProfiler::new());
            run_in(&ex.program, &dt, Limits::default(), &mut c, &mut NullGuard).unwrap();
            let (mc, flame) = c;
            (flame.collapsed(), flame.total_weight(), mc.metrics.steps)
        };
        let (c1, w1, steps) = collapse();
        let (c2, w2, _) = collapse();
        prop_assert_eq!(&c1, &c2);
        prop_assert_eq!(w1, w2);
        prop_assert!(w1 >= steps, "every step is sampled: {} < {}", w1, steps);
        prop_assert!(!c1.is_empty());
    }
}

/// Non-proptest sanity check: a paired profiler and tail see the same
/// hook calls, so the post-mortem tail is consistent with the profile.
#[test]
fn tee_profile_and_ring_agree_on_event_count() {
    let mut c = (FlameProfiler::new(), Tail::new(4));
    for i in 0..10u64 {
        c.step(i, 0, 0);
    }
    let (flame, tail) = c;
    assert_eq!(flame.total_weight(), 10);
    assert_eq!(tail.len(), 4);
    assert_eq!(tail.dropped(), 6);
}

/// The flame profile of one real run, pinned line for line: Example 3.2
/// on its accepted tree. A drift in how hooks map to frames (a chain
/// named by the wrong state, an `atp` frame left open, an FO leaf on the
/// wrong stack) changes these lines.
#[test]
fn example_32_flame_profile_is_pinned() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let t = parse_tree(
        "sigma[a=0](delta[a=0](sigma[a=1],sigma[a=1]),sigma[a=2])",
        &mut vocab,
    )
    .unwrap();
    let mut flame = FlameProfiler::new();
    let r = run_in(
        &ex.program,
        &DelimTree::build(&t),
        Limits::default(),
        &mut flame,
        &mut NullGuard,
    )
    .unwrap();
    assert!(r.accepted());
    assert_eq!(
        flame.collapsed(),
        "state0 2
state0;atp;state2 2
state0;atp;state2;atp;state4 2
state0;atp;state2;atp;state4;fo_guard 2
state0;atp;state2;atp;state4;fo_update 2
state0;atp;state2;fo_guard 2
state0;atp;state2;fo_select 1
state0;atp;state2;fo_atom 3
state0;fo_guard 2
state0;fo_select 1
state0;fo_atom 2
"
    );
    assert_eq!(flame.total_weight(), 21);
}
