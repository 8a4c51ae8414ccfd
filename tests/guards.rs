//! Integration tests for `twq-guard` across the evaluators: exact fuel
//! boundaries, depth limits, memory gauges, and chaos runs under
//! deterministic fault injection.
//!
//! The boundary contracts under test (see `twq_guard::res`):
//!
//! * a budget of `n` admits exactly `n` fuel charges, the `n+1`-th trips;
//! * a depth limit of `d` admits nesting depth `d`, entering `d+1` trips;
//! * a memory gauge admits `observed == limit`, `observed > limit` trips.
//!
//! Each test first measures a run with an unlimited (but metering) guard,
//! then replays it at the measured high-water mark (must pass) and one
//! below (must trip with the matching `TripReason`).

use std::time::{Duration, Instant};

use proptest::prelude::*;

use twq::automata::{examples, run, run_in, Limits};
use twq::guard::{DepthKind, FaultPlan, GaugeKind, ResourceGuard, TripReason, TwqError};
use twq::logic::eval_sentence_in;
use twq::obs::NullCollector;
use twq::protocol::{at_most_k_values_program, run_protocol_in, Markers};
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::{DelimTree, Value, Vocab};
use twq::xpath::{eval_from, eval_from_in, parse_xpath};
use twq::xtm::machine::XtmLimits;
use twq::xtm::{machines, run_alternating_guarded, run_xtm_in};

/// The trip behind a guarded failure, with the invariant that guarded
/// evaluators never return any other error on these healthy workloads.
fn reason(e: &TwqError) -> &TripReason {
    &e.guard()
        .expect("healthy workload: only guard trips expected")
        .reason
}

#[test]
fn engine_budget_boundary_is_exact() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let cfg = TreeGenConfig::example32(&mut vocab, 40, &[1, 2]);
    let dt = DelimTree::build(&random_tree(&cfg, 7));
    let governed =
        |g: &mut ResourceGuard| run_in(&ex.program, &dt, Limits::default(), &mut NullCollector, g);

    let mut meter = ResourceGuard::unlimited();
    let baseline = governed(&mut meter).expect("unlimited guard never trips");
    let fuel = meter.fuel_spent();
    assert!(fuel > 0, "the run must charge fuel");
    assert_eq!(baseline.steps, fuel, "one fuel unit per engine step");

    // Exactly enough fuel: passes.
    let mut exact = ResourceGuard::unlimited().with_budget(fuel);
    let replay = governed(&mut exact).expect("exact budget admits the run");
    assert_eq!(replay.accepted(), baseline.accepted());

    // One unit short: trips with the budget reason and a partial report.
    let mut short = ResourceGuard::unlimited().with_budget(fuel - 1);
    let err = governed(&mut short).expect_err("budget fuel-1 must trip");
    assert!(matches!(reason(&err), TripReason::Budget { limit } if *limit == fuel - 1));
    assert!(err.is_limit());
    // The partial covers all admitted fuel; the tripping step may already
    // be counted, so it can read one past the budget but never more.
    let partial = &err.guard().unwrap().partial;
    assert!(partial.fuel_spent >= fuel - 1 && partial.fuel_spent <= fuel);
}

#[test]
fn engine_atp_depth_boundary_is_exact() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let cfg = TreeGenConfig::example32(&mut vocab, 40, &[1, 2]);
    let dt = DelimTree::build(&random_tree(&cfg, 7));
    let governed =
        |g: &mut ResourceGuard| run_in(&ex.program, &dt, Limits::default(), &mut NullCollector, g);

    let mut meter = ResourceGuard::unlimited();
    governed(&mut meter).expect("unlimited guard never trips");
    let depth = meter.depth_high_water(DepthKind::Atp);
    assert!(depth >= 1, "Example 3.2 uses atp look-ahead");

    let mut at = ResourceGuard::unlimited().with_depth_limit(DepthKind::Atp, depth);
    governed(&mut at).expect("the measured depth admits the run");

    let mut below = ResourceGuard::unlimited().with_depth_limit(DepthKind::Atp, depth - 1);
    let err = governed(&mut below).expect_err("depth-1 must trip");
    assert!(matches!(
        reason(&err),
        TripReason::Depth { kind: DepthKind::Atp, limit } if *limit == depth - 1
    ));
}

#[test]
fn fo_quantifier_depth_boundary_is_exact() {
    use twq::logic::fo::build as fb;
    let mut vocab = Vocab::new();
    let t = twq::tree::parse_tree("a(b,c(d))", &mut vocab).unwrap();
    // ∃x ∃y E(x, y): quantifier depth exactly 2.
    let phi = fb::exists(
        fb::var(0),
        fb::exists(fb::var(1), fb::edge(fb::var(0), fb::var(1))),
    );

    let mut at = ResourceGuard::unlimited().with_depth_limit(DepthKind::Quantifier, 2);
    assert!(eval_sentence_in(&t, &phi, &mut NullCollector, &mut at)
        .expect("depth 2 admits the sentence"));

    let mut below = ResourceGuard::unlimited().with_depth_limit(DepthKind::Quantifier, 1);
    let err =
        eval_sentence_in(&t, &phi, &mut NullCollector, &mut below).expect_err("depth 1 must trip");
    assert!(matches!(
        reason(&err),
        TripReason::Depth {
            kind: DepthKind::Quantifier,
            limit: 1
        }
    ));
}

#[test]
fn xtm_tape_gauge_boundary_is_exact() {
    let mut vocab = Vocab::new();
    let cfg = TreeGenConfig::example32(&mut vocab, 24, &[1]);
    let m = machines::leaf_count_even(&cfg.symbols);
    let t = random_tree(&cfg, 5);
    let dt = DelimTree::build(&t);
    let governed =
        |g: &mut ResourceGuard| run_xtm_in(&m, &dt, XtmLimits::default(), &mut NullCollector, g);

    let mut meter = ResourceGuard::unlimited();
    let baseline = governed(&mut meter).expect("unlimited guard never trips");
    let cells = meter.gauge_high_water(GaugeKind::TapeCells);
    assert!(cells >= 1, "the counter machine writes its tape");
    assert_eq!(baseline.space, cells, "gauge tracks the space meter");

    let mut at = ResourceGuard::unlimited().with_mem_limit(GaugeKind::TapeCells, cells);
    governed(&mut at).expect("the measured tape size admits the run");

    let mut below = ResourceGuard::unlimited().with_mem_limit(GaugeKind::TapeCells, cells - 1);
    let err = governed(&mut below).expect_err("one cell less must trip");
    assert!(matches!(
        reason(&err),
        TripReason::Mem {
            kind: GaugeKind::TapeCells,
            ..
        }
    ));
}

/// A chaos guard: tight budget, hard deadline, and a seeded fault plan
/// injecting fuel exhaustion, deadline expiry, dropped transitions, and
/// store corruption.
fn chaos_guard(seed: u64) -> ResourceGuard {
    ResourceGuard::unlimited()
        .with_budget(50_000)
        .with_deadline(Duration::from_secs(5))
        .with_faults(FaultPlan::seeded(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under fault injection every evaluator halts promptly and returns
    /// either a report or a typed `TwqError` — never a panic, never a hang.
    #[test]
    fn chaos_evaluators_never_panic_and_halt((seed, nodes) in (0u64..500, 4usize..32)) {
        let start = Instant::now();
        let mut vocab = Vocab::new();

        // Direct engine (tw^{r,l} with atp).
        let ex = examples::example_32(&mut vocab);
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1, 2]);
        let t = random_tree(&cfg, seed);
        let dt = DelimTree::build(&t);
        let mut g = chaos_guard(seed);
        match run_in(&ex.program, &dt, Limits::default(), &mut NullCollector, &mut g) {
            Ok(_) => {}
            Err(e) => prop_assert!(e.guard().is_some(), "typed trip expected, got {e}"),
        }

        // xTM runner (tape + tree walking).
        let m = machines::leaf_count_even(&cfg.symbols);
        let mut g = chaos_guard(seed ^ 1);
        match run_xtm_in(&m, &dt, XtmLimits::default(), &mut NullCollector, &mut g) {
            Ok(_) => {}
            Err(e) => prop_assert!(e.guard().is_some(), "typed trip expected, got {e}"),
        }

        // Alternating evaluator (game semantics).
        let alt = machines::alt_all_leaves_even_depth(&cfg.symbols);
        match run_alternating_guarded(&alt, &dt, XtmLimits::default(), &mut chaos_guard(seed ^ 2)) {
            Ok(_) => {}
            Err(e) => prop_assert!(e.guard().is_some(), "typed trip expected, got {e}"),
        }

        prop_assert!(
            start.elapsed() < Duration::from_secs(60),
            "chaos case must halt promptly"
        );
    }

    /// The Lemma 4.5 protocol under fault injection: dialogue accounting
    /// stays sane (distinct ≤ total) on success, trips are typed on
    /// failure.
    #[test]
    fn chaos_protocol_accounting_stays_sane(seed in 0u64..200) {
        let mut vocab = Vocab::new();
        let markers = Markers::new(2, &mut vocab);
        let sym = vocab.sym("s");
        let attr = vocab.attr("a");
        let data: Vec<Value> = (100..104).map(|i| vocab.val_int(i)).collect();
        let prog = at_most_k_values_program(sym, attr, 3);
        let f = vec![data[0], data[(seed % 4) as usize]];
        let g = vec![data[((seed + 1) % 4) as usize]];
        match run_protocol_in(
            &prog, &f, &g, &markers, sym, attr, Limits::default(), &mut NullCollector,
            &mut chaos_guard(seed),
        ) {
            Ok(p) => prop_assert!(p.distinct_messages as u64 <= p.messages),
            Err(e) => prop_assert!(e.guard().is_some(), "typed trip expected, got {e}"),
        }
    }
}

/// Injected faults are deterministic: two runs with the same seed make the
/// same decisions, so reports and errors agree run-to-run.
#[test]
fn fault_injection_is_deterministic() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let cfg = TreeGenConfig::example32(&mut vocab, 30, &[1, 2]);
    let dt = DelimTree::build(&random_tree(&cfg, 3));
    let governed =
        |g: &mut ResourceGuard| run_in(&ex.program, &dt, Limits::default(), &mut NullCollector, g);
    let outcome = |seed: u64| {
        let mut g = ResourceGuard::unlimited().with_faults(FaultPlan::seeded(seed));
        match governed(&mut g) {
            Ok(r) => format!("ok:{:?}:{}", r.halt, r.steps),
            Err(e) => format!("err:{e}"),
        }
    };
    for seed in [1u64, 17, 99] {
        assert_eq!(outcome(seed), outcome(seed), "seed {seed} must replay");
    }
    // And the ungoverned engine agrees with a quiet (all-zero-rate) plan.
    let mut quiet = ResourceGuard::unlimited().with_faults(FaultPlan::quiet(9));
    let guarded = governed(&mut quiet).unwrap();
    let plain = run(&ex.program, &dt, Limits::default());
    assert_eq!(guarded.accepted(), plain.accepted());
    assert_eq!(guarded.steps, plain.steps);
}

/// The walking XPath evaluator charges fuel for the nodes each step
/// touches, not one tick per AST node, so a budget still bounds a walk over
/// a large document: a limit below the tree's size trips, an unlimited
/// guard passes with the plain answer, and the fuel spent stays within a
/// constant times `|q|·n`.
#[test]
fn xpath_walk_fuel_is_proportional_to_work() {
    let mut vocab = Vocab::new();
    let cfg = TreeGenConfig::example32(&mut vocab, 4096, &[1, 2]);
    let t = random_tree(&cfg, 5);
    let n = t.len() as u64;
    for q in [
        "//delta[sigma]",
        "//sigma | //delta",
        "//*[//delta[@a=1]]/sigma",
    ] {
        let p = parse_xpath(q, &mut vocab).unwrap();
        let mut tight = ResourceGuard::unlimited().with_budget(n - 1);
        let err = eval_from_in(&t, &p, t.root(), &mut NullCollector, &mut tight).unwrap_err();
        assert!(
            matches!(reason(&err), TripReason::Budget { .. }),
            "{q}: {err}"
        );
        let mut free = ResourceGuard::unlimited();
        let out = eval_from_in(&t, &p, t.root(), &mut NullCollector, &mut free).unwrap();
        assert_eq!(out, eval_from(&t, &p, t.root()), "{q}");
        let spent = free.stats().ticks;
        let bound = 4 * p.size() as u64 * n;
        assert!(spent <= bound, "{q}: {spent} fuel > 4·|q|·n = {bound}");
    }
}
