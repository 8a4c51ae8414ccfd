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

use twq::automata::{examples, run, run_in, Action, Limits, TwProgramBuilder};
use twq::guard::{DepthKind, FaultPlan, GaugeKind, NullGuard, ResourceGuard, TripReason, TwqError};
use twq::logic::exists::selectors;
use twq::logic::fo::build::{and, desc, lab, var};
use twq::logic::{eval_sentence_in, ExistsFormula};
use twq::obs::{Collector, NullCollector};
use twq::protocol::{at_most_k_values_program, run_protocol_in, Markers};
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::{parse_tree, DelimTree, Label, NodeId, Value, Vocab};
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

/// Records the node of every `atp` look-ahead a run makes.
#[derive(Default)]
struct Lookaheads(Vec<NodeId>);

impl Collector for Lookaheads {
    fn atp_enter(&mut self, node: u64, _fanout: usize, _depth: u32) {
        self.0.push(NodeId(node as u32));
    }
}

/// `phi.select_in(u)`'s fuel, metered on a guard of its own.
fn lookahead_fuel(phi: &ExistsFormula, dt: &DelimTree, u: NodeId) -> u64 {
    let mut g = ResourceGuard::unlimited();
    phi.select_in(dt.tree(), u, &mut NullCollector, &mut g)
        .expect("unlimited guard never trips");
    g.fuel_spent()
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
    // One unit per engine step, plus each look-ahead's own charge: φ₁
    // from ▽, φ₂ from every δ-node the run looked ahead from.
    let mut seen = Lookaheads::default();
    run_in(
        &ex.program,
        &dt,
        Limits::default(),
        &mut seen,
        &mut NullGuard,
    )
    .unwrap();
    let (phi1, phi2) = (
        selectors::descendants_labeled(Label::Sym(ex.delta)),
        selectors::delim_leaf_descendants(),
    );
    let root = dt.tree().root();
    let lookahead: u64 = seen
        .0
        .iter()
        .map(|&u| lookahead_fuel(if u == root { &phi1 } else { &phi2 }, &dt, u))
        .sum();
    assert!(seen.0.len() > 1, "the run must look ahead from a δ-node");
    assert_eq!(fuel, baseline.steps + lookahead);

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

/// A budget that admits the steps before Example 3.2's first φ₂
/// look-ahead, and φ₁'s charge, but not all of φ₂'s: the trip lands
/// inside the look-ahead, and its partial report counts the look-ahead
/// fuel on top of the two steps taken.
#[test]
fn engine_budget_trips_inside_the_lookahead() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let t = parse_tree(
        "sigma[a=1](delta[a=1](sigma[a=1],sigma[a=1]),sigma[a=1])",
        &mut vocab,
    )
    .unwrap();
    let dt = DelimTree::build(&t);
    let (phi1, phi2) = (
        selectors::descendants_labeled(Label::Sym(ex.delta)),
        selectors::delim_leaf_descendants(),
    );
    let root = dt.tree().root();
    let first_delta = phi1.select(dt.tree(), root).first().expect("a δ-node");
    // Step 1 looks ahead with φ₁ from ▽; step 2 with φ₂ from the δ-node.
    let before = 2 + lookahead_fuel(&phi1, &dt, root);
    let phi2_fuel = lookahead_fuel(&phi2, &dt, first_delta);
    assert!(phi2_fuel > 1);
    let budget = before + phi2_fuel - 1;

    let mut seen = Lookaheads::default();
    let mut g = ResourceGuard::unlimited().with_budget(budget);
    let err = run_in(&ex.program, &dt, Limits::default(), &mut seen, &mut g)
        .expect_err("φ₂'s charge must trip");
    assert!(matches!(reason(&err), TripReason::Budget { limit } if *limit == budget));
    // φ₁'s look-ahead completed; φ₂'s never reached its subcomputations.
    assert_eq!(seen.0, vec![root]);
    let partial = &err.guard().unwrap().partial;
    assert!(partial.fuel_spent > budget, "{partial:?}");
    assert!(partial.fuel_spent > 2, "{partial:?}");
    // One more unit admits the look-ahead.
    let mut seen = Lookaheads::default();
    let mut g = ResourceGuard::unlimited().with_budget(budget + 1);
    let _ = run_in(&ex.program, &dt, Limits::default(), &mut seen, &mut g);
    assert_eq!(seen.0, vec![root, first_delta]);
}

/// A look-ahead whose one branch is cyclic backtracks over `n²`
/// bindings — seconds on a 2,048-node tree — and still sees a 50 ms
/// deadline: every binding is charged, so the run stops within a stride.
#[test]
fn engine_deadline_is_seen_inside_the_lookahead() {
    let mut vocab = Vocab::new();
    let cfg = TreeGenConfig::example32(&mut vocab, 2048, &[1]);
    let dt = DelimTree::build(&random_tree(&cfg, 3));
    // φ(x, y) = ∃z (x ≺ z ∧ z ≺ y ∧ x ≺ y ∧ O_△(z)): a cycle, so no
    // semi-join plan, and `△`-nodes are leaves, so it selects nothing.
    let (x, y, z) = (var(0), var(1), var(2));
    let phi = ExistsFormula::new(
        x,
        y,
        vec![z],
        and([desc(x, z), desc(z, y), desc(x, y), lab(Label::DelimLeaf, z)]),
    )
    .unwrap();
    assert_eq!(phi.branch_paths(), (0, 1));
    let mut b = TwProgramBuilder::new();
    let q0 = b.state("q0");
    let qf = b.state("qF");
    b.initial(q0).final_state(qf);
    let x1 = b.unary_register();
    b.rule_true(Label::DelimRoot, q0, Action::Atp(qf, phi, qf, x1));
    let prog = b.build().unwrap();

    let started = Instant::now();
    let mut g = ResourceGuard::unlimited().with_deadline(Duration::from_millis(50));
    let err = run_in(&prog, &dt, Limits::default(), &mut NullCollector, &mut g)
        .expect_err("the deadline must trip");
    let took = started.elapsed();
    assert!(matches!(reason(&err), TripReason::Deadline { .. }), "{err}");
    assert!(took < Duration::from_millis(100), "tripped after {took:?}");
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

/// The guard's high-water gauges are the run reports' own meters: on
/// roster programs over random trees, an unlimited guard's store-tuple
/// and configuration gauges end at the engine report's
/// `max_store_tuples` and `max_chain_configs`, and on xTM runs its tape
/// gauge ends at the report's `space`. A governed run therefore needs no
/// second account of these marks.
#[test]
fn guard_gauges_meet_the_report_high_water_marks() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let (syms, a) = ([ex.sigma, ex.delta], ex.attr);
    let programs = [
        ex.program.clone(),
        examples::even_leaves_program(&syms),
        examples::all_leaves_equal_program(&syms, a),
        examples::parent_child_match_program(&syms, a),
        examples::distinct_values_at_least(&syms, a, 3),
    ];
    let machine = machines::leaf_count_even(&syms);
    // The largest mark of each kind, so the equalities are not all 0 = 0.
    let mut highest = [0usize; 3];
    for nodes in [12, 120, 480] {
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[0, 1, 2, 3]);
        for seed in 0..4 {
            let dt = DelimTree::build(&random_tree(&cfg, seed));
            for prog in &programs {
                let mut g = ResourceGuard::unlimited();
                let report = run_in(prog, &dt, Limits::default(), &mut NullCollector, &mut g)
                    .expect("unlimited guard never trips");
                assert_eq!(
                    g.gauge_high_water(GaugeKind::StoreTuples),
                    report.max_store_tuples
                );
                assert_eq!(
                    g.gauge_high_water(GaugeKind::Configs),
                    report.max_chain_configs
                );
                highest[0] = highest[0].max(report.max_store_tuples);
                highest[1] = highest[1].max(report.max_chain_configs);
            }
            let mut g = ResourceGuard::unlimited();
            let report = run_xtm_in(
                &machine,
                &dt,
                XtmLimits::default(),
                &mut NullCollector,
                &mut g,
            )
            .expect("unlimited guard never trips");
            assert_eq!(g.gauge_high_water(GaugeKind::TapeCells), report.space);
            highest[2] = highest[2].max(report.space);
        }
    }
    assert!(highest.iter().all(|&h| h > 1), "{highest:?}");
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
        let spent = free.fuel_spent();
        let bound = 4 * p.size() as u64 * n;
        assert!(spent <= bound, "{q}: {spent} fuel > 4·|q|·n = {bound}");
    }
}
