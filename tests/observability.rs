//! Integration tests for the `twq-obs` instrumentation seam: collectors
//! must not change run semantics, metrics must describe the run the
//! engine actually performed, a pair of collectors must each see the
//! whole run, and the post-mortem tail must hold a run's last moments.

use twq::automata::{
    examples, run_in, run_on_tree, Action, Dir, Halt, Limits, RunReport, TwProgram,
    TwProgramBuilder,
};
use twq::guard::{NullGuard, ResourceGuard};
use twq::logic::fo::build as fob;
use twq::logic::select_in;
use twq::obs::{Collector, HaltKind, MetricsCollector, Tail, TraceCollector};
use twq::tree::{parse_tree, DelimTree, Label, Tree, Vocab};
use twq::xpath::{eval_from_in, parse_xpath};

const ACCEPTED: &str = "sigma[a=0](delta[a=0](sigma[a=1],sigma[a=1]),sigma[a=2])";
const REJECTED: &str = "sigma[a=0](delta[a=0](sigma[a=1],sigma[a=2]),sigma[a=2])";

/// Run `prog` on `t` under collector `c` (and no guard).
fn observe<C: Collector>(prog: &TwProgram, t: &Tree, c: &mut C) -> RunReport {
    run_in(
        prog,
        &DelimTree::build(t),
        Limits::default(),
        c,
        &mut NullGuard,
    )
    .unwrap()
}

/// Instrumentation must be an observer: the `NullCollector` run (the
/// public entry point) and the `MetricsCollector` run of Example 3.2 end
/// the same way with the same step totals, on both verdicts.
#[test]
fn collectors_agree_on_example_32() {
    for (text, expect) in [(ACCEPTED, true), (REJECTED, false)] {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let t = parse_tree(text, &mut vocab).unwrap();
        let plain = run_on_tree(&ex.program, &t, Limits::default());
        let mut mc = MetricsCollector::new();
        let measured = observe(&ex.program, &t, &mut mc);
        let m = mc.into_metrics();
        assert_eq!(plain.accepted(), expect, "verdict on {text}");
        assert_eq!(plain.halt, measured.halt);
        assert_eq!(plain.steps, measured.steps);
        assert_eq!(m.steps, plain.steps);
        assert_eq!(m.halt, Some(plain.halt.kind()));
        assert_eq!(m.halt.unwrap().accepted(), expect);
    }
}

/// The acceptance-criteria metrics for an Example 3.2 run: per-state step
/// counts that add up and the `atp` nesting the example is known to
/// reach; the store and cycle-check high-water marks are the run report's.
#[test]
fn example_32_metrics_describe_the_run() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let t = parse_tree(ACCEPTED, &mut vocab).unwrap();
    let mut mc = MetricsCollector::new();
    let report = observe(&ex.program, &t, &mut mc);
    let m = mc.into_metrics();
    assert_eq!(m.steps_per_state.iter().sum::<u64>(), m.steps);
    assert!(
        m.steps_per_state.iter().filter(|&&s| s > 0).count() >= 3,
        "the example walks through q0, q_sel, and q_leaf at least"
    );
    assert_eq!(
        m.top_states(16).iter().map(|&(_, s)| s).sum::<u64>(),
        m.steps
    );
    // Main chain (depth 0) → atp(φ₁) subcomputations at δ-nodes (depth 1)
    // → atp(φ₂) leaf-collection chains (depth 2).
    assert_eq!(m.max_atp_depth, 2);
    assert_eq!(m.atp_calls, report.atp_calls);
    assert_eq!(m.subcomputations, report.subcomputations);
    assert!(
        report.max_store_tuples > 0,
        "φ₂ stores the collected leaf values"
    );
    assert!(report.max_chain_configs > 0);
}

/// The runs the pair is checked on, between them reaching every hook a
/// trace or the metrics record.
#[derive(Debug, Clone, Copy)]
enum Case {
    /// Example 3.2 on [`ACCEPTED`]: chains, steps, nested `atp`s, FO
    /// guards and updates, the halt.
    Engine,
    /// The same run on a 20-fuel budget, which trips.
    Budgeted,
    /// An FO `select_in` whose formula nests `∃` and `∀`.
    FoSelect,
    /// An XPath `eval_from_in` with a filter.
    XPath,
}

/// Run `case` under `c`.
fn run_case<C: Collector>(case: Case, c: &mut C) {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let t = parse_tree(ACCEPTED, &mut vocab).unwrap();
    match case {
        Case::Engine => assert!(observe(&ex.program, &t, c).accepted()),
        Case::Budgeted => {
            let mut g = ResourceGuard::unlimited().with_budget(20);
            let dt = DelimTree::build(&t);
            assert!(run_in(&ex.program, &dt, Limits::default(), c, &mut g).is_err());
        }
        Case::FoSelect => {
            // y is a grandchild of x all of whose children are leaves.
            let (x, y, z, w) = (fob::var(0), fob::var(1), fob::var(2), fob::var(3));
            let phi = fob::and([
                fob::exists(z, fob::and([fob::edge(x, z), fob::edge(z, y)])),
                fob::forall(w, fob::implies(fob::edge(y, w), fob::leaf(w))),
            ]);
            let s = select_in(&t, &phi, x, t.root(), y, c, &mut NullGuard).unwrap();
            assert_eq!(s.len(), 2);
        }
        Case::XPath => {
            let q = parse_xpath("//delta[sigma]/sigma", &mut vocab).unwrap();
            let s = eval_from_in(&t, &q, t.root(), c, &mut NullGuard).unwrap();
            assert_eq!(s.len(), 2);
        }
    }
}

/// A pair hands every hook to both sides: on each case, each side of a
/// `(TraceCollector, TraceCollector)` records the trace a single
/// `TraceCollector` does, and each side of a
/// `(MetricsCollector, MetricsCollector)` the single one's metrics. A
/// pair arm that drops or swaps a hook fails here.
#[test]
fn pairs_record_what_one_collector_records() {
    for (case, reaches) in [
        (Case::Engine, "atp"),
        (Case::Budgeted, "trip"),
        (Case::FoSelect, "quant"),
        (Case::XPath, "axis"),
    ] {
        let mut one = TraceCollector::new();
        run_case(case, &mut one);
        let want = one.finish("run");
        assert!(
            want.to_json_line()
                .contains(&format!("\"k\":\"{reaches}\"")),
            "{case:?} reaches no {reaches} span"
        );
        let mut pair = (TraceCollector::new(), TraceCollector::new());
        run_case(case, &mut pair);
        assert_eq!(pair.0.finish("run"), want, "{case:?}, left side");
        assert_eq!(pair.1.finish("run"), want, "{case:?}, right side");

        let mut one = MetricsCollector::new();
        run_case(case, &mut one);
        let mut pair = (MetricsCollector::new(), MetricsCollector::new());
        run_case(case, &mut pair);
        assert_eq!(pair.0.metrics, one.metrics, "{case:?}, left side");
        assert_eq!(pair.1.metrics, one.metrics, "{case:?}, right side");
    }
}

/// A walker that marches down the spine (hopping right over each `⊳`
/// delimiter) and has no rule for the `△` it lands on under the leaf —
/// a guaranteed mid-tree `Stuck` after several steps.
fn stuck_walker(vocab: &mut Vocab) -> (TwProgram, Tree) {
    let s = vocab.sym("sigma");
    let t = parse_tree("sigma(sigma(sigma))", vocab).unwrap();
    let mut b = TwProgramBuilder::new();
    let q0 = b.state("q0");
    let q_f = b.state("qF");
    b.initial(q0).final_state(q_f);
    b.rule_true(Label::DelimRoot, q0, Action::Move(q0, Dir::Down));
    b.rule_true(Label::DelimOpen, q0, Action::Move(q0, Dir::Right));
    b.rule_true(Label::Sym(s), q0, Action::Move(q0, Dir::Down));
    (b.build().unwrap(), t)
}

/// The ring-buffer flight recorder, a [`Tail`], holds the final moments
/// of a `Stuck` run: the last retained entry is the failing chain's exit,
/// even after earlier entries have been evicted.
#[test]
fn ring_buffer_post_mortem_captures_the_stuck_tail() {
    let mut vocab = Vocab::new();
    let (prog, t) = stuck_walker(&mut vocab);
    let mut c = (MetricsCollector::new(), Tail::new(3));
    let report = observe(&prog, &t, &mut c);
    let (mc, tail) = c;
    assert_eq!(report.halt, Halt::Stuck);
    assert!(report.steps >= 2, "walks the spine before sticking");
    assert_eq!(mc.metrics.halt, Some(HaltKind::Stuck));
    assert!(tail.dropped() > 0, "the run outgrew the 3-entry window");
    assert_eq!(tail.len(), 3);
    let pm = tail.post_mortem();
    assert_eq!(pm.lines().last(), Some("< chain: stuck"), "{pm}");
}
