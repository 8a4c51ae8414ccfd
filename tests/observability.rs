//! Integration tests for the `twq-obs` instrumentation seam: collectors
//! must not change run semantics, metrics must describe the run the
//! engine actually performed, and sinks must capture usable traces.

use twq::automata::{
    examples, run_in, run_on_tree, Action, Dir, Halt, Limits, RunReport, TwProgram,
    TwProgramBuilder,
};
use twq::guard::NullGuard;
use twq::obs::{Collector, Event, HaltKind, Json, JsonlSink, MetricsCollector, RingBufferSink};
use twq::tree::{parse_tree, DelimTree, Label, Tree, Vocab};

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
/// counts that add up, the `atp` nesting the example is known to reach,
/// and the store high-water mark the engine itself reports.
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
    assert_eq!(m.max_store_tuples, report.max_store_tuples);
    assert!(
        m.max_store_tuples > 0,
        "φ₂ stores the collected leaf values"
    );
    assert!(m.cycle_inserts > 0);
}

/// A JSONL event sink attached to a real run emits one parseable record
/// per event, with exactly one `step` record per engine transition.
#[test]
fn jsonl_sink_round_trips_a_real_run() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let t = parse_tree(ACCEPTED, &mut vocab).unwrap();
    let mut sink = JsonlSink::new();
    let mut mc = MetricsCollector::with_sink(&mut sink);
    let report = observe(&ex.program, &t, &mut mc);
    let steps = mc.metrics.steps;
    drop(mc);
    assert!(report.accepted());
    let mut step_events = 0u64;
    for line in sink.lines() {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e:?}"));
        if j.get("ev").and_then(Json::as_str) == Some("step") {
            step_events += 1;
        }
    }
    assert!(steps > 0);
    assert_eq!(step_events, steps);
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

/// The ring-buffer flight recorder holds the final moments of a `Stuck`
/// run: the last retained event is the failing chain's exit, even after
/// earlier events have been evicted.
#[test]
fn ring_buffer_post_mortem_captures_the_stuck_tail() {
    let mut vocab = Vocab::new();
    let (prog, t) = stuck_walker(&mut vocab);
    let mut ring = RingBufferSink::new(3);
    let mut mc = MetricsCollector::with_sink(&mut ring);
    let report = observe(&prog, &t, &mut mc);
    assert_eq!(report.halt, Halt::Stuck);
    assert!(report.steps >= 2, "walks the spine before sticking");
    assert_eq!(mc.metrics.halt, Some(HaltKind::Stuck));
    drop(mc);
    assert!(ring.dropped() > 0, "the run outgrew the 3-event window");
    let last = ring.events().last().expect("events retained");
    assert_eq!(
        *last,
        Event::ChainExit {
            depth: 0,
            halt: HaltKind::Stuck
        }
    );
    assert!(ring.post_mortem().contains("< chain: stuck"));
}
