//! The [`Collector`] trait — the single instrumentation seam every
//! evaluator threads through its hot loop — its two basic
//! implementations, and the pair `(A, B)` that feeds one run to two
//! collectors.
//!
//! Evaluators are generic over `C: Collector` and monomorphize twice: the
//! [`NullCollector`] instantiation compiles every hook to an empty inline
//! body (`ENABLED = false` additionally gates the few call sites that
//! would have to *compute* an argument), so the uninstrumented path is
//! bit-for-bit the original loop. [`MetricsCollector`] pays for exactly
//! what it records.

use std::time::Instant;

use crate::event::{FoEval, HaltKind};
use crate::metrics::RunMetrics;
use crate::registry::Registry;

/// Instrumentation hooks. Every method has an empty default body; an
/// evaluator calls the hooks unconditionally (they cost nothing when
/// disabled) and checks [`Collector::ENABLED`] only where *preparing* a
/// hook's arguments would itself do work.
#[allow(unused_variables)]
pub trait Collector {
    /// Whether this collector observes anything. `false` lets evaluators
    /// skip argument preparation entirely.
    const ENABLED: bool = true;

    /// A computation chain started at `node` in `state` (`depth` 0 = the
    /// main computation).
    fn chain_enter(&mut self, node: u64, state: u32, depth: u32) {}

    /// A computation chain ended.
    fn chain_exit(&mut self, halt: HaltKind, depth: u32) {}

    /// One transition, taken at `node` in `state`.
    fn step(&mut self, node: u64, state: u32, depth: u32) {}

    /// An `atp` look-ahead began with `fanout` selected nodes.
    fn atp_enter(&mut self, node: u64, fanout: usize, depth: u32) {}

    /// The `atp` look-ahead ended.
    fn atp_exit(&mut self, depth: u32) {}

    /// A first-order evaluation primitive ran.
    fn fo_eval(&mut self, kind: FoEval) {}

    /// An FO quantifier began evaluating (`exists` is `false` for `∀`);
    /// `var` is the variable slot being bound.
    fn quant_enter(&mut self, exists: bool, var: u32) {}

    /// The quantifier resolved to `holds`. For a true `∃` (or false `∀`)
    /// `witness` is the node whose binding decided it.
    fn quant_exit(&mut self, holds: bool, witness: Option<u64>) {}

    /// An xpath axis step of the named kind began evaluating.
    fn axis_enter(&mut self, axis: &'static str) {}

    /// The axis step ended, producing `frontier` as its node set.
    fn axis_exit(&mut self, frontier: &[u64]) {}

    /// A selection primitive (atp look-ahead, FO `select`) chose `nodes`.
    /// Callers gate the argument build on [`Collector::ENABLED`].
    fn selected(&mut self, nodes: &[u64]) {}

    /// A resource guard tripped; `reason` is the rendered
    /// `twq-guard::TripReason` (e.g. "fuel budget exhausted (limit 100)").
    fn trip(&mut self, reason: &str) {}

    /// A named phase finished after `nanos` nanoseconds of wall clock.
    fn phase(&mut self, name: &'static str, nanos: u64) {}

    /// The whole run ended.
    fn halt(&mut self, halt: HaltKind) {}
}

/// The zero-cost default: observes nothing, optimizes to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCollector;

impl Collector for NullCollector {
    const ENABLED: bool = false;
}

/// Two collectors observing one run: every hook reaches `A`, then `B`.
/// Pairs nest, so one run can feed any number of collectors —
/// `experiments --profile` runs under
/// `(MetricsCollector, (FlameProfiler, Tail))`.
impl<A: Collector, B: Collector> Collector for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn chain_enter(&mut self, node: u64, state: u32, depth: u32) {
        self.0.chain_enter(node, state, depth);
        self.1.chain_enter(node, state, depth);
    }

    fn chain_exit(&mut self, halt: HaltKind, depth: u32) {
        self.0.chain_exit(halt, depth);
        self.1.chain_exit(halt, depth);
    }

    fn step(&mut self, node: u64, state: u32, depth: u32) {
        self.0.step(node, state, depth);
        self.1.step(node, state, depth);
    }

    fn atp_enter(&mut self, node: u64, fanout: usize, depth: u32) {
        self.0.atp_enter(node, fanout, depth);
        self.1.atp_enter(node, fanout, depth);
    }

    fn atp_exit(&mut self, depth: u32) {
        self.0.atp_exit(depth);
        self.1.atp_exit(depth);
    }

    fn fo_eval(&mut self, kind: FoEval) {
        self.0.fo_eval(kind);
        self.1.fo_eval(kind);
    }

    fn quant_enter(&mut self, exists: bool, var: u32) {
        self.0.quant_enter(exists, var);
        self.1.quant_enter(exists, var);
    }

    fn quant_exit(&mut self, holds: bool, witness: Option<u64>) {
        self.0.quant_exit(holds, witness);
        self.1.quant_exit(holds, witness);
    }

    fn axis_enter(&mut self, axis: &'static str) {
        self.0.axis_enter(axis);
        self.1.axis_enter(axis);
    }

    fn axis_exit(&mut self, frontier: &[u64]) {
        self.0.axis_exit(frontier);
        self.1.axis_exit(frontier);
    }

    fn selected(&mut self, nodes: &[u64]) {
        self.0.selected(nodes);
        self.1.selected(nodes);
    }

    fn trip(&mut self, reason: &str) {
        self.0.trip(reason);
        self.1.trip(reason);
    }

    fn phase(&mut self, name: &'static str, nanos: u64) {
        self.0.phase(name, nanos);
        self.1.phase(name, nanos);
    }

    fn halt(&mut self, halt: HaltKind) {
        self.0.halt(halt);
        self.1.halt(halt);
    }
}

/// Records [`RunMetrics`] and optionally aggregates phase timings into a
/// session [`Registry`].
#[derive(Debug, Default)]
pub struct MetricsCollector<'s> {
    /// The metrics accumulated so far.
    pub metrics: RunMetrics,
    registry: Option<&'s mut Registry>,
}

impl<'s> MetricsCollector<'s> {
    /// Metrics only.
    pub fn new() -> MetricsCollector<'static> {
        MetricsCollector::default()
    }

    /// Metrics plus session-level aggregation into `registry`: phase
    /// durations land under `phase/<name>` (as nanosecond histograms).
    pub fn with_registry(registry: &'s mut Registry) -> MetricsCollector<'s> {
        MetricsCollector {
            metrics: RunMetrics::new(),
            registry: Some(registry),
        }
    }

    /// Consume the collector, returning the metrics.
    pub fn into_metrics(self) -> RunMetrics {
        self.metrics
    }
}

impl Collector for MetricsCollector<'_> {
    fn chain_enter(&mut self, _node: u64, _state: u32, depth: u32) {
        self.metrics.chains += 1;
        if depth > 0 {
            self.metrics.subcomputations += 1;
        }
        self.metrics.max_atp_depth = self.metrics.max_atp_depth.max(depth);
    }

    fn step(&mut self, _node: u64, state: u32, _depth: u32) {
        self.metrics.steps += 1;
        let q = state as usize;
        if q >= self.metrics.steps_per_state.len() {
            self.metrics.steps_per_state.resize(q + 1, 0);
        }
        self.metrics.steps_per_state[q] += 1;
    }

    fn atp_enter(&mut self, _node: u64, fanout: usize, _depth: u32) {
        self.metrics.atp_calls += 1;
        self.metrics.max_atp_fanout = self.metrics.max_atp_fanout.max(fanout);
    }

    fn fo_eval(&mut self, kind: FoEval) {
        self.metrics.fo_evals[kind as usize] += 1;
    }

    fn phase(&mut self, name: &'static str, nanos: u64) {
        self.metrics.phases.push((name, nanos));
        if let Some(reg) = self.registry.as_deref_mut() {
            reg.hist_record(&format!("phase/{name}"), nanos);
        }
    }

    fn halt(&mut self, halt: HaltKind) {
        self.metrics.halt = Some(halt);
    }
}

/// Times a phase and reports it to a collector on [`PhaseTimer::stop`].
#[derive(Debug)]
pub struct PhaseTimer {
    name: &'static str,
    start: Instant,
}

impl PhaseTimer {
    /// Start the clock.
    pub fn start(name: &'static str) -> Self {
        PhaseTimer {
            name,
            start: Instant::now(),
        }
    }

    /// Stop the clock and record the phase.
    pub fn stop<C: Collector>(self, c: &mut C) {
        c.phase(
            self.name,
            self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive both collectors through the same synthetic run shape.
    fn drive<C: Collector>(c: &mut C) {
        c.chain_enter(0, 0, 0);
        c.step(0, 0, 0);
        c.fo_eval(FoEval::Guard);
        c.atp_enter(0, 2, 0);
        for _ in 0..2 {
            c.chain_enter(5, 1, 1);
            c.step(5, 1, 1);
            c.chain_exit(HaltKind::Accept, 1);
        }
        c.atp_exit(0);
        c.step(0, 2, 0);
        c.phase("drive", 5);
        c.chain_exit(HaltKind::Accept, 0);
        c.halt(HaltKind::Accept);
    }

    #[test]
    fn metrics_collector_tallies() {
        let mut c = MetricsCollector::new();
        drive(&mut c);
        let m = c.into_metrics();
        assert_eq!(m.steps, 4);
        assert_eq!(m.steps_per_state, vec![1, 2, 1]);
        assert_eq!(m.chains, 3);
        assert_eq!(m.subcomputations, 2);
        assert_eq!(m.atp_calls, 1);
        assert_eq!(m.max_atp_depth, 1);
        assert_eq!(m.max_atp_fanout, 2);
        assert_eq!(m.fo(FoEval::Guard), 1);
        assert_eq!(m.halt, Some(HaltKind::Accept));
        assert_eq!(m.top_states(1), vec![(1, 2)]);
    }

    // The zero-cost contract, checked at compile time.
    const _: () = assert!(!NullCollector::ENABLED);
    const _: () = assert!(MetricsCollector::<'static>::ENABLED);
    // A pair observes iff either side does.
    const _: () = assert!(!<(NullCollector, NullCollector)>::ENABLED);
    const _: () = assert!(<(NullCollector, MetricsCollector<'static>)>::ENABLED);

    #[test]
    fn null_collector_is_inert() {
        let mut c = NullCollector;
        drive(&mut c); // must compile and do nothing
    }

    #[test]
    fn pair_forwards_every_hook_to_both_sides() {
        let mut single = MetricsCollector::new();
        drive(&mut single);
        let mut pair = (MetricsCollector::new(), MetricsCollector::new());
        drive(&mut pair);
        assert_eq!(pair.0.metrics, single.metrics);
        assert_eq!(pair.1.metrics, single.metrics);
    }

    #[test]
    fn registry_receives_phases() {
        let mut reg = Registry::new();
        let mut c = MetricsCollector::with_registry(&mut reg);
        drive(&mut c);
        c.phase("run", 1234);
        drop(c);
        let h = reg.hist("phase/run").expect("phase recorded");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(1234));
    }

    #[test]
    fn phase_timer_records() {
        let mut c = MetricsCollector::new();
        let t = PhaseTimer::start("unit");
        t.stop(&mut c);
        assert_eq!(c.metrics.phases.len(), 1);
        assert_eq!(c.metrics.phases[0].0, "unit");
    }
}
