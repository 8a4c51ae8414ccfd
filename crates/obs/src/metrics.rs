//! Aggregate run metrics collected by
//! [`MetricsCollector`](crate::collect::MetricsCollector).

use crate::event::{FoEval, HaltKind};

/// Everything a fully-instrumented run measures. All counters are zero by
/// default; an evaluator only moves the ones it exercises.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Total transitions, across the main computation and all
    /// subcomputations.
    pub steps: u64,
    /// Transitions per state, indexed by state id (grown on demand).
    pub steps_per_state: Vec<u64>,
    /// Computation chains started (1 + subcomputations for `tw` runs).
    pub chains: u64,
    /// Chains started at `atp` depth ≥ 1.
    pub subcomputations: u64,
    /// `atp` look-aheads issued.
    pub atp_calls: u64,
    /// Deepest `atp` nesting observed (0 = none).
    pub max_atp_depth: u32,
    /// Widest `atp` fan-out (most subcomputations from one call).
    pub max_atp_fanout: usize,
    /// First-order evaluation calls, indexed by [`FoEval`] discriminant.
    pub fo_evals: [u64; FoEval::COUNT],
    /// Wall-clock phase timings, in completion order: `(name, nanos)`.
    pub phases: Vec<(&'static str, u64)>,
    /// How the measured run ended, once known.
    pub halt: Option<HaltKind>,
}

impl RunMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Step count attributed to one state.
    pub fn steps_in_state(&self, state: u32) -> u64 {
        self.steps_per_state
            .get(state as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Calls to one FO primitive.
    pub fn fo(&self, kind: FoEval) -> u64 {
        self.fo_evals[kind as usize]
    }

    /// The `k` states with the most steps, descending (ties broken by
    /// state id so the profile is deterministic).
    pub fn top_states(&self, k: usize) -> Vec<(u32, u64)> {
        let mut ranked: Vec<(u32, u64)> = self
            .steps_per_state
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(q, &n)| (q as u32, n))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// Fold another run's metrics into this one — the per-worker merge the
    /// parallel batch entry points use, so a fanned-out batch reports one
    /// aggregate exactly as a serial loop over the same items would.
    ///
    /// Additive counters sum, high-water marks take the max, per-state
    /// counters merge pointwise, and phases concatenate. `halt` keeps
    /// the *other* run's verdict when it has one (last writer wins, matching
    /// a serial collector observing runs in sequence).
    pub fn merge(&mut self, other: &RunMetrics) {
        self.steps += other.steps;
        if other.steps_per_state.len() > self.steps_per_state.len() {
            self.steps_per_state.resize(other.steps_per_state.len(), 0);
        }
        for (a, b) in self.steps_per_state.iter_mut().zip(&other.steps_per_state) {
            *a += b;
        }
        self.chains += other.chains;
        self.subcomputations += other.subcomputations;
        self.atp_calls += other.atp_calls;
        self.max_atp_depth = self.max_atp_depth.max(other.max_atp_depth);
        self.max_atp_fanout = self.max_atp_fanout.max(other.max_atp_fanout);
        for (a, b) in self.fo_evals.iter_mut().zip(&other.fo_evals) {
            *a += b;
        }
        self.phases.extend_from_slice(&other.phases);
        if other.halt.is_some() {
            self.halt = other.halt;
        }
    }

    /// Total nanoseconds recorded for a named phase.
    pub fn phase_nanos(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, ns)| ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_states_ranks_and_truncates() {
        let m = RunMetrics {
            steps_per_state: vec![5, 0, 9, 9, 1],
            ..RunMetrics::default()
        };
        assert_eq!(m.top_states(3), vec![(2, 9), (3, 9), (0, 5)]);
        assert_eq!(m.top_states(10).len(), 4);
        assert_eq!(m.steps_in_state(1), 0);
        assert_eq!(m.steps_in_state(99), 0);
    }

    #[test]
    fn merge_is_sum_max_and_concat() {
        let mut a = RunMetrics {
            steps: 10,
            steps_per_state: vec![4, 6],
            chains: 1,
            max_atp_depth: 2,
            halt: Some(HaltKind::Accept),
            ..RunMetrics::default()
        };
        a.phases.push(("run", 100));
        let mut b = RunMetrics {
            steps: 5,
            steps_per_state: vec![1, 0, 4],
            chains: 2,
            max_atp_depth: 1,
            halt: Some(HaltKind::Cycle),
            ..RunMetrics::default()
        };
        b.fo_evals[FoEval::Atom as usize] = 8;
        b.phases.push(("run", 50));
        a.merge(&b);
        assert_eq!(a.steps, 15);
        assert_eq!(a.steps_per_state, vec![5, 6, 4]);
        assert_eq!(a.chains, 3);
        assert_eq!(a.max_atp_depth, 2);
        assert_eq!(a.fo(FoEval::Atom), 8);
        assert_eq!(a.phase_nanos("run"), 150);
        assert_eq!(a.halt, Some(HaltKind::Cycle));
        // Merging an empty run leaves the verdict alone.
        a.merge(&RunMetrics::new());
        assert_eq!(a.halt, Some(HaltKind::Cycle));
    }

    #[test]
    fn phase_nanos_sums_repeats() {
        let mut m = RunMetrics::new();
        m.phases.push(("compile", 10));
        m.phases.push(("run", 5));
        m.phases.push(("compile", 7));
        assert_eq!(m.phase_nanos("compile"), 17);
        assert_eq!(m.phase_nanos("absent"), 0);
    }
}
