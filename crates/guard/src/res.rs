//! The governed resources and the [`Guard`] trait that composes them.

use crate::error::{DEPTH_KINDS, GAUGE_KINDS};
use crate::faults::{FaultKind, FaultPlan, FaultSite};
use crate::{DepthKind, GaugeKind, GuardError, Partial, TripReason};
use std::time::{Duration, Instant};

/// A fuel counter.
///
/// Semantics are exact and boundary-tested: a budget of `n` admits exactly
/// `n` charged units; charging the `n+1`-st unit trips.  A computation that
/// needs exactly `n` ticks therefore succeeds under `Budget::limited(n)` and
/// trips under `Budget::limited(n - 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    limit: Option<u64>,
    spent: u64,
}

impl Budget {
    /// A budget admitting exactly `limit` units of fuel.
    pub fn limited(limit: u64) -> Self {
        Budget {
            limit: Some(limit),
            spent: 0,
        }
    }

    /// A budget that never trips (still counts fuel).
    pub fn unlimited() -> Self {
        Budget {
            limit: None,
            spent: 0,
        }
    }

    /// Charge `n` units; trips when the cumulative total exceeds the limit.
    pub fn charge(&mut self, n: u64) -> Result<(), TripReason> {
        self.spent = self.spent.saturating_add(n);
        match self.limit {
            Some(limit) if self.spent > limit => Err(TripReason::Budget { limit }),
            _ => Ok(()),
        }
    }

    /// Fuel charged so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Fuel left before the budget trips (`None` when unlimited).
    pub fn remaining(&self) -> Option<u64> {
        self.limit.map(|l| l.saturating_sub(self.spent))
    }

    /// The configured limit (`None` when unlimited).
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }
}

/// A wall-clock deadline.
///
/// The clock starts when the deadline is constructed; [`Deadline::check`]
/// trips once the elapsed time exceeds the configured limit.  The
/// [`ResourceGuard`] only consults the clock every few ticks, so enforcement
/// is amortized — a run may overshoot the deadline by at most one check
/// stride of work.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    limit: Duration,
}

impl Deadline {
    /// A deadline `limit` from now.
    pub fn after(limit: Duration) -> Self {
        Deadline {
            start: Instant::now(),
            limit,
        }
    }

    /// Time elapsed since construction.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.elapsed() > self.limit
    }

    /// Trip if the deadline has passed.
    pub fn check(&self) -> Result<(), TripReason> {
        if self.expired() {
            Err(TripReason::Deadline {
                limit_ms: self.limit.as_millis() as u64,
            })
        } else {
            Ok(())
        }
    }

    /// The configured limit.
    pub fn limit(&self) -> Duration {
        self.limit
    }
}

/// Per-[`DepthKind`] recursion limits with high-water tracking.
///
/// A limit of `d` admits nesting up to and including depth `d`; entering
/// depth `d + 1` trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthGuard {
    limits: [Option<u32>; DEPTH_KINDS],
    cur: [u32; DEPTH_KINDS],
    high: [u32; DEPTH_KINDS],
}

impl DepthGuard {
    /// A guard with no limits (still tracks high-water depths).
    pub fn unlimited() -> Self {
        DepthGuard {
            limits: [None; DEPTH_KINDS],
            cur: [0; DEPTH_KINDS],
            high: [0; DEPTH_KINDS],
        }
    }

    /// Set the limit for one nesting dimension.
    pub fn with_limit(mut self, kind: DepthKind, limit: u32) -> Self {
        self.limits[kind.idx()] = Some(limit);
        self
    }

    /// Enter one nesting level; trips when the new depth exceeds the limit.
    pub fn enter(&mut self, kind: DepthKind) -> Result<(), TripReason> {
        let i = kind.idx();
        self.cur[i] += 1;
        self.high[i] = self.high[i].max(self.cur[i]);
        match self.limits[i] {
            Some(limit) if self.cur[i] > limit => Err(TripReason::Depth { kind, limit }),
            _ => Ok(()),
        }
    }

    /// Leave one nesting level.
    pub fn exit(&mut self, kind: DepthKind) {
        let i = kind.idx();
        self.cur[i] = self.cur[i].saturating_sub(1);
    }

    /// Current depth on `kind`.
    pub fn depth(&self, kind: DepthKind) -> u32 {
        self.cur[kind.idx()]
    }

    /// Deepest nesting observed on `kind`.
    pub fn high_water(&self, kind: DepthKind) -> u32 {
        self.high[kind.idx()]
    }

    /// Deepest nesting observed on any dimension.
    pub fn max_high_water(&self) -> u32 {
        self.high.iter().copied().max().unwrap_or(0)
    }
}

/// Per-[`GaugeKind`] memory caps with high-water tracking.
///
/// Gauges measure logical sizes (tuples, cells, states).  An observation
/// equal to the cap is admitted; exceeding it trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemGauge {
    limits: [Option<usize>; GAUGE_KINDS],
    high: [usize; GAUGE_KINDS],
}

impl MemGauge {
    /// A gauge with no caps (still tracks high-water marks).
    pub fn unlimited() -> Self {
        MemGauge {
            limits: [None; GAUGE_KINDS],
            high: [0; GAUGE_KINDS],
        }
    }

    /// Set the cap for one memory dimension.
    pub fn with_limit(mut self, kind: GaugeKind, limit: usize) -> Self {
        self.limits[kind.idx()] = Some(limit);
        self
    }

    /// Record an observation; trips when it exceeds the cap.
    #[inline]
    pub fn observe(&mut self, kind: GaugeKind, observed: usize) -> Result<(), TripReason> {
        let i = kind.idx();
        self.high[i] = self.high[i].max(observed);
        match self.limits[i] {
            Some(limit) if observed > limit => Err(TripReason::Mem {
                kind,
                limit,
                observed,
            }),
            _ => Ok(()),
        }
    }

    /// Highest observation recorded on `kind`.
    pub fn high_water(&self, kind: GaugeKind) -> usize {
        self.high[kind.idx()]
    }

    /// Highest observation recorded on any dimension.
    pub fn max_high_water(&self) -> usize {
        self.high.iter().copied().max().unwrap_or(0)
    }
}

/// The governance hooks every guarded evaluator calls.
///
/// The design mirrors `obs::Collector`: implementations with
/// `ENABLED = false` (i.e. [`NullGuard`]) have empty default methods that
/// monomorphize away entirely, so ungoverned runs pay nothing.  The real
/// implementation is [`ResourceGuard`].
///
/// Hook protocol:
/// * [`tick`](Guard::tick) — once per evaluator step (engine step, FO
///   binding, xTM step, alternation config, compile node, ...);
/// * [`enter`](Guard::enter)/[`exit`](Guard::exit) — around each recursion
///   level, keyed by [`DepthKind`];
/// * [`gauge`](Guard::gauge) — whenever a tracked size changes, keyed by
///   [`GaugeKind`];
/// * [`fault_at`](Guard::fault_at) — at fault-injection sites
///   ([`FaultSite::Transition`], [`FaultSite::Store`]); evaluators act on
///   the returned [`FaultKind`], if any.
pub trait Guard {
    /// Whether this guard does anything.  Evaluators may skip optional
    /// bookkeeping (not correctness checks) when this is `false`.
    const ENABLED: bool = true;

    /// Charge one unit of fuel and run the cheap per-step checks.
    fn tick(&mut self) -> Result<(), GuardError> {
        Ok(())
    }

    /// Charge `n` units of fuel at once (bulk loops).
    fn charge(&mut self, n: u64) -> Result<(), GuardError> {
        let _ = n;
        Ok(())
    }

    /// Enter one recursion level of `kind`.
    fn enter(&mut self, kind: DepthKind) -> Result<(), GuardError> {
        let _ = kind;
        Ok(())
    }

    /// Leave one recursion level of `kind`.
    fn exit(&mut self, kind: DepthKind) {
        let _ = kind;
    }

    /// Report a tracked size observation.
    fn gauge(&mut self, kind: GaugeKind, observed: usize) -> Result<(), GuardError> {
        let _ = (kind, observed);
        Ok(())
    }

    /// Roll for an injected fault at `site`.
    fn fault_at(&mut self, site: FaultSite) -> Option<FaultKind> {
        let _ = site;
        None
    }

    /// Snapshot of progress so far (fuel, depth, gauges).
    fn partial(&self) -> Partial {
        Partial::default()
    }
}

/// The do-nothing guard: every hook is a no-op and `ENABLED` is `false`,
/// so guarded code paths compile down to the unguarded ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullGuard;

impl Guard for NullGuard {
    const ENABLED: bool = false;
}

// Compile-time proof that the null guard is recognized as disabled.
const _: () = assert!(!NullGuard::ENABLED);

/// How many ticks pass between wall-clock deadline checks.
///
/// `Instant::now()` costs tens of nanoseconds; consulting it on every tick
/// would dominate small steps.  With a stride of 64 a run can overshoot its
/// deadline by at most 64 steps of work.
const DEADLINE_STRIDE: u64 = 64;

/// Whether a charge of `n` units that brought the fuel spent to `spent`
/// passed a multiple of [`DEADLINE_STRIDE`]: for one tick, whether `spent`
/// is one. A bulk charge thus consults the clock whenever the same fuel
/// spent tick by tick would have.
fn passes_stride(spent: u64, n: u64) -> bool {
    spent % DEADLINE_STRIDE < n
}

/// The real guard: composes a [`Budget`], an optional [`Deadline`], a
/// [`DepthGuard`], a [`MemGauge`], and an optional [`FaultPlan`].
///
/// Construct with [`ResourceGuard::unlimited`] and chain `with_*` calls:
///
/// ```
/// use std::time::Duration;
/// use twq_guard::{DepthKind, Guard, ResourceGuard};
///
/// let mut g = ResourceGuard::unlimited()
///     .with_budget(10_000)
///     .with_deadline(Duration::from_secs(5))
///     .with_depth_limit(DepthKind::Quantifier, 8);
/// assert!(g.tick().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ResourceGuard {
    budget: Budget,
    deadline: Option<Deadline>,
    depth: DepthGuard,
    mem: MemGauge,
    faults: Option<FaultPlan>,
}

impl ResourceGuard {
    /// A guard with no limits configured (it still meters everything, so
    /// [`ResourceGuard::partial`] is informative even on success).
    pub fn unlimited() -> Self {
        ResourceGuard {
            budget: Budget::unlimited(),
            deadline: None,
            depth: DepthGuard::unlimited(),
            mem: MemGauge::unlimited(),
            faults: None,
        }
    }

    /// Cap total fuel at `fuel` units (see [`Budget`] for the boundary
    /// semantics).
    pub fn with_budget(mut self, fuel: u64) -> Self {
        self.budget = Budget::limited(fuel);
        self
    }

    /// Expire the run `limit` after this call.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(Deadline::after(limit));
        self
    }

    /// Cap recursion on `kind` at `limit` levels.
    pub fn with_depth_limit(mut self, kind: DepthKind, limit: u32) -> Self {
        self.depth = self.depth.with_limit(kind, limit);
        self
    }

    /// Cap the `kind` gauge at `limit`.
    pub fn with_mem_limit(mut self, kind: GaugeKind, limit: usize) -> Self {
        self.mem = self.mem.with_limit(kind, limit);
        self
    }

    /// Inject faults according to `plan`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Fuel charged so far.
    pub fn fuel_spent(&self) -> u64 {
        self.budget.spent()
    }

    /// Deepest nesting observed on `kind`.
    pub fn depth_high_water(&self, kind: DepthKind) -> u32 {
        self.depth.high_water(kind)
    }

    /// Highest observation recorded on `kind`.
    pub fn gauge_high_water(&self, kind: GaugeKind) -> usize {
        self.mem.high_water(kind)
    }

    fn trip(&self, reason: TripReason) -> GuardError {
        GuardError::new(reason).with_partial(self.partial())
    }
}

impl Guard for ResourceGuard {
    fn tick(&mut self) -> Result<(), GuardError> {
        self.charge(1)
    }

    fn charge(&mut self, n: u64) -> Result<(), GuardError> {
        if let Err(r) = self.budget.charge(n) {
            return Err(self.trip(r));
        }
        if let Some(d) = self.deadline {
            if passes_stride(self.budget.spent(), n) {
                if let Err(r) = d.check() {
                    return Err(self.trip(r));
                }
            }
        }
        let rolled = self.faults.as_mut().and_then(|p| p.roll(FaultSite::Tick));
        match rolled {
            Some(FaultKind::FuelExhaustion) => {
                let limit = self.budget.spent();
                return Err(self
                    .trip(TripReason::Budget { limit })
                    .injected_by(FaultKind::FuelExhaustion));
            }
            Some(FaultKind::DeadlineExpiry) => {
                let limit_ms = self
                    .deadline
                    .map(|d| d.limit().as_millis() as u64)
                    .unwrap_or(0);
                return Err(self
                    .trip(TripReason::Deadline { limit_ms })
                    .injected_by(FaultKind::DeadlineExpiry));
            }
            _ => {}
        }
        Ok(())
    }

    fn enter(&mut self, kind: DepthKind) -> Result<(), GuardError> {
        self.depth.enter(kind).map_err(|r| self.trip(r))
    }

    fn exit(&mut self, kind: DepthKind) {
        self.depth.exit(kind);
    }

    fn gauge(&mut self, kind: GaugeKind, observed: usize) -> Result<(), GuardError> {
        self.mem.observe(kind, observed).map_err(|r| self.trip(r))
    }

    fn fault_at(&mut self, site: FaultSite) -> Option<FaultKind> {
        self.faults.as_mut().and_then(|p| p.roll(site))
    }

    fn partial(&self) -> Partial {
        Partial {
            fuel_spent: self.budget.spent(),
            max_depth: self.depth.max_high_water(),
            max_gauge: self.mem.max_high_water(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_boundary_exact() {
        let mut b = Budget::limited(3);
        assert!(b.charge(1).is_ok());
        assert!(b.charge(1).is_ok());
        assert!(b.charge(1).is_ok());
        assert_eq!(b.remaining(), Some(0));
        assert!(matches!(b.charge(1), Err(TripReason::Budget { limit: 3 })));
    }

    #[test]
    fn depth_boundary_exact() {
        let mut d = DepthGuard::unlimited().with_limit(DepthKind::Quantifier, 2);
        assert!(d.enter(DepthKind::Quantifier).is_ok());
        assert!(d.enter(DepthKind::Quantifier).is_ok());
        assert!(matches!(
            d.enter(DepthKind::Quantifier),
            Err(TripReason::Depth {
                kind: DepthKind::Quantifier,
                limit: 2
            })
        ));
        d.exit(DepthKind::Quantifier);
        d.exit(DepthKind::Quantifier);
        d.exit(DepthKind::Quantifier);
        assert_eq!(d.depth(DepthKind::Quantifier), 0);
        assert_eq!(d.high_water(DepthKind::Quantifier), 3);
        // Other kinds are unaffected.
        assert!(d.enter(DepthKind::Atp).is_ok());
    }

    #[test]
    fn gauge_boundary_exact() {
        let mut m = MemGauge::unlimited().with_limit(GaugeKind::TapeCells, 10);
        assert!(m.observe(GaugeKind::TapeCells, 10).is_ok());
        assert!(matches!(
            m.observe(GaugeKind::TapeCells, 11),
            Err(TripReason::Mem {
                kind: GaugeKind::TapeCells,
                limit: 10,
                observed: 11
            })
        ));
        assert_eq!(m.high_water(GaugeKind::TapeCells), 11);
    }

    #[test]
    fn resource_guard_reports_partial_on_trip() {
        let mut g = ResourceGuard::unlimited().with_budget(5);
        for _ in 0..5 {
            assert!(g.tick().is_ok());
        }
        let e = g.tick().unwrap_err();
        assert_eq!(e.reason, TripReason::Budget { limit: 5 });
        assert_eq!(e.partial.fuel_spent, 6);
    }

    #[test]
    fn deadline_checked_at_stride() {
        // An already-expired deadline trips at the first stride boundary.
        let mut g = ResourceGuard::unlimited().with_deadline(Duration::from_nanos(0));
        std::thread::sleep(Duration::from_millis(1));
        let mut tripped_at = None;
        for i in 1..=2 * DEADLINE_STRIDE {
            if g.tick().is_err() {
                tripped_at = Some(i);
                break;
            }
        }
        assert_eq!(tripped_at, Some(DEADLINE_STRIDE));
    }

    #[test]
    fn bulk_charges_check_the_deadline_when_they_pass_a_stride() {
        let mut g = ResourceGuard::unlimited().with_deadline(Duration::from_nanos(0));
        std::thread::sleep(Duration::from_millis(1));
        // 0 → 10 passes no multiple of the stride; 10 → 70 passes 64.
        assert!(g.charge(10).is_ok());
        let e = g.charge(60).unwrap_err();
        assert!(matches!(e.reason, TripReason::Deadline { .. }));
    }

    #[test]
    fn injected_fuel_exhaustion_is_marked() {
        let mut g =
            ResourceGuard::unlimited().with_faults(FaultPlan::seeded(0).fuel_rate(1_000_000));
        let e = g.tick().unwrap_err();
        assert_eq!(e.injected, Some(FaultKind::FuelExhaustion));
        assert!(matches!(e.reason, TripReason::Budget { .. }));
    }

    #[test]
    fn null_guard_is_free_and_disabled() {
        let mut g = NullGuard;
        const { assert!(!NullGuard::ENABLED) };
        assert!(g.tick().is_ok());
        assert!(g.enter(DepthKind::Alternation).is_ok());
        g.exit(DepthKind::Alternation);
        assert!(g.gauge(GaugeKind::Configs, usize::MAX).is_ok());
        assert_eq!(g.fault_at(FaultSite::Store), None);
        assert_eq!(g.partial(), Partial::default());
    }
}
