//! Cross-worker governance: an atomic fuel pool and the guard that
//! shares it.
//!
//! The batch entry points (`engine::run_batch`, `logic::select_batch`, …)
//! fan work across a thread pool, but a budget of `n` units should mean
//! *`n` units total*, not `n` per worker. [`SharedBudget`] is the atomic
//! counterpart of [`Budget`](crate::Budget): clones share one counter, and
//! the same boundary semantics hold globally — the charge that makes the
//! cumulative total exceed the limit trips, on whichever worker it lands.
//!
//! [`SharedGuard`] composes a [`SharedBudget`] with the shareable pieces of
//! [`ResourceGuard`](crate::ResourceGuard) — a wall-clock [`Deadline`] and
//! a [`CancelToken`] — plus *per-clone* depth and memory guards (recursion
//! nesting and gauge high-waters are per-worker by nature). Clone one per
//! worker before the fan-out:
//!
//! ```
//! use twq_guard::{Guard, SharedGuard};
//!
//! let master = SharedGuard::unlimited().with_budget(1_000);
//! let mut worker_a = master.clone();
//! let mut worker_b = master.clone();
//! worker_a.tick().unwrap();
//! worker_b.tick().unwrap();
//! assert_eq!(master.fuel_spent(), 2); // one shared pool
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::faults::{FaultKind, FaultSite};
use crate::res::{passes_stride, CancelToken, Deadline, DepthGuard, MemGauge};
use crate::{DepthKind, GaugeKind, Guard, GuardError, Partial, TripReason};

/// An atomic fuel counter shared by every clone.
///
/// Boundary semantics match [`Budget`](crate::Budget) exactly, but
/// globally: a limit of `n` admits exactly `n` charged units *summed over
/// all clones*; the single charge that crosses the boundary trips (each
/// `fetch_add` observes a unique cumulative total, so exactly one worker
/// sees the crossing value).
#[derive(Debug, Clone)]
pub struct SharedBudget {
    limit: Option<u64>,
    spent: Arc<AtomicU64>,
}

impl SharedBudget {
    /// A shared budget admitting exactly `limit` units in total.
    pub fn limited(limit: u64) -> Self {
        SharedBudget {
            limit: Some(limit),
            spent: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A shared budget that never trips (still counts fuel).
    pub fn unlimited() -> Self {
        SharedBudget {
            limit: None,
            spent: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Charge `n` units; trips when the cumulative total exceeds the limit.
    pub fn charge(&self, n: u64) -> Result<(), TripReason> {
        let after = self.spent.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        match self.limit {
            Some(limit) if after > limit => Err(TripReason::Budget { limit }),
            _ => Ok(()),
        }
    }

    /// Fuel charged so far, across all clones.
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// Fuel left before the budget trips (`None` when unlimited).
    pub fn remaining(&self) -> Option<u64> {
        self.limit.map(|l| l.saturating_sub(self.spent()))
    }

    /// The configured limit (`None` when unlimited).
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }
}

/// A [`Guard`] whose fuel budget, deadline, and cancellation are shared by
/// every clone, for governing one logical computation fanned across a
/// thread pool.
///
/// Depth and gauge tracking are per-clone (recursion nesting is a
/// per-worker property). Fault injection is not supported here — fault
/// plans are seeded sequences whose replay order would depend on thread
/// interleaving; inject faults on serial runs where they are reproducible.
#[derive(Debug, Clone)]
pub struct SharedGuard {
    budget: SharedBudget,
    deadline: Option<Deadline>,
    cancel: Option<CancelToken>,
    depth: DepthGuard,
    mem: MemGauge,
}

impl SharedGuard {
    /// A guard with no limits configured (still meters everything).
    pub fn unlimited() -> Self {
        SharedGuard {
            budget: SharedBudget::unlimited(),
            deadline: None,
            cancel: None,
            depth: DepthGuard::unlimited(),
            mem: MemGauge::unlimited(),
        }
    }

    /// Cap total fuel across all clones at `fuel` units.
    pub fn with_budget(mut self, fuel: u64) -> Self {
        self.budget = SharedBudget::limited(fuel);
        self
    }

    /// Share an existing fuel pool (e.g. one also charged by other guards).
    pub fn with_shared_budget(mut self, budget: SharedBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Expire every clone `limit` after this call.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(Deadline::after(limit));
        self
    }

    /// Trip every clone once `token` is cancelled.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Cap recursion on `kind` at `limit` levels (per clone).
    pub fn with_depth_limit(mut self, kind: DepthKind, limit: u32) -> Self {
        self.depth = self.depth.with_limit(kind, limit);
        self
    }

    /// Cap the `kind` gauge at `limit` (per clone).
    pub fn with_mem_limit(mut self, kind: GaugeKind, limit: usize) -> Self {
        self.mem = self.mem.with_limit(kind, limit);
        self
    }

    /// Fuel charged so far across all clones.
    pub fn fuel_spent(&self) -> u64 {
        self.budget.spent()
    }

    /// The shared fuel pool, for wiring into further guards.
    pub fn budget(&self) -> &SharedBudget {
        &self.budget
    }

    fn trip(&self, reason: TripReason) -> GuardError {
        GuardError::new(reason).with_partial(self.partial())
    }
}

impl Guard for SharedGuard {
    fn tick(&mut self) -> Result<(), GuardError> {
        self.charge(1)
    }

    fn charge(&mut self, n: u64) -> Result<(), GuardError> {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Err(self.trip(TripReason::Cancelled));
            }
        }
        if let Err(r) = self.budget.charge(n) {
            return Err(self.trip(r));
        }
        if let Some(d) = &self.deadline {
            // Same stride as `ResourceGuard`: `Instant::now` is too
            // expensive for every tick.
            if passes_stride(self.budget.spent(), n) {
                if let Err(r) = d.check() {
                    return Err(self.trip(r));
                }
            }
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

    fn fault_at(&mut self, _site: FaultSite) -> Option<FaultKind> {
        None
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
    fn shared_budget_boundary_exact_across_clones() {
        let a = SharedBudget::limited(3);
        let b = a.clone();
        assert!(a.charge(1).is_ok());
        assert!(b.charge(1).is_ok());
        assert!(a.charge(1).is_ok());
        assert_eq!(b.remaining(), Some(0));
        assert!(matches!(b.charge(1), Err(TripReason::Budget { limit: 3 })));
        assert_eq!(a.spent(), 4);
    }

    #[test]
    fn exactly_one_concurrent_charge_trips() {
        // 8 threads × 100 ticks against a budget of 500: the cumulative
        // totals 1..=800 are observed exactly once each, so exactly 300
        // charges trip — whichever threads they land on.
        let budget = SharedBudget::limited(500);
        let trips: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let b = budget.clone();
                    s.spawn(move || (0..100).filter(|_| b.charge(1).is_err()).count() as u64)
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(trips, 300);
        assert_eq!(budget.spent(), 800);
    }

    #[test]
    fn shared_guard_pools_fuel() {
        let master = SharedGuard::unlimited().with_budget(5);
        let mut a = master.clone();
        let mut b = master.clone();
        for _ in 0..3 {
            assert!(a.tick().is_ok());
        }
        assert!(b.tick().is_ok());
        assert!(b.tick().is_ok());
        let e = b.tick().unwrap_err();
        assert_eq!(e.reason, TripReason::Budget { limit: 5 });
        assert_eq!(e.partial.fuel_spent, 6);
        assert_eq!(master.fuel_spent(), 6);
    }

    #[test]
    fn cancel_reaches_every_clone() {
        let tok = CancelToken::new();
        let master = SharedGuard::unlimited().with_cancel(tok.clone());
        let mut a = master.clone();
        let mut b = master.clone();
        assert!(a.tick().is_ok());
        tok.cancel();
        assert_eq!(a.tick().unwrap_err().reason, TripReason::Cancelled);
        assert_eq!(b.tick().unwrap_err().reason, TripReason::Cancelled);
    }

    #[test]
    fn depth_is_per_clone() {
        let master = SharedGuard::unlimited().with_depth_limit(DepthKind::Quantifier, 1);
        let mut a = master.clone();
        let mut b = master.clone();
        assert!(a.enter(DepthKind::Quantifier).is_ok());
        // b's nesting is independent of a's.
        assert!(b.enter(DepthKind::Quantifier).is_ok());
        assert!(a.enter(DepthKind::Quantifier).is_err());
    }
}
