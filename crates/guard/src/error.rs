//! The structured error taxonomy shared by every evaluator.

use crate::faults::FaultKind;
use std::fmt;

/// Recursion dimensions tracked by a [`DepthGuard`](crate::DepthGuard).
///
/// Each evaluator nests along a different axis; keeping them separate lets a
/// caller bound, say, FO quantifier nesting tightly while leaving atp
/// nesting at the engine default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepthKind {
    /// Atp subcomputation nesting in the tree-walking engine and the
    /// Lemma 4.5 protocol (generalizes `Limits::max_atp_depth`).
    Atp,
    /// FO quantifier nesting in the naive `logic::eval` evaluator.
    Quantifier,
    /// Alternation recursion in the alternating xTM simulation.
    Alternation,
    /// Recursive descent during XPath (and walker-IR) compilation.
    Compile,
    /// Recursive descent during XPath query evaluation.
    Query,
}

/// Number of [`DepthKind`] variants (array-table size).
pub(crate) const DEPTH_KINDS: usize = 5;

impl DepthKind {
    /// All variants, in table order.
    pub const ALL: [DepthKind; DEPTH_KINDS] = [
        DepthKind::Atp,
        DepthKind::Quantifier,
        DepthKind::Alternation,
        DepthKind::Compile,
        DepthKind::Query,
    ];

    pub(crate) fn idx(self) -> usize {
        match self {
            DepthKind::Atp => 0,
            DepthKind::Quantifier => 1,
            DepthKind::Alternation => 2,
            DepthKind::Compile => 3,
            DepthKind::Query => 4,
        }
    }

    /// Short human-readable name (`atp`, `quantifier`, ...).
    pub fn name(self) -> &'static str {
        match self {
            DepthKind::Atp => "atp",
            DepthKind::Quantifier => "quantifier",
            DepthKind::Alternation => "alternation",
            DepthKind::Compile => "compile",
            DepthKind::Query => "query",
        }
    }
}

/// Memory dimensions tracked by a [`MemGauge`](crate::MemGauge).
///
/// These are *logical* sizes (tuples, cells, states), not bytes: they are
/// what the paper's space analyses count, and they are exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GaugeKind {
    /// Tuples in a register store (engine / protocol).
    StoreTuples,
    /// Distinct chain configurations retained for cycle detection, or memo
    /// entries in the alternating simulation.
    Configs,
    /// xTM tape length in cells.
    TapeCells,
    /// Product states materialized by store elimination (`sim::noattr`).
    ProductStates,
    /// Intermediate relation size during query evaluation.
    Relation,
}

/// Number of [`GaugeKind`] variants (array-table size).
pub(crate) const GAUGE_KINDS: usize = 5;

impl GaugeKind {
    /// All variants, in table order.
    pub const ALL: [GaugeKind; GAUGE_KINDS] = [
        GaugeKind::StoreTuples,
        GaugeKind::Configs,
        GaugeKind::TapeCells,
        GaugeKind::ProductStates,
        GaugeKind::Relation,
    ];

    pub(crate) fn idx(self) -> usize {
        match self {
            GaugeKind::StoreTuples => 0,
            GaugeKind::Configs => 1,
            GaugeKind::TapeCells => 2,
            GaugeKind::ProductStates => 3,
            GaugeKind::Relation => 4,
        }
    }

    /// Short human-readable name (`store-tuples`, `tape-cells`, ...).
    pub fn name(self) -> &'static str {
        match self {
            GaugeKind::StoreTuples => "store-tuples",
            GaugeKind::Configs => "configs",
            GaugeKind::TapeCells => "tape-cells",
            GaugeKind::ProductStates => "product-states",
            GaugeKind::Relation => "relation",
        }
    }
}

/// Which governed resource tripped.
///
/// This generalizes the limit arms of the engine's `Halt` enum
/// (`StepLimit` ↦ [`Budget`](TripReason::Budget), `AtpDepthLimit` ↦
/// [`Depth`](TripReason::Depth) with [`DepthKind::Atp`]) and adds the
/// dimensions the other evaluators need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripReason {
    /// The fuel budget ran out after `limit` charged units.
    Budget {
        /// Configured fuel limit.
        limit: u64,
    },
    /// The wall-clock deadline expired.
    Deadline {
        /// Configured deadline in milliseconds.
        limit_ms: u64,
    },
    /// A recursion limit was exceeded.
    Depth {
        /// Which nesting dimension tripped.
        kind: DepthKind,
        /// Configured depth limit.
        limit: u32,
    },
    /// A memory high-water cap was exceeded.
    Mem {
        /// Which memory dimension tripped.
        kind: GaugeKind,
        /// Configured cap.
        limit: usize,
        /// Observed value that exceeded the cap.
        observed: usize,
    },
}

impl fmt::Display for TripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripReason::Budget { limit } => write!(f, "fuel budget exhausted (limit {limit})"),
            TripReason::Deadline { limit_ms } => {
                write!(f, "deadline expired (limit {limit_ms} ms)")
            }
            TripReason::Depth { kind, limit } => {
                write!(f, "{} depth limit exceeded (limit {limit})", kind.name())
            }
            TripReason::Mem {
                kind,
                limit,
                observed,
            } => write!(
                f,
                "{} cap exceeded (observed {observed}, limit {limit})",
                kind.name()
            ),
        }
    }
}

/// Snapshot of how far a computation got before a guard tripped.
///
/// This is the `Result`-world analogue of the engine returning a `RunReport`
/// whose `halt.is_limit()` holds: callers always learn what *was* computed.
/// Evaluators overwrite these fields with their own (more precise) counters
/// before surfacing the error when they can.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Partial {
    /// Fuel units charged before the trip (steps, atoms, configs, ...).
    pub fuel_spent: u64,
    /// Deepest nesting reached on the dimension that tripped (or overall).
    pub max_depth: u32,
    /// Highest memory gauge observed on the dimension that tripped.
    pub max_gauge: usize,
}

/// A structured guard trip: what tripped, whether a fault injected it, and
/// how far the computation got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardError {
    /// Which resource limit tripped.
    pub reason: TripReason,
    /// `Some(kind)` when the trip was injected by a
    /// [`FaultPlan`](crate::faults::FaultPlan) rather than a genuine limit.
    pub injected: Option<FaultKind>,
    /// Progress made before the trip.
    pub partial: Partial,
}

impl GuardError {
    /// A genuine (non-injected) trip with an empty progress snapshot.
    pub fn new(reason: TripReason) -> Self {
        GuardError {
            reason,
            injected: None,
            partial: Partial::default(),
        }
    }

    /// Mark this trip as injected by a fault plan.
    pub fn injected_by(mut self, kind: FaultKind) -> Self {
        self.injected = Some(kind);
        self
    }

    /// Attach a progress snapshot.
    pub fn with_partial(mut self, partial: Partial) -> Self {
        self.partial = partial;
        self
    }

    /// True when the trip came from fault injection, not a real limit.
    pub fn is_injected(&self) -> bool {
        self.injected.is_some()
    }
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)?;
        if let Some(k) = self.injected {
            write!(f, " [injected: {}]", k.name())?;
        }
        write!(f, " after {} fuel units", self.partial.fuel_spent)
    }
}

impl std::error::Error for GuardError {}

/// The workspace-wide error type returned by every guarded evaluator entry
/// point.
///
/// Public APIs that used to `unwrap()`/`panic!` on malformed input now
/// return [`TwqError::Invalid`] or [`TwqError::Unsupported`]; resource trips
/// surface as [`TwqError::Guard`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwqError {
    /// A resource guard tripped (budget, deadline, depth, memory).
    Guard(GuardError),
    /// The input was malformed (unbound variable, missing builder field,
    /// un-encodable label, ...).
    Invalid {
        /// Which entry point rejected the input.
        context: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// The input was well-formed but outside the fragment this evaluator or
    /// compiler handles (e.g. a machine that is not register-free).
    Unsupported {
        /// Which entry point rejected the input.
        context: &'static str,
        /// Which restriction was violated.
        detail: String,
    },
}

impl TwqError {
    /// Construct an [`TwqError::Invalid`] error.
    pub fn invalid(context: &'static str, detail: impl Into<String>) -> Self {
        TwqError::Invalid {
            context,
            detail: detail.into(),
        }
    }

    /// Construct an [`TwqError::Unsupported`] error.
    pub fn unsupported(context: &'static str, detail: impl Into<String>) -> Self {
        TwqError::Unsupported {
            context,
            detail: detail.into(),
        }
    }

    /// The guard trip behind this error, if it is one.
    pub fn guard(&self) -> Option<&GuardError> {
        match self {
            TwqError::Guard(g) => Some(g),
            _ => None,
        }
    }

    /// True when this error is a resource trip (the analogue of
    /// `Halt::is_limit()`): the computation was cut short, not wrong.
    pub fn is_limit(&self) -> bool {
        matches!(self, TwqError::Guard(_))
    }
}

impl fmt::Display for TwqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwqError::Guard(g) => write!(f, "guard trip: {g}"),
            TwqError::Invalid { context, detail } => {
                write!(f, "invalid input to {context}: {detail}")
            }
            TwqError::Unsupported { context, detail } => {
                write!(f, "unsupported by {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for TwqError {}

impl From<GuardError> for TwqError {
    fn from(g: GuardError) -> Self {
        TwqError::Guard(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GuardError::new(TripReason::Budget { limit: 10 }).with_partial(Partial {
            fuel_spent: 10,
            max_depth: 2,
            max_gauge: 7,
        });
        let s = e.to_string();
        assert!(s.contains("budget"), "{s}");
        assert!(s.contains("10"), "{s}");

        let t: TwqError = e.into();
        assert!(t.is_limit());
        assert_eq!(t.guard().unwrap().partial.fuel_spent, 10);

        let inv = TwqError::invalid("logic::eval_atom", "unbound variable x1");
        assert!(!inv.is_limit());
        assert!(inv.to_string().contains("unbound variable"));
    }

    #[test]
    fn injected_marker_survives_display() {
        let e = GuardError::new(TripReason::Deadline { limit_ms: 5 })
            .injected_by(FaultKind::DeadlineExpiry);
        assert!(e.is_injected());
        assert!(e.to_string().contains("injected"));
    }

    #[test]
    fn kind_tables_are_consistent() {
        for (i, k) in DepthKind::ALL.iter().enumerate() {
            assert_eq!(k.idx(), i);
        }
        for (i, k) in GaugeKind::ALL.iter().enumerate() {
            assert_eq!(k.idx(), i);
        }
    }
}
