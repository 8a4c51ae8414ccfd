//! Resource governance and fault injection for every twq evaluator.
//!
//! Neven's constructions deliberately span LOGSPACE through EXPTIME, so
//! several evaluators in this workspace are *designed* to blow up on
//! adversarial inputs: naive FO evaluation is `O(|t|^q)` in the quantifier
//! depth `q`, the alternating xTM simulation explores an exponential
//! configuration space, and xTM tapes grow with the encoding length.  The
//! core engine already bounds itself with `Limits`/`Halt`; this crate
//! generalizes that idea into a governance layer that every crate shares:
//!
//! * [`Budget`] — a fuel counter charged once per evaluator step,
//! * [`Deadline`] — a wall-clock cut-off checked at amortized cost,
//! * [`DepthGuard`] — recursion limits keyed by [`DepthKind`] (atp nesting,
//!   FO quantifier nesting, xTM alternation, XPath compilation, query
//!   evaluation),
//! * [`MemGauge`] — high-water marks, optionally capped, keyed by
//!   [`GaugeKind`] (store tuples, chain configurations, tape cells, product
//!   states, relation sizes).
//!
//! Guards are never shared: a parallel batch (see `twq-exec`) builds a
//! fresh guard per item, so each item's fuel accounting is the serial
//! run's.
//!
//! All of these compose behind the [`Guard`] trait, which mirrors the
//! `obs::Collector` design: [`NullGuard`] has `ENABLED = false` and
//! monomorphizes to nothing (verified by the `guard_overhead` bench), while
//! [`ResourceGuard`] enforces whichever limits were configured and records
//! what was computed before a trip in a [`Partial`] snapshot.
//!
//! Trips surface as a structured [`GuardError`] wrapped in the workspace-wide
//! [`TwqError`] taxonomy, which also replaces the public-API
//! `unwrap()`/`panic!` calls the evaluators used to abort with.
//!
//! Finally, [`faults::FaultPlan`] provides *deterministic* fault injection —
//! seeded probabilistic fuel exhaustion, forced deadline expiry, dropped
//! transitions, and store corruption — so chaos tests can assert the
//! panic-free, bounded-time contract for arbitrary programs and trees.
//!
//! Like `twq-obs`, this crate deliberately depends on nothing.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
pub mod faults;
mod res;

pub use error::{DepthKind, GaugeKind, GuardError, Partial, TripReason, TwqError};
pub use faults::{FaultKind, FaultPlan, FaultPlanParseError, FaultSite};
pub use res::{Budget, Deadline, DepthGuard, Guard, MemGauge, NullGuard, ResourceGuard};
