//! `twq-obs`: unified observability for every `twq` evaluator.
//!
//! The paper's results are statements about *resources* — steps, store
//! cardinalities, look-ahead depth, message counts. This crate gives every
//! evaluator one instrumentation seam to measure them:
//!
//! * [`Collector`] — the hook trait threaded through the hot loops.
//!   [`NullCollector`] (`ENABLED = false`) monomorphizes to the
//!   uninstrumented loop at zero cost; [`MetricsCollector`] records
//!   [`RunMetrics`]; a pair `(A, B)` of collectors feeds one run to both.
//! * [`RunMetrics`] — steps per state, `atp` depth and fan-out,
//!   register-store and cycle-check high-water marks, FO-evaluation call
//!   counts, tape cells, protocol messages, phase timings.
//! * `twq-prof` — the profiling layer on top of the seam:
//!   [`Histogram`] (log2-bucketed latencies), [`Registry`] (named
//!   counters/gauges/histograms with delta [`Snapshot`]s and JSONL
//!   export), [`FlameProfiler`] (a span-stack self-time profiler emitting
//!   flamegraph-collapsed stacks) and [`Tail`] (the last `N` hook calls,
//!   for post-mortems of `Stuck`/`Nondeterministic` halts) — both
//!   collectors.
//! * `twq-trace` — the causal trace layer: [`TraceCollector`] records a
//!   run as a [`Trace`] span tree with deterministic causal IDs, witness
//!   valuations, and walk paths; [`diff`] pinpoints the first
//!   [`Divergence`] between two traces of the same input; and
//!   [`explain_verdict`] answers "why accepted / why rejected".
//! * [`report`] — the experiment reporting layer: the same stream of
//!   tables rendered as aligned text or as JSON Lines, printed through
//!   [`write_stdout`], which ends the program quietly when stdout's reader
//!   has gone away.
//! * [`json`] — a small self-contained JSON value/writer/parser (the
//!   build environment is offline, so no `serde_json`).
//!
//! The crate deliberately depends on nothing, not even the other `twq`
//! crates: evaluators describe themselves in primitive terms (state ids,
//! node indices, halt kinds), so `twq-obs` sits below every other crate
//! in the dependency order.

#![warn(missing_docs)]

pub mod collect;
pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod report;
pub mod trace;

pub use collect::{Collector, MetricsCollector, NullCollector, PhaseTimer};
pub use event::{FoEval, HaltKind};
pub use hist::Histogram;
pub use json::Json;
pub use metrics::RunMetrics;
pub use profile::{FlameProfiler, Tail};
pub use registry::{Registry, Snapshot};
pub use report::{col, write_stdout, Cell, Col, HumanReporter, JsonlReporter, Reporter};
pub use trace::{
    diff, explain_verdict, Divergence, Namer, Span, SpanKind, Trace, TraceCollector, TraceDepth,
    Verdict,
};
