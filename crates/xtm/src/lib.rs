//! # twq-xtm — XML Turing machines
//!
//! The machine model of Section 6 of Neven (PODS 2002): Turing machines
//! operating **directly on attributed trees** (adapted from the domain
//! Turing machines of Hull & Su), the yardstick against which the
//! tree-walking classes of Theorem 7.1 are measured.
//!
//! * [`machine`] — the `xTM` model: tree walker + registers + one-way
//!   infinite work tape; deterministic runner with step/space meters
//!   (`LOGSPACE^X`, `PTIME^X`, `PSPACE^X`, `EXPTIME^X` are meter bounds);
//! * [`alternating`] — game-semantics evaluation of alternating machines
//!   (the `A…^X` classes);
//! * [`machines`] — a library of concrete machines with oracles,
//!   including the binary-tape logspace machines consumed by the
//!   Theorem 7.1(1) pebble compiler in `twq-sim`;
//! * [`encode`](mod@encode) — canonical string encodings of attributed trees
//!   (Theorem 6.2), with value numbering by first occurrence;
//! * [`tm`] — ordinary single-tape TMs over the encodings, for the
//!   xTM ≙ TM agreement experiments.

pub mod alternating;
pub mod encode;
pub mod machine;
pub mod machines;
pub mod tm;

pub use alternating::{run_alternating, run_alternating_guarded, AltReport};
pub use encode::{decode, encode, to_bytes, Token};
pub use machine::{
    run_xtm, run_xtm_in, run_xtm_on_tree, HeadMove, Mode, TreeDir, XGuard, XRegOp, XState, Xtm,
    XtmBuilder, XtmConfig, XtmHalt, XtmLimits, XtmReport, XtmRule, BLANK,
};
pub use tm::{run_tm, Tm, TmBuilder, TmHalt, TmMove, TmReport, TmState};
