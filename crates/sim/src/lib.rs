//! # twq-sim — the constructive simulations of Section 7
//!
//! Executable versions of the proof constructions in Neven (PODS 2002):
//!
//! * [`logspace`] — Theorem 7.1(1): `LOGSPACE^X` xTMs compiled to `TW`
//!   pebble walkers (tape content as a pre-order position, pebble
//!   arithmetic by walking);
//! * [`pspace`] — Theorem 7.1(3): `PSPACE^X` xTMs compiled to `tw^r`
//!   programs (tape encoded in the relational store, FO step function);
//! * [`noattr`] — Proposition 7.2: when `A = ∅`, register/store contents
//!   are foldable into states — the `tw^r → tw` product construction;
//! * [`alternation`] — the alternation direction of Theorem 7.1(2):
//!   tape-free alternating xTMs compiled to `tw^l`, branch verdicts
//!   returned through `atp` subcomputations.

pub mod alternation;
pub mod logspace;
pub mod noattr;
pub mod pspace;

pub use alternation::{
    compile_alternating, compile_alternating_guarded, AltCompileError, AltProgram,
};
pub use logspace::{
    compile_logspace, compile_logspace_checked, compile_logspace_guarded, CompileError,
    PebbleProgram,
};
pub use noattr::{delta_count_mod3, eliminate_store, eliminate_store_guarded, ElimError};
pub use pspace::{compile_pspace, compile_pspace_checked, compile_pspace_guarded, StoreProgram};

use twq_guard::{GaugeKind, Guard, TwqError};
use twq_xtm::Xtm;

/// The `compile_*_guarded` prologue: compilation is linear in the rule
/// count, so one fuel unit per source rule, then the machine's state count
/// gauged as [`GaugeKind::ProductStates`].
fn charge_compile<G: Guard>(machine: &Xtm, guard: &mut G) -> Result<(), TwqError> {
    if G::ENABLED {
        for _ in machine.rules() {
            guard.tick().map_err(TwqError::Guard)?;
        }
        guard
            .gauge(GaugeKind::ProductStates, machine.state_count())
            .map_err(TwqError::Guard)?;
    }
    Ok(())
}
