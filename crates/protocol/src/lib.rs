//! # twq-protocol — the inexpressibility machinery of Section 4
//!
//! Everything behind Theorem 4.1 ("tw^{r,l} cannot simulate FO"):
//!
//! * [`hyperset`] — `i`-hypersets over `D` and their marker-delimited,
//!   deliberately non-canonical string encodings;
//! * [`lm`] — the language `L^m` (`f#g` with `H(f) = H(g)`), a direct
//!   decoder-based membership test, and the FO sentence construction of
//!   Lemma 4.2;
//! * [`protocol`] — the Lemma 4.5 two-party communication protocol: a
//!   `tw^{r,l}` program on a split string is executed with every
//!   boundary-crossing event accounted as a protocol message;
//! * [`counting`] — the Lemma 4.6 counting argument: tower arithmetic,
//!   hyperset counts vs. dialogue bounds, and a concrete pigeonhole
//!   demonstration.

pub mod counting;
pub mod hyperset;
pub mod lm;
pub mod protocol;

pub use counting::{
    counting_table, dialogue_count_bound, exp_tower, find_dialogue_collision, hyperset_count,
    tower_display, CountRow,
};
pub use hyperset::{
    decode, encode, encode_shuffled, random_hyperset, HyperGenConfig, HyperSet, Markers,
};
pub use lm::{in_lm, lm_sentence, split, split_string_tree};
pub use protocol::{
    at_most_k_values_program, oracle_at_most_k_values, run_protocol, run_protocol_in, Msg, Party,
    ProtocolReport,
};
