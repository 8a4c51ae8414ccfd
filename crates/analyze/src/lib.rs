//! # twq-analyze — static analysis for tree-walking programs
//!
//! Neven's classification theorems are *syntactic*: where a `tw^{r,l}`
//! program sits in Definition 5.1's restriction lattice decides its
//! complexity class (LOGSPACE / PTIME / PSPACE / EXPTIME, Theorem 7.1)
//! before a single step is walked. This crate turns that observation
//! into a multi-pass static analyzer over [`TwProgram`]s:
//!
//! 1. **Control flow** ([`mod@cfg`]) — forward/backward reachability
//!    over the state graph (chain edges plus `atp`-spawn edges); dead
//!    states and guaranteed-rejecting states, plus the
//!    semantics-preserving [`prune()`](prune()) rewrite.
//! 2. **Guard overlap** ([`overlap`]) — pairs of rules on one dispatch
//!    key whose guards are not mutually exclusive (the static shadow of
//!    `Halt::Nondeterministic`), and unsatisfiable guards.
//! 3. **Store analysis** ([`regs`]) — register liveness and arity/use
//!    consistency (the builder checks that registers exist; only the
//!    analyzer checks how atoms apply them).
//! 4. **Progress** ([`progress`]) — control-flow cycles with no
//!    head-movement or store-growth witness: statically flagged
//!    divergence, complementing the runtime budgets of `twq-guard`.
//! 5. **Class inference** ([`classes`]) — the Definition 5.1 lattice
//!    with per-axis evidence, and [`certify`] / [`run_checked`] gating
//!    evaluators with
//!    [`TwqError::Invalid`](twq_guard::TwqError) on violations.
//!
//! Every pass reports structured [`Diagnostic`]s; `twq lint` (the `lint`
//! binary) and `experiments --analyze` render them as human tables or
//! JSONL records through the `twq-obs` reporting layer.

pub mod cfg;
pub mod classes;
pub mod diag;
pub mod fold;
pub mod overlap;
pub mod progress;
pub mod prune;
pub mod regs;
pub mod route;
pub mod zoo;

pub use cfg::Cfg;
pub use classes::{certify, infer, ClassInference, LookAheadUse, StorageUse};
pub use diag::{severity_counts, Diagnostic, Loc, Severity};
pub use prune::{prune, Pruned};
pub use route::{route, run_checked, run_routed, EvaluatorChoice, Routed};
pub use zoo::{lint_zoo, ZooEntry};

use twq_automata::{TwClass, TwProgram};

/// The combined result of every pass.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All diagnostics, ordered by pass (CFG, overlap, store, progress,
    /// class) and severity-stable within each.
    pub diagnostics: Vec<Diagnostic>,
    /// The control-flow reachability closures.
    pub cfg: Cfg,
    /// The inferred class with evidence.
    pub inference: ClassInference,
}

impl Analysis {
    /// Whether any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }
}

/// Run every pass (no class requirement).
pub fn analyze(prog: &TwProgram) -> Analysis {
    analyze_for_class(prog, None)
}

/// Run every pass, additionally certifying against `required` when
/// given (a violation appears as a `CL001` error diagnostic).
pub fn analyze_for_class(prog: &TwProgram, required: Option<TwClass>) -> Analysis {
    let cfg = Cfg::build(prog);
    let mut diagnostics = cfg::pass(prog, &cfg);
    diagnostics.extend(overlap::pass(prog, &cfg));
    diagnostics.extend(regs::pass(prog));
    diagnostics.extend(progress::pass(prog, &cfg));
    if let Some(target) = required {
        diagnostics.extend(classes::violation_diagnostic(prog, target));
    }
    let inference = infer(prog);
    Analysis {
        diagnostics,
        cfg,
        inference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_tree::Vocab;

    #[test]
    fn the_zoo_triggers_every_pass() {
        let mut vocab = Vocab::new();
        for entry in lint_zoo(&mut vocab) {
            let analysis = analyze_for_class(&entry.program, Some(entry.against));
            let codes: Vec<_> = analysis.diagnostics.iter().map(|d| d.code).collect();
            assert!(
                codes.contains(&entry.expect_code),
                "zoo entry `{}` expected {}, got {codes:?}",
                entry.name,
                entry.expect_code
            );
        }
    }

    #[test]
    fn example_32_is_clean_and_classified() {
        let mut vocab = Vocab::new();
        let ex = twq_automata::examples::example_32(&mut vocab);
        let analysis = analyze(&ex.program);
        assert!(!analysis.has_errors());
        assert_eq!(analysis.inference.class, ex.program.classify());
    }
}
