//! # twq-rw — query-level static analysis
//!
//! The rewrite layer in front of every evaluator: canonical normal forms
//! for the paper's XPath fragment and prenex FO(∃*), a semantics-
//! preserving rewrite engine with a named-rule catalog, conservative
//! emptiness + containment checking for the downward fragment (after
//! Hellings et al.), and a **streamability certification pass** — the
//! query-level face of the paper's bounded-configuration argument (§7).
//!
//! * [`rules`] — the [`RwRule`] catalog; every rule carries its own
//!   proptest equivalence obligation in `tests/rewrite.rs`;
//! * [`norm`] — the bottom-up fixpoint engine and [`normalize`];
//! * [`contain`] — [`provably_empty`] and [`contains`] (sound,
//!   incomplete, brute-force-verified on bounded random trees);
//! * [`stream`] — [`certify`] into [`Certificate`], plus the one-pass
//!   [`stream_select`] evaluator that validates certificates;
//! * [`fo`] — FO / FO(∃*) normal forms ([`normalize_formula`],
//!   [`normalize_exists`]);
//! * [`route`] — certificate-aware planning ([`plan_query`],
//!   [`run_query_planned`]) and cost-based index planning
//!   ([`plan_indexed`], [`run_query_indexed`]);
//! * [`diag`] — the `RW`/`ST` diagnostic codes extending the
//!   `twq-analyze` taxonomy to queries.
//!
//! Every stage hands its output to the plain evaluators unchanged: rewrite
//! once with [`rewrite`] (or [`rewrite_in`]), then call `eval_from`,
//! `eval_pairs` or `xpath_to_program` on [`Rewritten::output`] — skipping
//! the call when [`Rewritten::provably_empty`] holds, since the answer is
//! then empty. FO callers evaluate [`normalize_formula`]`(f)` with
//! `eval_sentence` / `select`. The composite entry points above are the
//! only calls that chain stages for the caller.
//!
//! What a rewrite did is part of its result: [`Rewritten::fired`] lists
//! each rule that fired by name, [`Rewritten::pruned_branches`] counts the
//! union branches it deleted, and [`Rewritten::certificate`] says whether
//! the normal form streams. [`Rewritten::diagnostics`] derives the `RW`/`ST`
//! findings from these on demand.
//!
//! A rewrite copies only what it returns. The engine borrows the query
//! and rebuilds just the subterms a rule changes, the union and emptiness
//! checks read borrowed spines and label sets, fire counts go to an array
//! indexed by catalog position, and the certificate counts the streaming
//! NFA's states without building it. A query already in normal form costs
//! the two copies in the record, [`Rewritten::input`] and
//! [`Rewritten::output`].

pub mod contain;
pub mod diag;
pub mod fo;
pub mod norm;
pub mod route;
pub mod rules;
pub mod stream;

use twq_xpath::XPath;

pub use contain::{contains, is_self_relation, pred_tautology, provably_empty, RewriteCtx};
pub use diag::{query_severity_counts, QueryDiagnostic, Severity};
pub use fo::{normalize_exists, normalize_formula};
pub use norm::{apply_rule_deep, normalize, normalize_in, normalize_seeded};
pub use route::{
    plan_indexed, plan_query, run_query_indexed, run_query_planned, IndexedEvaluator, IndexedPlan,
    PlannedEvaluator, QueryPlan,
};
pub use rules::{rule, RwRule, CATALOG};
pub use stream::{certify, stream_select, stream_select_gauged, Certificate, StreamStats};

/// The record of one rewrite: what went in, what came out, which rules
/// fired and what the certificate says.
#[derive(Debug)]
pub struct Rewritten {
    /// The query as given.
    pub input: XPath,
    /// Its canonical normal form.
    pub output: XPath,
    /// The whole query is provably empty (certificate
    /// [`Certificate::Empty`], diagnostic `RW002`).
    pub provably_empty: bool,
    /// Rule name → fire count, in catalog order, fired rules only.
    pub fired: Vec<(&'static str, u64)>,
    /// Union branches deleted by dedupe, emptiness, or subsumption.
    pub pruned_branches: u64,
    /// The streamability certificate of the normal form.
    pub certificate: Certificate,
}

impl Rewritten {
    /// How often the rule `name` fired.
    fn fired_count(&self, name: &str) -> u64 {
        self.fired
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, n)| *n)
    }

    /// The `RW`/`ST` findings, derived from [`Rewritten::fired`],
    /// [`Rewritten::provably_empty`], [`Rewritten::pruned_branches`] and
    /// [`Rewritten::certificate`].
    pub fn diagnostics(&self) -> Vec<QueryDiagnostic> {
        let mut diagnostics = Vec::new();
        if self.fired_count("empty-prune") > 0 {
            diagnostics.push(QueryDiagnostic {
                severity: Severity::Info,
                code: "RW001",
                message: "provably-empty union branch(es) deleted".to_owned(),
                hint: "the branch can never select a node on conforming trees",
            });
        }
        if self.provably_empty {
            diagnostics.push(QueryDiagnostic {
                severity: Severity::Warning,
                code: "RW002",
                message: "query is provably empty".to_owned(),
                hint: "it selects nothing on any conforming tree; evaluation short-circuits",
            });
        }
        if self.fired_count("union-subsume") > 0 {
            diagnostics.push(QueryDiagnostic {
                severity: Severity::Info,
                code: "RW003",
                message: format!(
                    "union branch(es) subsumed by siblings ({} branch(es) pruned in total)",
                    self.pruned_branches
                ),
                hint: "p ⊑ q justifies rewriting p | q to q",
            });
        }
        if self.fired_count("filter-true") > 0 {
            diagnostics.push(QueryDiagnostic {
                severity: Severity::Info,
                code: "RW004",
                message: "tautological filter(s) dropped".to_owned(),
                hint: "the predicate holds at every node",
            });
        }
        match &self.certificate {
            Certificate::Empty => {}
            Certificate::Streamable { max_depth_state } => diagnostics.push(QueryDiagnostic {
                severity: Severity::Info,
                code: "ST001",
                message: format!(
                    "certified streamable with at most {max_depth_state} active states per level"
                ),
                hint: "a single document-order pass answers this query in O(depth) memory",
            }),
            Certificate::NotStreamable { witness } => diagnostics.push(QueryDiagnostic {
                severity: Severity::Info,
                code: "ST002",
                message: format!("not streamable: {witness}"),
                hint: "the relational evaluator handles it",
            }),
        }
        diagnostics
    }
}

/// Rewrite under the default (assumption-free) context.
pub fn rewrite(q: &XPath) -> Rewritten {
    rewrite_in(q, &RewriteCtx::unconstrained())
}

/// Rewrite under `ctx`.
pub fn rewrite_in(q: &XPath, ctx: &RewriteCtx) -> Rewritten {
    let (normal, st) = norm::normalize_stats(q, ctx);
    let output = normal.unwrap_or_else(|| q.clone());
    let provably_empty = provably_empty(&output, ctx);
    let certificate = if provably_empty {
        Certificate::Empty
    } else {
        certify(&output)
    };
    let fired = CATALOG
        .iter()
        .zip(st.fired)
        .filter(|&(_, n)| n > 0)
        .map(|(r, n)| (r.name, n))
        .collect();
    Rewritten {
        input: q.clone(),
        output,
        provably_empty,
        fired,
        pruned_branches: st.pruned,
        certificate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_tree::Vocab;
    use twq_xpath::ast::xb;

    #[test]
    fn rewrite_reports_rules_and_certificate() {
        let mut v = Vocab::new();
        let a = xb::name(v.sym("a"));
        let b = xb::name(v.sym("b"));
        let q = xb::union(
            xb::child(a.clone(), b.clone()),
            xb::desc(a.clone(), b.clone()),
        );
        let rw = rewrite(&q);
        assert_eq!(rw.output, xb::desc(a.clone(), b.clone()));
        assert!(rw.pruned_branches >= 1);
        assert!(rw.certificate.is_streamable());
        assert!(rw.diagnostics().iter().any(|d| d.code == "RW003"));
        assert!(rw.diagnostics().iter().any(|d| d.code == "ST001"));
        assert!(!rw.provably_empty);
    }

    #[test]
    fn empty_query_gets_rw002() {
        let mut v = Vocab::new();
        let a = v.sym("a");
        let ghost = v.sym("ghost");
        let ctx = RewriteCtx::unconstrained().with_alphabet([a]);
        let rw = rewrite_in(&xb::name(ghost), &ctx);
        assert!(rw.provably_empty);
        assert_eq!(rw.certificate, Certificate::Empty);
        assert!(rw.diagnostics().iter().any(|d| d.code == "RW002"));
    }
}
