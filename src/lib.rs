//! # twq — tree-walking queries over tree-structured data
//!
//! A comprehensive Rust implementation of
//!
//! > Frank Neven. *On the Power of Walking for Querying Tree-Structured
//! > Data.* PODS 2002.
//!
//! XSLT, stripped down, is a tree-walking tree-transducer with registers
//! and look-ahead. This workspace implements that abstraction —
//! tree-walking automata `tw^{r,l}` with relational storage and `atp`
//! look-ahead over attributed unranked trees — together with every
//! substrate the paper's results rest on, and turns each theorem into
//! executable, measured machinery:
//!
//! * [`tree`] — attributed Σ-trees, delimited trees, generators;
//! * [`logic`] — FO over trees, the `FO(∃*)` fragment, relational-store
//!   FO, `≡_k` types (Lemma 4.3);
//! * [`xpath`] — the paper's XPath fragment and its compilation to
//!   `FO(∃*)` (Section 2.3);
//! * [`automata`] — the paper's contribution: `tw`, `tw^l`, `tw^r`,
//!   `tw^{r,l}` programs, engines, the structured walker IR, and
//!   Example 3.2 (Sections 3, 5);
//! * [`xtm`] — XML Turing machines, alternation, tree encodings,
//!   ordinary TMs (Section 6);
//! * [`sim`] — the Theorem 7.1 compilers (LOGSPACE pebbles, PSPACE
//!   relational tape) and the Proposition 7.2 store elimination;
//! * [`protocol`] — hypersets, `L^m`, Lemma 4.2's FO sentences, the
//!   Lemma 4.5 communication protocol, the Lemma 4.6 counting argument
//!   (Section 4);
//! * [`exec`] — the execution layer: a scoped work-stealing thread pool
//!   behind the `run_batch`/`select_batch` entry points and the experiment
//!   harness's `--jobs`;
//! * [`obs`] — observability: zero-cost collectors, run metrics,
//!   span-style event tracing, and the experiment reporting layer;
//! * [`guard`] — resource governance: fuel budgets, deadlines, depth and
//!   memory guards, the structured `TwqError` taxonomy, and deterministic
//!   fault injection for chaos testing;
//! * [`analyze`] — static analysis: CFG reachability and dead-code
//!   pruning, guard-overlap detection, register liveness, progress
//!   analysis, and Definition 5.1 class inference with evaluator routing
//!   (`twq lint`);
//! * [`rw`] — query-level static analysis: canonical normal forms for
//!   XPath and FO(∃*), a named-rule rewrite engine, conservative
//!   emptiness/containment checking, and streamability certification
//!   with a one-pass evaluator (`lint --rewrite`, `--rewrite`);
//! * [`fuzz`] — differential fuzzing: seeded program/tree/budget
//!   generators, an evaluator-pair oracle, delta-debugging minimization,
//!   and replayable JSONL repros (`fuzz`).
//!
//! ## Quickstart
//!
//! ```
//! use twq::tree::{parse_tree, Vocab};
//! use twq::automata::{examples, run_on_tree, Limits};
//!
//! let mut vocab = Vocab::new();
//! // Example 3.2: every δ-node's leaf-descendants share one a-value.
//! let ex = examples::example_32(&mut vocab);
//! let t = parse_tree(
//!     "sigma[a=0](delta[a=0](sigma[a=1],sigma[a=1]),sigma[a=2])",
//!     &mut vocab,
//! ).unwrap();
//! let report = run_on_tree(&ex.program, &t, Limits::default());
//! assert!(report.accepted());
//! ```

pub use twq_analyze as analyze;
pub use twq_automata as automata;
pub use twq_exec as exec;
pub use twq_fuzz as fuzz;
pub use twq_guard as guard;
pub use twq_index as index;
pub use twq_logic as logic;
pub use twq_obs as obs;
pub use twq_protocol as protocol;
pub use twq_rw as rw;
pub use twq_sim as sim;
pub use twq_tree as tree;
pub use twq_xpath as xpath;
pub use twq_xtm as xtm;

/// Every program the repository ships, paired with a stable name: the
/// worked examples, the protocol walker, the Theorem 7.1 compiler outputs
/// and two XPath-compiled acceptors, all over Example 3.2's alphabet.
/// `lint` analyzes this roster, and the analyzer tests check it.
pub fn roster(vocab: &mut tree::Vocab) -> Vec<(String, automata::TwProgram)> {
    use automata::{examples, TwProgram};
    use protocol::at_most_k_values_program;
    use sim::{compile_logspace, compile_pspace, delta_count_mod3};
    use tree::{generate::TreeGenConfig, Label};
    use xpath::{parse_xpath, xpath_to_program, SelectionTest};
    use xtm::machines;

    let base = TreeGenConfig::example32(vocab, 1, &[1]);
    let a = vocab.attr_opt("a").unwrap();
    let id = vocab.attr("id");
    let machine = machines::leaf_count_even(&base.symbols);
    let mut out: Vec<(String, TwProgram)> = vec![
        ("example_32".into(), examples::example_32(vocab).program),
        (
            "traversal".into(),
            examples::traversal_program(&base.symbols),
        ),
        (
            "even_leaves".into(),
            examples::even_leaves_program(&base.symbols),
        ),
        (
            "all_leaves_equal".into(),
            examples::all_leaves_equal_program(&base.symbols, a),
        ),
        (
            "parent_child_match".into(),
            examples::parent_child_match_program(&base.symbols, a),
        ),
        (
            "distinct_values>=4".into(),
            examples::distinct_values_at_least(&base.symbols, a, 4),
        ),
        (
            "at_most_4_values".into(),
            at_most_k_values_program(base.symbols[0], a, 4),
        ),
        (
            "delta_count_mod3".into(),
            delta_count_mod3(
                Label::Sym(base.symbols[0]),
                Label::Sym(base.symbols[1]),
                vocab,
            ),
        ),
        (
            "logspace(leaf_count_even)".into(),
            compile_logspace(&machine, &base.symbols, id, vocab)
                .unwrap()
                .program,
        ),
        (
            "pspace(leaf_count_even)".into(),
            compile_pspace(&machine, &base.symbols, id, vocab)
                .unwrap()
                .program,
        ),
    ];
    for q in ["sigma/delta", "//delta[sigma]"] {
        let path = parse_xpath(q, vocab).unwrap();
        out.push((
            format!("xpath({q})"),
            xpath_to_program(&path, &base.symbols, id, SelectionTest::NonEmpty),
        ));
    }
    out
}
