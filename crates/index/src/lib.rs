//! # twq-index — index-accelerated query evaluation
//!
//! The first evaluator family in the workspace whose asymptotics *beat*
//! walking instead of shaving constants. The paper separates what walking
//! automata compute from what relational evaluation gets "for free"; this
//! crate supplies the free part: per-tree inverted indexes so selective
//! XPath and FO(∃*) selections run as range algebra over word-packed
//! bitsets — the downward-fragment-to-algebra correspondence of Hellings
//! et al. — plus a cost model deciding per query whether that actually
//! pays.
//!
//! Three layers:
//!
//! * [`TreeIndex`] ([`build`] module) — label/value postings, structural
//!   postings, and the document-order interval encoding, built in linear
//!   passes over the arena and the pre-order columns, with no sort;
//!   [`build_indexes`] batches builds across a pool.
//! * [`IxPlan`] ([`plan`] / [`compile`] / [`eval`]) — the index algebra,
//!   compilers from XPath (total) and FO(∃*) (positive two-variable
//!   fragment, `None` ⇒ walk), and the bitset evaluator: an XPath query
//!   runs as [`eval_plan_from`] over [`compile_xpath`]`(p)`, compiled once
//!   per query, and [`fo_select_routed`] answers FO(∃*) selections,
//!   walking when [`compile_exists`] returns `None`.
//! * [`CostModel`] ([`cost`]) — measured unit costs pricing index plans
//!   against [`twq_xpath::walk_cost`] estimates; `twq-rw`'s
//!   `plan_indexed` routes on the verdict.

pub mod build;
pub mod compile;
pub mod cost;
pub mod eval;
pub mod plan;

pub use build::{build_indexes, IndexScratch, IndexStats, TreeIndex, ValueColumn};
pub use compile::{compile_exists, compile_xpath};
pub use cost::{Choice, CostModel, Estimate, Force};
pub use eval::{eval_plan_from, eval_plan_pre, fo_select_routed};
pub use plan::{Axis, IxPlan};

#[cfg(test)]
mod tests {
    use super::*;
    use twq_tree::{parse_tree, NodeId, Tree, Vocab};
    use twq_xpath::{eval_from, parse_xpath};

    fn doc() -> (Vocab, Tree) {
        let mut v = Vocab::new();
        let t = parse_tree(
            "lib(book[y=1999](title,author,author),book[y=2001](title[y=2001],author))",
            &mut v,
        )
        .unwrap();
        (v, t)
    }

    fn assert_plan_matches_walk(v: &mut Vocab, t: &Tree, expr: &str) {
        let idx = TreeIndex::build(t);
        let p = parse_xpath(expr, v).unwrap();
        let plan = compile_xpath(&p);
        for x in t.node_ids() {
            assert_eq!(
                eval_plan_from(t, &idx, &plan, x),
                eval_from(t, &p, x),
                "query `{expr}` from {x:?}"
            );
        }
    }

    #[test]
    fn indexed_matches_walked_on_the_doc_tree() {
        let (mut v, t) = doc();
        for expr in [
            "lib/book/author",
            "lib//author",
            "//title",
            "lib/book[title]",
            "lib/book[@y=1999]",
            "lib/book[@y=@y]",
            "//title | //author",
            "/lib/book",
            "*",
            "//book[//title]",
            "ghost",
        ] {
            assert_plan_matches_walk(&mut v, &t, expr);
        }
    }

    #[test]
    fn interval_postings_line_up() {
        let (_, t) = doc();
        let idx = TreeIndex::build(&t);
        assert_eq!(idx.len(), t.len());
        let stats = idx.stats();
        assert_eq!(stats.nodes, t.len());
        assert!(stats.postings_bytes > 0);
        assert_eq!(stats.distinct_labels, 4); // lib, book, title, author
                                              // Structural postings partition sensibly: root is both first and
                                              // last, leaves + internal = n.
        assert!(idx
            .firsts()
            .contains(NodeId(idx.intervals().begin(t.root()))));
        assert_eq!(stats.leaves, idx.leaves().len());
    }

    #[test]
    fn fo_fragment_roundtrip() {
        use twq_logic::fo::build as fb;
        use twq_logic::{ExistsFormula, Var};
        let (mut v, t) = doc();
        let idx = TreeIndex::build(&t);
        let author = v.sym("author");
        let (x, y) = (Var(0), Var(1));
        // φ(x,y) = desc(x,y) ∧ O_author(y): in fragment.
        let phi = ExistsFormula::new(
            x,
            y,
            vec![],
            fb::and(vec![
                fb::desc(x, y),
                fb::lab(twq_tree::Label::Sym(author), y),
            ]),
        )
        .unwrap();
        for u in t.node_ids() {
            let (got, indexed) = fo_select_routed(&t, &idx, &phi, u);
            assert!(indexed, "positive two-variable formula must be indexed");
            assert_eq!(got, phi.select(&t, u), "from {u:?}");
        }
        // succ leaves the fragment: must fall back, still agreeing.
        let succ = ExistsFormula::new(x, y, vec![], fb::succ(x, y)).unwrap();
        assert!(compile_exists(&succ).is_none());
        for u in t.node_ids() {
            let (got, indexed) = fo_select_routed(&t, &idx, &succ, u);
            assert!(!indexed);
            assert_eq!(got, succ.select(&t, u));
        }
    }

    #[test]
    fn cost_model_prefers_index_on_selective_queries() {
        let (mut v, t) = doc();
        let idx = TreeIndex::build(&t);
        let p = parse_xpath("//author", &mut v).unwrap();
        let plan = compile_xpath(&p);
        let m = CostModel::default();
        let est = m.estimate(&idx, &plan, &p);
        assert!(est.index_ns > 0.0 && est.walk_ns > 0.0);
        assert_eq!(m.choose(&est, plan.size(), Force::Index), Choice::Index);
        assert_eq!(m.choose(&est, plan.size(), Force::Walk), Choice::Walk);
        // Oversized plans always walk under Auto.
        assert_eq!(
            m.choose(&est, m.max_plan_size + 1, Force::Auto),
            Choice::Walk
        );
    }

    #[test]
    fn batch_build_matches_serial() {
        let (_, t) = doc();
        let trees: Vec<Tree> = (0..5).map(|_| t.clone()).collect();
        for workers in [1, 4] {
            let built = build_indexes(&trees, &twq_exec::Pool::new(workers));
            assert_eq!(built.len(), trees.len());
            for idx in &built {
                assert_eq!(idx.len(), t.len());
                assert_eq!(idx.stats().nodes, TreeIndex::build(&t).stats().nodes);
            }
        }
    }
}
