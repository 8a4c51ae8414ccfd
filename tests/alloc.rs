//! Heap allocations of the walking engine, the configuration-graph runner,
//! the XML reader, the query rewriter and the index-plan evaluator,
//! counted by a global allocator.
//!
//! A transition of a program whose guards are `true`, quantifier-free, or
//! quantified over a register costs a table lookup, a guard evaluation and
//! a move: no allocation. The runs below therefore allocate the same
//! number of times on a 512-node tree as on a 2 048-node one. Reading a
//! document whose names and values the vocabulary already holds allocates
//! nothing per token either. Rewriting a query already in normal form
//! copies it twice, into the record's input and output, and nothing else;
//! evaluating an index plan on a parsed tree reads its postings in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use twq::automata::examples::{all_leaves_equal_program, even_leaves_program, example_32};
use twq::automata::{run, run_graph, Limits};
use twq::index::{compile_xpath, eval_plan_from, TreeIndex};
use twq::rw::{rewrite, rewrite_in, RewriteCtx};
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::{parse_xml, to_xml, DelimTree, Vocab};
use twq::xpath::{eval_from, parse_xpath};

/// Counts the allocations of the calling thread, so harness threads add
/// nothing.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The result of `f` and the allocations made inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn runs_allocate_independently_of_tree_size() {
    let mut vocab = Vocab::new();
    let alphabet = [vocab.sym("sigma"), vocab.sym("delta")];
    let a = vocab.attr("a");
    let one = vocab.val_int(1);
    let programs = [
        ("even_leaves", even_leaves_program(&alphabet)),
        // One value everywhere: every leaf is compared with the first.
        ("all_leaves_equal", all_leaves_equal_program(&alphabet, a)),
    ];
    let mut growing = Vec::new();
    for (name, prog) in &programs {
        let mut seen = Vec::new();
        for nodes in [512, 2048] {
            let cfg = TreeGenConfig {
                nodes,
                max_children: 4,
                symbols: alphabet.to_vec(),
                attributes: vec![(a, vec![one])],
                collision_pool: None,
            };
            let delim = DelimTree::build(&random_tree(&cfg, 3));
            let (report, allocs) = counted(|| run(prog, &delim, Limits::default()));
            assert!(report.steps > nodes as u64, "{name}/{nodes}: {report:?}");
            seen.push((report, allocs));
        }
        let (small, large) = (&seen[0], &seen[1]);
        if *name == "all_leaves_equal" {
            assert!(small.0.accepted() && large.0.accepted(), "{name}: {seen:?}");
        }
        if small.1 != large.1 {
            growing.push(format!(
                "{name}: {} allocations in {} steps, {} in {}",
                small.1, small.0.steps, large.1, large.0.steps
            ));
        }
    }
    assert!(growing.is_empty(), "{}", growing.join("; "));
}

#[test]
fn the_graph_runner_copies_each_configuration_once() {
    // Example 3.2 on one-valued trees: it accepts and runs its whole
    // look-ahead. Copying each configuration of a chain twice, into a
    // vector and into a set beside it, made 14.15–14.81 allocations a step
    // on these trees; one set that serves as both makes 11.10–11.75.
    let mut vocab = Vocab::new();
    let ex = example_32(&mut vocab);
    for nodes in [40, 160, 640] {
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1]);
        let delim = DelimTree::build(&random_tree(&cfg, 3));
        let (report, allocs) = counted(|| run_graph(&ex.program, &delim, Limits::default()));
        assert!(report.accepted(), "{nodes}: {report:?}");
        let per_step = allocs as f64 / report.steps as f64;
        assert!(
            per_step < 13.0,
            "{nodes} nodes: {per_step:.2} allocations a step"
        );
    }
}

#[test]
fn reading_known_tokens_allocates_nothing_per_token() {
    let mut vocab = Vocab::new();
    let ints = (0..64).map(|i| vocab.val_int(i)).collect();
    let big = (0..64).map(|i| vocab.val_int(1 << 40 | i)).collect();
    let strs = (0..64).map(|i| vocab.val_str(&format!("v{i} x"))).collect();
    let columns = vec![
        (vocab.attr("n"), ints),
        (vocab.attr("big"), big),
        (vocab.attr("s"), strs),
    ];
    let symbols = ["a", "b", "c"].iter().map(|s| vocab.sym(s)).collect();
    let mut cfg = TreeGenConfig {
        nodes: 0,
        max_children: 4,
        symbols,
        attributes: columns,
        collision_pool: None,
    };
    let mut seen = Vec::new();
    for nodes in [512, 2048] {
        cfg.nodes = nodes;
        let xml = to_xml(&random_tree(&cfg, 5), &vocab);
        let mut known = vocab.clone();
        let (tree, allocs) = counted(|| parse_xml(&xml, &mut known).expect("to_xml output parses"));
        assert_eq!(
            (tree.len(), known.value_count()),
            (nodes, vocab.value_count())
        );
        seen.push(allocs);
    }
    // From 512 to 2 048 entries, a vector that doubles as it grows does
    // so twice more: the arena, each attribute column and the stack of
    // open elements.
    let slack = 2 * (1 + cfg.attributes.len() + 1) as u64;
    assert!(
        seen[1] <= seen[0] + slack,
        "512 nodes: {} allocations, 2 048: {}",
        seen[0],
        seen[1]
    );
}

#[test]
fn rewriting_a_normal_form_copies_only_the_record() {
    let mut vocab = Vocab::new();
    let ctx = RewriteCtx::unconstrained();
    // Path predicates certify as not streamable, and a union's branches
    // are checked for subsumption, without allocating either.
    for text in [
        "//s1",
        "//s1/s2",
        "//s1//s2",
        "//s1[@a=1]",
        "//*[@a=1]/s1",
        "//s1[s2]",
        "//s1[s2]/s3",
        "//s1 | //s2",
    ] {
        let q = rewrite(&parse_xpath(text, &mut vocab).expect("query parses")).output;
        let (copy, copy_allocs) = counted(|| q.clone());
        let (rw, allocs) = counted(|| rewrite_in(&q, &ctx));
        assert!(rw.fired.is_empty() && rw.output == copy, "{text}: {rw:?}");
        assert_eq!(
            rw.certificate.is_streamable(),
            !text.contains("[s"),
            "{text}: {rw:?}"
        );
        assert_eq!(
            allocs,
            2 * copy_allocs,
            "{text}: {allocs} allocations, {copy_allocs} per copy"
        );
    }
    let q = parse_xpath("//s1", &mut vocab).expect("query parses");
    assert_eq!(counted(|| rewrite_in(&q, &ctx)).1, 2);
}

#[test]
fn index_plans_read_parsed_postings_in_place() {
    let mut vocab = Vocab::new();
    let symbols: Vec<_> = (0..8).map(|i| vocab.sym(&format!("s{i}"))).collect();
    let q = parse_xpath("//s1", &mut vocab).expect("query parses");
    let plan = compile_xpath(&q);
    let mut seen = Vec::new();
    for nodes in [1024, 8192] {
        let cfg = TreeGenConfig {
            nodes,
            max_children: 4,
            symbols: symbols.clone(),
            attributes: vec![],
            collision_pool: None,
        };
        let xml = to_xml(&random_tree(&cfg, 7), &vocab);
        let tree = parse_xml(&xml, &mut vocab).expect("to_xml output parses");
        let idx = TreeIndex::build(&tree);
        assert!(idx.intervals().arena_is_preorder());
        let (got, allocs) = counted(|| eval_plan_from(&tree, &idx, &plan, tree.root()));
        assert_eq!(got, eval_from(&tree, &q, tree.root()), "{nodes} nodes");
        assert!(
            got.len() > nodes / 16,
            "{nodes} nodes: {} selected",
            got.len()
        );
        seen.push(allocs);
    }
    // The context singleton and the descendant step's range fill; the
    // label posting is read in place and the result is not permuted.
    assert_eq!(seen, [2, 2], "allocations at 1 024 and 8 192 nodes");
}
