//! Index speedup — what the inverted indexes buy and what they cost.
//! Six questions, one group, all over a 64k-node tree:
//!
//! * `selective_label/*` — `//rare` (one symbol in 64): the walking
//!   evaluator's one set-at-a-time pass over the document vs. the index
//!   plan's range intersection, planner included on the index side. The
//!   generated tree numbers its nodes out of pre-order, so `index`
//!   permutes its result back into arena ids; `index_parsed` runs the same
//!   query on the tree read back from XML, whose arena ids are its
//!   pre-order positions, so the result is returned as it is;
//! * `selective_value/*` — `//*[@a=v]` (one value in thousands): same
//!   comparison for the value postings;
//! * `unselective/*` — a cross-attribute value join over high-cardinality
//!   columns, where the cost model correctly refuses the index and the
//!   planned run must stay within a few percent of the direct walk;
//! * `axis/*` — one compiled plan per axis step, run from the root of
//!   the generated tree:
//!   `child` (`//s17/*`), `parent` (`//*[s17]`), `ancestor`
//!   (`//s17[s18//s19]`) and `desc_set` (`//s17//s18`, a descendant step
//!   from a set of ~1 000 scattered nodes);
//! * `build/*` — one full index build, the cost the selective queries
//!   amortize (a few dozen of them, against a linear walk), and the same
//!   tree with unique ids in column `a` (the paper's §7 setting: a value
//!   group per node, where postings must stay linear). Both run on the
//!   generated tree, whose arena is not in pre-order, so the build's rank
//!   pass scatters its writes; `64k_parsed` builds on the tree read back
//!   from XML, whose arena is in pre-order, the side `ingest` takes;
//! * `parse_xml/*` — reading the same tree from its XML text, the other
//!   half of ingesting a document (`64k`), and reading ~8k-node documents
//!   that vary what reading depends on: how many distinct values, of
//!   which kind, how many element names, how large a document
//!   ([`parse_cases`]).
//!
//! The selective entries are the ≥10× speedup claim of DESIGN §16 and the
//! README table; all entries are gated by `bench-diff` against
//! `bench/baseline.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use twq_index::{compile_xpath, eval_plan_from, CostModel, Force, TreeIndex};
use twq_rw::{plan_indexed, run_query_indexed, IndexedEvaluator, RewriteCtx};
use twq_tree::generate::{random_tree, TreeGenConfig};
use twq_tree::{parse_xml, to_xml, tree_to_string, SymId, Tree, Value, Vocab};
use twq_xpath::ast::xb;
use twq_xpath::{eval_from, parse_xpath, XPath};

const NODES: usize = 65_536;

/// 64 symbols, two attribute columns drawing from 4096-value pools: big
/// enough that one label or one value is genuinely selective, and that a
/// cross-column join has far too many groups for the index to win.
fn workload(vocab: &mut Vocab) -> (Tree, TreeGenConfig) {
    let symbols = (0..64).map(|i| vocab.sym(&format!("s{i}"))).collect();
    let a = vocab.attr("a");
    let b = vocab.attr("b");
    let pool_a = (0..4096).map(|i| vocab.val_int(i)).collect();
    let pool_b = (0..4096).map(|i| vocab.val_int(4096 + i)).collect();
    let cfg = TreeGenConfig {
        nodes: NODES,
        max_children: 4,
        symbols,
        attributes: vec![(a, pool_a), (b, pool_b)],
        collision_pool: None,
    };
    (random_tree(&cfg, 42), cfg)
}

/// The parser matrix: per case, documents of about 8 192 nodes in all,
/// with 16 element names and two attribute columns drawing from one pool.
///
/// * `ints_16`, `ints_4096` — integer pools in `0..2^16`, the range
///   `Vocab` interns through its table;
/// * `ints_wide` — 4 096 integers outside that range, interned through a
///   hashed map;
/// * `strs_4096` — a pool of 4 096 strings;
/// * `unique_strs` — column `a` holds a distinct string on every node;
/// * `docs_96` — 85 documents of 96 nodes, so per-call set-up shows;
/// * `names_4096` — 4 096 distinct element names;
/// * `long_names` — element and attribute names of 12 to 24 bytes that
///   share their first eight, the case a name memo keyed by a name's
///   first word must still tell apart;
/// * `long_ints` — integers of 9 to 18 digits, past the reader's
///   eight-digit fast path.
fn parse_cases(vocab: &mut Vocab) -> Vec<(&'static str, Vec<(Tree, String)>)> {
    let names16: Vec<SymId> = (0..16).map(|i| vocab.sym(&format!("s{i}"))).collect();
    let names4096: Vec<SymId> = (0..4096).map(|i| vocab.sym(&format!("n{i}"))).collect();
    let long16: Vec<SymId> = (0..16)
        .map(|i| vocab.sym(&format!("element_{i:0>w$}", w = 4 + i % 13)))
        .collect();
    let ints = |vocab: &mut Vocab, from: i64, n: i64| -> Vec<Value> {
        (from..from + n).map(|i| vocab.val_int(i)).collect()
    };
    let ints16 = ints(vocab, 0, 16);
    let ints4096 = ints(vocab, 0, 4096);
    let wide = ints(vocab, 1 << 20, 4096);
    let long_ints: Vec<Value> = (0..4096)
        .map(|i| vocab.val_int(10_i64.pow(8 + (i % 10) as u32) + i))
        .collect();
    let strs: Vec<Value> = (0..4096).map(|i| vocab.val_str(&format!("v{i}"))).collect();
    let (a, b) = (vocab.attr("a"), vocab.attr("b"));
    let long_attrs = (
        vocab.attr("attribute_one"),
        vocab.attr("attribute_two_long_name"),
    );
    let docs_over = |(a, b), symbols: &[SymId], pool: &[Value], nodes: usize, count: usize| {
        let cfg = TreeGenConfig {
            nodes,
            max_children: 4,
            symbols: symbols.to_vec(),
            attributes: vec![(a, pool.to_vec()), (b, pool.to_vec())],
            collision_pool: None,
        };
        (0..count as u64)
            .map(|seed| random_tree(&cfg, seed))
            .collect::<Vec<_>>()
    };
    let docs = |symbols: &[SymId], pool: &[Value], nodes, count| {
        docs_over((a, b), symbols, pool, nodes, count)
    };
    let mut unique = docs(&names16, &ints4096, 8192, 1);
    unique[0].assign_unique_ids(a, vocab);
    let trees = [
        ("ints_16", docs(&names16, &ints16, 8192, 1)),
        ("ints_4096", docs(&names16, &ints4096, 8192, 1)),
        ("ints_wide", docs(&names16, &wide, 8192, 1)),
        ("strs_4096", docs(&names16, &strs, 8192, 1)),
        ("unique_strs", unique),
        ("docs_96", docs(&names16, &ints4096, 96, 85)),
        ("names_4096", docs(&names4096, &ints4096, 8192, 1)),
        (
            "long_names",
            docs_over(long_attrs, &long16, &ints4096, 8192, 1),
        ),
        ("long_ints", docs(&names16, &long_ints, 8192, 1)),
    ];
    trees
        .into_iter()
        .map(|(case, trees)| {
            let docs = trees
                .into_iter()
                .map(|t| {
                    let xml = to_xml(&t, vocab);
                    (t, xml)
                })
                .collect();
            (case, docs)
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut vocab = Vocab::new();
    let (tree, cfg) = workload(&mut vocab);
    let idx = TreeIndex::build(&tree);
    // Every row on `tree` measures the permuted side of `eval_plan_from`.
    assert!(!idx.intervals().arena_is_preorder());
    let ctx = RewriteCtx::unconstrained();
    let model = CostModel::default();

    let rare = cfg.symbols[17];
    let (attr_a, attr_b) = (cfg.attributes[0].0, cfg.attributes[1].0);
    let rare_val = cfg.attributes[0].1[123];
    let q_label = xb::from_desc(xb::name(rare));
    let q_value = xb::filter_attr_const(xb::from_desc(xb::wild()), attr_a, rare_val);
    let q_join = xb::filter_attr_attr(xb::from_desc(xb::wild()), attr_a, attr_b);

    // Sanity before pricing: the twins agree, the planner picks the index
    // for the selective queries and refuses it for the join.
    for q in [&q_label, &q_value, &q_join] {
        let (got, _) = run_query_indexed(&tree, &idx, q, &ctx, &model, Force::Index);
        assert_eq!(
            got,
            eval_from(&tree, q, tree.root()),
            "indexed twin diverged"
        );
    }
    for q in [&q_label, &q_value] {
        let plan = plan_indexed(q, &ctx, &idx, &model, Force::Auto);
        assert_eq!(
            plan.evaluator,
            IndexedEvaluator::Indexed,
            "selective query must be planned onto the index"
        );
    }
    let join_plan = plan_indexed(&q_join, &ctx, &idx, &model, Force::Auto);
    assert_eq!(
        join_plan.evaluator,
        IndexedEvaluator::Walking,
        "high-cardinality join must fall back to walking"
    );

    let mut group = c.benchmark_group("index_speedup");
    group.sample_size(10);

    let walk_vs_index = |group: &mut criterion::BenchmarkGroup<'_>, label: &str, q: &XPath| {
        group.bench_with_input(BenchmarkId::new(label, "walk"), q, |bch, q| {
            bch.iter(|| eval_from(&tree, q, tree.root()).len())
        });
        group.bench_with_input(BenchmarkId::new(label, "index"), q, |bch, q| {
            bch.iter(|| {
                run_query_indexed(&tree, &idx, q, &ctx, &model, Force::Index)
                    .0
                    .len()
            })
        });
    };
    walk_vs_index(&mut group, "selective_label", &q_label);
    walk_vs_index(&mut group, "selective_value", &q_value);

    // The planner's refusal must be nearly free: direct walk vs. the full
    // planned run (rewrite + compile + estimate + walk).
    group.bench_with_input(
        BenchmarkId::new("unselective", "direct"),
        &q_join,
        |bch, q| bch.iter(|| eval_from(&tree, q, tree.root()).len()),
    );
    group.bench_with_input(
        BenchmarkId::new("unselective", "planned"),
        &q_join,
        |bch, q| {
            bch.iter(|| {
                run_query_indexed(&tree, &idx, q, &ctx, &model, Force::Auto)
                    .0
                    .len()
            })
        },
    );

    // Axis steps: each compiled plan runs from the root, after an untimed
    // check against the walker.
    for (step, expr) in [
        ("child", "//s17/*"),
        ("parent", "//*[s17]"),
        ("ancestor", "//s17[s18//s19]"),
        ("desc_set", "//s17//s18"),
    ] {
        let q = parse_xpath(expr, &mut vocab).expect("bench query parses");
        let plan = compile_xpath(&q);
        assert_eq!(
            eval_plan_from(&tree, &idx, &plan, tree.root()),
            eval_from(&tree, &q, tree.root()),
            "{expr}"
        );
        group.bench_with_input(BenchmarkId::new("axis", step), &plan, |bch, plan| {
            bch.iter(|| eval_plan_from(&tree, &idx, plan, tree.root()).len())
        });
    }

    // Build amortization: one full index build over the 64k-node tree,
    // then over a copy whose `a` column holds unique ids.
    group.bench_with_input(BenchmarkId::new("build", "64k"), &tree, |bch, t| {
        bch.iter(|| TreeIndex::build(t).stats().postings_bytes)
    });
    let mut unique = tree.clone();
    unique.assign_unique_ids(attr_a, &mut vocab.clone());
    group.bench_with_input(
        BenchmarkId::new("build", "64k_unique"),
        &unique,
        |bch, t| bch.iter(|| TreeIndex::build(t).stats().postings_bytes),
    );

    // Ingest's other half: the tree read back from its XML text, into a
    // vocabulary that already knows every name and value.
    let xml = to_xml(&tree, &vocab);
    let mut read_vocab = vocab.clone();
    let read = parse_xml(&xml, &mut read_vocab).expect("to_xml output parses");
    assert_eq!(
        tree_to_string(&read, &read_vocab),
        tree_to_string(&tree, &vocab)
    );

    // The selective label query on the parsed copy, after the same kind of
    // untimed check against the walker.
    let read_idx = TreeIndex::build(&read);
    assert!(read_idx.intervals().arena_is_preorder());
    assert_eq!(
        run_query_indexed(&read, &read_idx, &q_label, &ctx, &model, Force::Index).0,
        eval_from(&read, &q_label, read.root()),
        "indexed twin diverged on the parsed tree"
    );
    group.bench_with_input(BenchmarkId::new("build", "64k_parsed"), &read, |bch, t| {
        bch.iter(|| TreeIndex::build(t).stats().postings_bytes)
    });
    group.bench_with_input(
        BenchmarkId::new("selective_label", "index_parsed"),
        &q_label,
        |bch, q| {
            bch.iter(|| {
                run_query_indexed(&read, &read_idx, q, &ctx, &model, Force::Index)
                    .0
                    .len()
            })
        },
    );
    group.bench_with_input(BenchmarkId::new("parse_xml", "64k"), &xml, |bch, xml| {
        bch.iter(|| {
            parse_xml(xml, &mut read_vocab)
                .expect("to_xml output parses")
                .len()
        })
    });

    // The parser matrix, each case read into a vocabulary that already
    // knows every token, after the same round-trip check.
    let mut matrix_vocab = Vocab::new();
    let cases = parse_cases(&mut matrix_vocab);
    for (case, docs) in &cases {
        for (t, xml) in docs {
            let read = parse_xml(xml, &mut matrix_vocab).expect("to_xml output parses");
            assert_eq!(
                tree_to_string(&read, &matrix_vocab),
                tree_to_string(t, &matrix_vocab),
                "{case}"
            );
        }
        group.bench_with_input(BenchmarkId::new("parse_xml", case), docs, |bch, docs| {
            bch.iter(|| {
                docs.iter()
                    .map(|(_, xml)| parse_xml(xml, &mut matrix_vocab).map_or(0, |t| t.len()))
                    .sum::<usize>()
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
