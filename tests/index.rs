//! Indexed-vs-walked equivalence on hostile trees.
//!
//! The index layer promises *identical* answers to the walking
//! evaluators on every tree and every query; these tests push on the
//! shapes where the interval encoding and the word-packed postings have
//! the least slack — deep chains (interval nesting at maximum depth),
//! wide fans (one giant child range), collision-heavy values (few, huge
//! value groups), and node counts straddling the 64-bit word boundaries
//! of `NodeSet`.

use std::collections::BTreeMap;

use proptest::prelude::*;

use twq::exec::Pool;
use twq::index::{
    build_indexes, compile_exists, compile_xpath, eval_plan_from, fo_select_routed, CostModel,
    Force, TreeIndex,
};
use twq::logic::fo::build as fb;
use twq::logic::{ExistsFormula, Var};
use twq::rw::{run_query_indexed, IndexedEvaluator, RewriteCtx};
use twq::tree::generate::{
    chain_tree, comb_tree, perfect_tree, random_tree, star_tree, TreeGenConfig,
};
use twq::tree::{
    parse_xml, to_xml, AttrId, DelimTree, Label, NodeId, NodeSet, SymId, Tree, Value, Vocab,
};
use twq::xpath::{eval_from, random_xpath, XPath, XPathGenConfig};

fn hostile_cfg(vocab: &mut Vocab, nodes: usize, collisions: Option<usize>) -> TreeGenConfig {
    let mut cfg = TreeGenConfig::example32(vocab, nodes, &[1, 2, 3, 4, 5, 6, 7, 8]);
    let b = vocab.attr("b");
    let pool = (10..18).map(|i| vocab.val_int(i)).collect();
    cfg.attributes.push((b, pool));
    cfg.collision_pool = collisions;
    cfg
}

fn xcfg(cfg: &TreeGenConfig) -> XPathGenConfig {
    XPathGenConfig {
        symbols: cfg.symbols.clone(),
        attrs: cfg.attributes.iter().map(|(a, _)| *a).collect(),
        values: cfg.attributes.iter().flat_map(|(_, p)| p.clone()).collect(),
        max_depth: 4,
    }
}

/// Every context node, indexed vs walked, exact set equality (the plan
/// is compiled once and reused across contexts).
fn assert_index_matches_walk(tree: &Tree, path: &XPath) {
    let idx = TreeIndex::build(tree);
    let plan = compile_xpath(path);
    for u in tree.node_ids() {
        assert_eq!(
            eval_plan_from(tree, &idx, &plan, u),
            eval_from(tree, path, u),
            "context {u:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random queries over collision-heavy random trees: the worst case
    /// for value postings (few groups, each nearly whole-tree).
    #[test]
    fn indexed_matches_walked_on_collision_heavy_trees(
        tree_seed in 0u64..400,
        path_seed in 0u64..400,
        nodes in 2usize..80,
        collisions in 1usize..3,
    ) {
        let mut vocab = Vocab::new();
        let cfg = hostile_cfg(&mut vocab, nodes, Some(collisions));
        let t = random_tree(&cfg, tree_seed);
        let p = random_xpath(&xcfg(&cfg), path_seed);
        assert_index_matches_walk(&t, &p);
    }

    /// The cost-based planner is transparent under every override.
    #[test]
    fn planner_is_transparent_under_every_force(
        tree_seed in 0u64..200,
        path_seed in 0u64..200,
        nodes in 2usize..60,
    ) {
        let mut vocab = Vocab::new();
        let cfg = hostile_cfg(&mut vocab, nodes, Some(2));
        let t = random_tree(&cfg, tree_seed);
        let p = random_xpath(&xcfg(&cfg), path_seed);
        let idx = TreeIndex::build(&t);
        let ctx = RewriteCtx::unconstrained();
        let model = CostModel::default();
        let want = eval_from(&t, &p, t.root());
        for force in [Force::Auto, Force::Index, Force::Walk] {
            let (got, plan) = run_query_indexed(&t, &idx, &p, &ctx, &model, force);
            prop_assert_eq!(&got, &want, "force {:?} via {:?}", force, plan.evaluator);
            if plan.evaluator != IndexedEvaluator::EmptyShortCircuit {
                match force {
                    Force::Index => prop_assert_eq!(plan.evaluator, IndexedEvaluator::Indexed),
                    Force::Walk => prop_assert_eq!(plan.evaluator, IndexedEvaluator::Walking),
                    Force::Auto => {}
                }
            }
        }
    }

    /// FO(∃*) routing: in-fragment formulas take the index, everything
    /// agrees with the backtracking selector from every context node.
    #[test]
    fn fo_routing_agrees_with_backtracking(
        tree_seed in 0u64..200,
        nodes in 2usize..50,
    ) {
        let mut vocab = Vocab::new();
        let cfg = hostile_cfg(&mut vocab, nodes, Some(2));
        let t = random_tree(&cfg, tree_seed);
        let idx = TreeIndex::build(&t);
        let (x, y) = (Var(0), Var(1));
        let s0 = cfg.symbols[0];
        let (a, b) = (cfg.attributes[0].0, cfg.attributes[1].0);
        let in_fragment = ExistsFormula::new(
            x,
            y,
            vec![],
            fb::and(vec![
                fb::desc(x, y),
                fb::or(vec![
                    fb::lab(Label::Sym(s0), y),
                    fb::val_eq(a, y, b, y),
                ]),
            ]),
        )
        .unwrap();
        prop_assert!(compile_exists(&in_fragment).is_some());
        let out_of_fragment = ExistsFormula::new(x, y, vec![], fb::succ(x, y)).unwrap();
        prop_assert!(compile_exists(&out_of_fragment).is_none());
        for phi in [&in_fragment, &out_of_fragment] {
            for u in t.node_ids() {
                let (got, _) = fo_select_routed(&t, &idx, phi, u);
                prop_assert_eq!(got, phi.select(&t, u), "context {:?}", u);
            }
        }
    }
}

/// Both sides of `eval_plan_from`'s arena check. A parsed tree's arena
/// ids are its pre-order positions, so the pre-order result is returned as
/// it is; the random tree it was written from numbers its nodes in
/// another order, so the result is permuted back. On each, the planner
/// under every `Force` equals the walker, and the FO router equals the
/// backtracking selector from every context node.
#[test]
fn parsed_and_permuted_trees_answer_alike() {
    let mut vocab = Vocab::new();
    let cfg = hostile_cfg(&mut vocab, 200, None);
    let permuted = random_tree(&cfg, 11);
    let parsed = parse_xml(&to_xml(&permuted, &vocab), &mut vocab).expect("to_xml output parses");
    assert!(TreeIndex::build(&parsed).intervals().arena_is_preorder());
    assert!(!permuted.nodes().eq(permuted.node_ids()));
    assert!(!TreeIndex::build(&permuted).intervals().arena_is_preorder());

    let (x, y) = (Var(0), Var(1));
    let (a, b) = (cfg.attributes[0].0, cfg.attributes[1].0);
    let in_fragment = ExistsFormula::new(
        x,
        y,
        vec![],
        fb::or(vec![
            fb::and(vec![fb::desc(x, y), fb::lab(Label::Sym(cfg.symbols[0]), y)]),
            fb::and(vec![fb::edge(y, x), fb::val_eq(a, y, b, y)]),
        ]),
    )
    .unwrap();
    assert!(compile_exists(&in_fragment).is_some());
    let out_of_fragment = ExistsFormula::new(x, y, vec![], fb::succ(x, y)).unwrap();
    let ctx = RewriteCtx::unconstrained();
    let model = CostModel::default();
    for t in [&parsed, &permuted] {
        let idx = TreeIndex::build(t);
        for seed in 0..48 {
            let p = random_xpath(&xcfg(&cfg), seed);
            let want = eval_from(t, &p, t.root());
            for force in [Force::Auto, Force::Index, Force::Walk] {
                let (got, plan) = run_query_indexed(t, &idx, &p, &ctx, &model, force);
                assert_eq!(
                    got, want,
                    "seed {seed} force {force:?} via {:?}",
                    plan.evaluator
                );
            }
        }
        for phi in [&in_fragment, &out_of_fragment] {
            for u in t.node_ids() {
                assert_eq!(
                    fo_select_routed(t, &idx, phi, u).0,
                    phi.select(t, u),
                    "{u:?}"
                );
            }
        }
    }
}

/// Shaped trees at the extremes: depth, width, balance.
#[test]
fn shaped_trees_agree_on_axis_heavy_queries() {
    let mut vocab = Vocab::new();
    let s = vocab.sym("s");
    let t0 = vocab.sym("t");
    let trees = [
        chain_tree(s, 200),
        comb_tree(s, 120),
        star_tree(s, 300),
        perfect_tree(s, 3, 5),
    ];
    let queries = [
        twq::xpath::ast::xb::from_desc(twq::xpath::ast::xb::name(s)),
        twq::xpath::ast::xb::from_desc(twq::xpath::ast::xb::name(t0)),
        twq::xpath::ast::xb::filter(
            twq::xpath::ast::xb::from_desc(twq::xpath::ast::xb::wild()),
            twq::xpath::ast::xb::name(s),
        ),
        twq::xpath::ast::xb::from_root(twq::xpath::ast::xb::desc(
            twq::xpath::ast::xb::wild(),
            twq::xpath::ast::xb::name(s),
        )),
    ];
    for t in &trees {
        for q in &queries {
            assert_index_matches_walk(t, q);
        }
    }
}

/// Node counts straddling the `NodeSet` word boundaries: postings and
/// insert_range must be exact at 63/64/65 and 127/128/129 bits.
#[test]
fn word_boundary_sizes_are_exact() {
    let mut vocab = Vocab::new();
    let s = vocab.sym("s");
    let q_all = twq::xpath::ast::xb::from_desc(twq::xpath::ast::xb::wild());
    let q_s = twq::xpath::ast::xb::from_desc(twq::xpath::ast::xb::name(s));
    for n in [63usize, 64, 65, 127, 128, 129] {
        // Chain (deepest) and star (widest) at exactly n nodes.
        for t in [chain_tree(s, n - 1), star_tree(s, n - 1)] {
            assert_eq!(t.len(), n, "generator size contract");
            let idx = TreeIndex::build(&t);
            // Whole-tree postings: every node is an s-node.
            let posting = idx.label_posting(s).expect("all nodes labelled s");
            assert_eq!(posting.len(), n);
            // Empty postings: a symbol that never occurs.
            let ghost = vocab.sym("ghost");
            assert!(idx.label_posting(ghost).is_none());
            assert_index_matches_walk(&t, &q_all);
            assert_index_matches_walk(&t, &q_s);
        }
    }
}

/// Per attribute column, its `(value, members)` groups, members as
/// ascending pre-order positions.
type Groups = Vec<Vec<(Value, Vec<u32>)>>;

fn value_groups(t: &Tree, idx: &TreeIndex) -> Groups {
    (0..t.attr_columns())
        .map(|c| {
            let col = idx.value_groups(AttrId(c as u16));
            let groups = col.values().iter().enumerate();
            groups.map(|(g, &v)| (v, col.group(g).to_vec())).collect()
        })
        .collect()
}

/// Batch index builds across a pool are identical to serial builds, in
/// their answers and in every value group. The trees come largest first,
/// so a sort key one worker's scratch kept from its previous tree would
/// land in a smaller tree's groups.
#[test]
fn batch_builds_are_deterministic() {
    let mut vocab = Vocab::new();
    let mut cfg = hostile_cfg(&mut vocab, 300, None);
    let trees: Vec<Tree> = (0..6u64)
        .map(|seed| {
            cfg.nodes = 300 - 50 * seed as usize;
            random_tree(&cfg, seed)
        })
        .collect();
    let q = random_xpath(&xcfg(&cfg), 7);
    let plan = compile_xpath(&q);
    let answers = |idxs: &[TreeIndex]| -> Vec<(NodeSet, Groups)> {
        trees
            .iter()
            .zip(idxs)
            .map(|(t, idx)| {
                (
                    eval_plan_from(t, idx, &plan, t.root()),
                    value_groups(t, idx),
                )
            })
            .collect()
    };
    let serial = answers(&trees.iter().map(TreeIndex::build).collect::<Vec<_>>());
    for workers in [1, 4] {
        let batch = answers(&build_indexes(&trees, &Pool::new(workers)));
        assert_eq!(batch, serial, "workers={workers}");
    }
}

/// Unique ids, the paper's §7 setting, give every node a value group of
/// its own: postings stay linear in the tree, and each group answers its
/// `//*[@a=v]` lookup with exactly the node carrying `v`.
#[test]
fn unique_id_postings_stay_linear() {
    use twq::xpath::ast::xb;
    for nodes in [1usize << 10, 1 << 12, 1 << 14, 1 << 16] {
        let mut vocab = Vocab::new();
        let symbols = (0..16).map(|i| vocab.sym(&format!("s{i}"))).collect();
        let a = vocab.attr("a");
        let cfg = TreeGenConfig {
            nodes,
            max_children: 4,
            symbols,
            attributes: Vec::new(),
            collision_pool: None,
        };
        let mut t = random_tree(&cfg, nodes as u64);
        t.assign_unique_ids(a, &mut vocab);
        let idx = TreeIndex::build(&t);
        let stats = idx.stats();
        assert_eq!(stats.distinct_values, nodes);
        assert!(
            stats.postings_bytes <= 32 * nodes,
            "{nodes} nodes: {} postings bytes",
            stats.postings_bytes
        );
        for u in t.node_ids().skip(1).step_by(nodes / 8) {
            let v = t.attr(u, a);
            let owner = t.node_with_id(a, v).expect("every id is assigned");
            let q = xb::filter_attr_const(xb::from_desc(xb::wild()), a, v);
            assert_eq!(
                eval_plan_from(&t, &idx, &compile_xpath(&q), t.root()),
                NodeSet::from([owner]),
                "{nodes} nodes, id of {u:?}"
            );
        }
    }
}

/// Every posting and statistic of `t`'s index against its definition on
/// `t`'s own links, in pre-order space.
fn assert_postings_follow_definitions(t: &Tree) {
    t.check_consistency().unwrap();
    let idx = TreeIndex::build(t);
    let iv = idx.intervals();
    let (n, words) = (t.len(), t.len().div_ceil(64));
    let nodes_where = |keep: &dyn Fn(NodeId) -> bool| -> NodeSet {
        t.node_ids()
            .filter(|&u| keep(u))
            .map(|u| NodeId(iv.begin(u)))
            .collect()
    };
    // Compared by members, count and words: `want` grows word by word as
    // its members are inserted, so its words end at its last member's.
    let assert_posting = |got: &NodeSet, want: &NodeSet, full_width: bool| {
        assert_eq!((got, got.len()), (want, want.len()));
        let width = if full_width { words } else { want.word_count() };
        assert_eq!(got.word_count(), width);
        8 * width
    };

    let mut bytes = 0;
    let syms: Vec<SymId> = t.node_ids().filter_map(|u| t.label(u).sym()).collect();
    let top = syms.iter().map(|s| s.0).max().map_or(0, |s| s + 1);
    for s in (0..=top).map(SymId) {
        let want = nodes_where(&|u| t.label(u) == Label::Sym(s));
        match idx.label_posting(s) {
            Some(got) => bytes += assert_posting(got, &want, false),
            None => assert!(want.is_empty(), "no posting for {s:?}"),
        }
    }
    bytes += assert_posting(idx.leaves(), &nodes_where(&|u| t.is_leaf(u)), true);
    bytes += assert_posting(idx.firsts(), &nodes_where(&|u| t.is_first(u)), true);
    bytes += assert_posting(idx.lasts(), &nodes_where(&|u| t.is_last(u)), true);

    let mut distinct_values = 0;
    for a in (0..t.attr_columns() as u16).map(AttrId) {
        let want = nodes_where(&|u| !t.attr(u, a).is_bot());
        match idx.has_attr(a) {
            Some(got) => bytes += assert_posting(got, &want, true),
            None => {
                assert!(want.is_empty(), "no has_attr for {a:?}");
                bytes += 8 * words;
            }
        }
        let mut groups: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
        for u in t.node_ids().filter(|&u| !t.attr(u, a).is_bot()) {
            groups.entry(t.attr(u, a)).or_default().push(iv.begin(u));
        }
        groups.values_mut().for_each(|g| g.sort_unstable());
        let col = idx.value_groups(a);
        let got: Vec<(Value, &[u32])> = col
            .values()
            .iter()
            .enumerate()
            .map(|(g, &v)| (v, col.group(g)))
            .collect();
        let want: Vec<(Value, &[u32])> = groups.iter().map(|(&v, g)| (v, &g[..])).collect();
        assert_eq!(got, want, "column {a:?}");
        for (v, g) in want {
            assert_eq!(idx.value_posting(a, v), Some(g));
        }
        distinct_values += groups.len();
        bytes += 4 * groups.values().map(Vec::len).sum::<usize>() + 8 * groups.len();
    }

    let depths: Vec<usize> = t.node_ids().map(|u| t.depth(u)).collect();
    let mut labels = syms;
    labels.sort_unstable();
    labels.dedup();
    let stats = idx.stats();
    assert_eq!(stats.nodes, n);
    assert_eq!(stats.max_depth, depths.iter().copied().max().unwrap());
    assert_eq!(
        stats.avg_depth,
        depths.iter().sum::<usize>() as f64 / n as f64
    );
    assert_eq!(stats.leaves, t.node_ids().filter(|&u| t.is_leaf(u)).count());
    assert_eq!(stats.distinct_labels, labels.len());
    assert_eq!(stats.root_label, t.label(t.root()).sym());
    assert_eq!(stats.distinct_values, distinct_values);
    assert_eq!(stats.postings_bytes, bytes);
}

/// The postings checked against their definitions on three kinds of
/// tree: a generated tree (its arena is not in pre-order), the same tree
/// read back from XML (its arena is), and its delimited tree (delimiter
/// labels have no posting). Then raw value ids that need one, two and
/// three 11-bit digits in columns 0, 1 and 2, with `⊥` gaps: in each
/// column the order of the lower digits alone is not the value order, so
/// a sort that stops a pass early, or is not stable, misorders groups or
/// their members.
#[test]
fn postings_follow_their_definitions() {
    let mut vocab = Vocab::new();
    let mut cfg = hostile_cfg(&mut vocab, 300, None);
    for nodes in [1, 64, 65, 300] {
        cfg.nodes = nodes;
        let permuted = random_tree(&cfg, nodes as u64);
        let parsed =
            parse_xml(&to_xml(&permuted, &vocab), &mut vocab).expect("to_xml output parses");
        assert!(TreeIndex::build(&parsed).intervals().arena_is_preorder());
        assert_eq!(
            TreeIndex::build(&permuted).intervals().arena_is_preorder(),
            nodes == 1
        );
        for t in [&permuted, &parsed, DelimTree::build(&permuted).tree()] {
            assert_postings_follow_definitions(t);
        }
    }

    let mut raw = random_tree(&cfg, 7);
    let pools: [&[u32]; 3] = [
        &[5, 9, 2047],
        &[5, 2047, 3000],
        &[5, 3000, (1 << 22) + 1, u32::MAX - 1],
    ];
    for (c, pool) in pools.iter().enumerate() {
        for u in raw.node_ids() {
            let k = u.0 as usize;
            let v = match k % 5 {
                4 => Value::BOT,
                _ => Value(pool[(k * 7 + c) % pool.len()]),
            };
            raw.set_attr(u, AttrId(c as u16), v);
        }
    }
    assert_postings_follow_definitions(&raw);
    assert_postings_follow_definitions(DelimTree::build(&raw).tree());
}
