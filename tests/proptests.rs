//! Property-based tests over the whole workspace: structural invariants,
//! round trips, and evaluator cross-validation on randomized inputs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use twq::fuzz::{gen_exists, Universe};
use twq::logic::eval::select as naive_select;
use twq::protocol::{
    decode as hs_decode, encode, encode_shuffled, random_hyperset, HyperGenConfig, Markers,
};
use twq::tree::generate::{chain_tree, random_tree, TreeGenConfig};
use twq::tree::order::{doc_index, doc_predecessor, doc_successor, node_at_doc_index};
use twq::tree::{parse_tree, tree_to_string, DelimTree, NodeId, NodeSet, Vocab};
use twq::xpath::{compile, eval_from, random_xpath, XPathGenConfig};

fn arb_tree_params() -> impl Strategy<Value = (u64, usize, usize)> {
    (0u64..1_000, 1usize..40, 1usize..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// delim(t) followed by strip is the identity on shape, labels, and
    /// attribute values.
    #[test]
    fn delim_strip_round_trip((seed, nodes, width) in arb_tree_params()) {
        let mut vocab = Vocab::new();
        let mut cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1, 2, 3]);
        cfg.max_children = width;
        let t = random_tree(&cfg, seed);
        let dt = DelimTree::build(&t);
        dt.tree().check_consistency().unwrap();
        let back = dt.strip();
        prop_assert_eq!(tree_to_string(&back, &vocab), tree_to_string(&t, &vocab));
    }

    /// The term syntax round-trips: display ∘ parse ∘ display = display.
    #[test]
    fn term_syntax_round_trip((seed, nodes, width) in arb_tree_params()) {
        let mut vocab = Vocab::new();
        let mut cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1, 2]);
        cfg.max_children = width;
        let t = random_tree(&cfg, seed);
        let shown = tree_to_string(&t, &vocab);
        let parsed = parse_tree(&shown, &mut vocab).unwrap();
        prop_assert_eq!(tree_to_string(&parsed, &vocab), shown);
    }

    /// Document order: successor and predecessor invert each other, and
    /// the index round-trips.
    #[test]
    fn doc_order_invariants((seed, nodes, width) in arb_tree_params()) {
        let mut vocab = Vocab::new();
        let mut cfg = TreeGenConfig::example32(&mut vocab, nodes, &[]);
        cfg.max_children = width;
        let t = random_tree(&cfg, seed);
        let idx = doc_index(&t);
        for u in t.node_ids() {
            prop_assert_eq!(node_at_doc_index(&t, idx[u.0 as usize]), Some(u));
            if let Some(s) = doc_successor(&t, u) {
                prop_assert_eq!(doc_predecessor(&t, s), Some(u));
                prop_assert_eq!(idx[s.0 as usize], idx[u.0 as usize] + 1);
            }
        }
    }

    /// XPath: the compiled FO(∃*) formula selects exactly what the
    /// reference evaluator selects, from every context node.
    #[test]
    fn xpath_compilation_is_sound_and_complete(
        tree_seed in 0u64..500,
        path_seed in 0u64..500,
        nodes in 2usize..25,
    ) {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1, 2]);
        let t = random_tree(&cfg, tree_seed);
        let a = vocab.attr_opt("a").unwrap();
        let one = vocab.val_int_opt(1).unwrap();
        let xcfg = XPathGenConfig {
            symbols: cfg.symbols.clone(),
            attrs: vec![a],
            values: vec![one],
            max_depth: 4,
        };
        let path = random_xpath(&xcfg, path_seed);
        let phi = compile(&path);
        for u in t.node_ids() {
            let direct = eval_from(&t, &path, u);
            let logical = phi.select(&t, u);
            prop_assert_eq!(&direct, &logical, "node {}", u);
        }
    }

    /// `ExistsFormula::select` agrees with the naive evaluator, on
    /// XPath-compiled formulas and on formulas drawn directly by the fuzz
    /// generator (`<`, `succ`, negation, cycles and value joins, so both
    /// the semi-join and the backtracking branches run), on plain and
    /// delimited trees. The naive evaluator is `O(n^k)` in the quantifier
    /// count, so compiled formulas with many existentials are skipped —
    /// selection against naive at scale is the `ablation_select` bench's
    /// job.
    #[test]
    fn exists_evaluators_agree(
        tree_seed in 0u64..300,
        path_seed in 0u64..300,
        nodes in 2usize..8,
        direct_seed in 0u64..10_000,
        delimited in 0u8..2,
    ) {
        let uni = Universe::standard();
        let mut rng = StdRng::seed_from_u64(direct_seed);
        let direct = gen_exists(&mut rng, &uni);
        let cfg = TreeGenConfig {
            // A delimited tree has 2–3 nodes per original one.
            nodes: if delimited == 1 { nodes / 2 } else { nodes },
            max_children: 3,
            symbols: uni.symbols.clone(),
            attributes: vec![(uni.attr, uni.values.clone())],
            collision_pool: None,
        };
        let plain = random_tree(&cfg, tree_seed);
        let t = if delimited == 1 { DelimTree::build(&plain).tree().clone() } else { plain };
        let formula = direct.to_formula();
        for u in t.node_ids() {
            let fast = direct.select(&t, u);
            let naive = naive_select(&t, &formula, direct.x(), u, direct.y()).unwrap();
            prop_assert_eq!(&fast, &naive, "direct formula, node {}", u);
        }

        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1]);
        let t = random_tree(&cfg, tree_seed);
        let xcfg = XPathGenConfig {
            symbols: cfg.symbols.clone(),
            attrs: vec![],
            values: vec![],
            max_depth: 2,
        };
        let phi = compile(&random_xpath(&xcfg, path_seed));
        prop_assume!(phi.quantified().len() <= 5);
        let formula = phi.to_formula();
        for u in t.node_ids() {
            let fast = phi.select(&t, u);
            let naive = naive_select(&t, &formula, phi.x(), u, phi.y()).unwrap();
            prop_assert_eq!(&fast, &naive, "node {}", u);
        }
    }

    /// Hyperset encodings decode back to the hyperset they denote, even
    /// when shuffled and with duplicates.
    #[test]
    fn hyperset_codec_round_trip(
        seed in 0u64..1_000,
        shuffle in 0u64..50,
        level in 1usize..4,
    ) {
        let mut vocab = Vocab::new();
        let markers = Markers::new(3, &mut vocab);
        let data: Vec<_> = (100..104).map(|i| vocab.val_int(i)).collect();
        let cfg = HyperGenConfig { level, data, max_members: 3 };
        let h = random_hyperset(&cfg, seed);
        // The canonical and shuffled encodings denote the same hyperset.
        // (The declared level may exceed the realized one for degenerate
        // empty nestings; decode at the realized level.)
        let lv = h.level();
        let canon = encode(&h, &markers);
        let decoded = hs_decode(lv, &canon, &markers);
        prop_assert_eq!(decoded.as_ref(), Some(&h));
        let shuffled = encode_shuffled(&h, &markers, shuffle);
        prop_assert_eq!(hs_decode(lv, &shuffled, &markers), Some(h));
    }

    /// The descendants caterpillar equals the FO `≺` relation.
    #[test]
    fn caterpillar_descendants_equals_desc((seed, nodes, width) in arb_tree_params()) {
        use twq::automata::caterpillar::{cat, select};
        let mut vocab = Vocab::new();
        let mut cfg = TreeGenConfig::example32(&mut vocab, nodes.min(20), &[]);
        cfg.max_children = width;
        let t = random_tree(&cfg, seed);
        let e = cat::descendants();
        for u in t.node_ids() {
            let selected = select(&t, &e, u);
            let expected: Vec<_> = t
                .node_ids()
                .filter(|&v| t.is_strict_ancestor(u, v))
                .collect();
            prop_assert_eq!(&selected, &expected, "from {}", u);
        }
    }

    /// The 2DFA → TW embedding is exact on random words.
    #[test]
    fn twodfa_embedding_is_exact(seed in 0u64..500, len in 1usize..14) {
        use rand::{Rng, SeedableRng};
        use twq::automata::twodfa::{even_as_and_bs, word_tree, DHalt};
        let mut vocab = Vocab::new();
        let a = vocab.sym("a");
        let b = vocab.sym("b");
        let m = even_as_and_bs(a, b);
        let walker = m.to_walker(&[a, b]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let word: Vec<_> = (0..len)
            .map(|_| if rng.gen_bool(0.5) { a } else { b })
            .collect();
        let direct = m.run(&word) == DHalt::Accept;
        let t = word_tree(&word);
        let walked =
            twq::automata::run_on_tree(&walker, &t, twq::automata::Limits::default());
        prop_assert_eq!(walked.accepted(), direct);
    }

    /// Example 3.2's automaton equals its oracle on arbitrary workloads.
    #[test]
    fn example_32_is_its_oracle((seed, nodes, width) in arb_tree_params()) {
        let mut vocab = Vocab::new();
        let ex = twq::automata::examples::example_32(&mut vocab);
        let mut cfg = TreeGenConfig::example32(&mut vocab, nodes.min(25), &[1, 2]);
        cfg.max_children = width;
        let t = random_tree(&cfg, seed);
        let got = twq::automata::run_on_tree(&ex.program, &t, twq::automata::Limits::default());
        prop_assert_eq!(
            got.accepted(),
            twq::automata::examples::oracle_example_32(&t, ex.delta, ex.attr)
        );
    }
}

// ----- NodeSet word boundaries -----------------------------------------
//
// The bitset packs 64 node ids per word; sizes 63/64/65 (and 127/128/129)
// exercise the last-bit-of-a-word, exact-fit, and first-bit-of-a-new-word
// cases where masking bugs live. The vendored proptest only samples
// integer tuples, so sizes index a fixed boundary table and memberships
// derive from seeded RNGs.

const BOUNDARY_SIZES: [usize; 6] = [63, 64, 65, 127, 128, 129];

fn boundary_sets(n: usize, seed: u64) -> (NodeSet, std::collections::BTreeSet<u32>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = NodeSet::with_capacity(n);
    let mut reference = std::collections::BTreeSet::new();
    for i in 0..n as u32 {
        if rng.gen_bool(0.5) {
            set.insert(NodeId(i));
            reference.insert(i);
        }
    }
    (set, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Set algebra at word boundaries matches a `BTreeSet` reference
    /// model, and iteration is ascending — i.e. document order on a chain
    /// tree, whose arena order and pre-order coincide.
    #[test]
    fn nodeset_word_boundary_algebra(
        (size_idx, seed_a, seed_b) in (0usize..6, 0u64..1_000_000, 0u64..1_000_000)
    ) {
        let n = BOUNDARY_SIZES[size_idx];
        let (mut a, ref_a) = boundary_sets(n, seed_a);
        let (b, ref_b) = boundary_sets(n, seed_b);
        prop_assert_eq!(a.len(), ref_a.len());
        for i in 0..n as u32 {
            prop_assert_eq!(a.contains(NodeId(i)), ref_a.contains(&i));
        }

        // Ascending iteration ≡ document order: on a chain tree every
        // node id equals its pre-order index.
        let chain = chain_tree(twq::tree::SymId(0), n - 1);
        prop_assert_eq!(chain.len(), n);
        let doc: Vec<NodeId> = chain.nodes().filter(|u| a.contains(*u)).collect();
        prop_assert_eq!(a.to_vec(), doc);

        let mut union = a.clone();
        union.union_with(&b);
        prop_assert_eq!(
            union.to_vec(),
            ref_a.union(&ref_b).map(|&i| NodeId(i)).collect::<Vec<_>>()
        );

        let mut inter = a.clone();
        inter.intersect_with(&b);
        prop_assert_eq!(
            inter.to_vec(),
            ref_a.intersection(&ref_b).map(|&i| NodeId(i)).collect::<Vec<_>>()
        );

        a.difference_with(&b);
        prop_assert_eq!(
            a.to_vec(),
            ref_a.difference(&ref_b).map(|&i| NodeId(i)).collect::<Vec<_>>()
        );
    }

    /// Equality is content-only: the same members held in backings of
    /// different capacities (auto-grown, exact, oversized) compare equal,
    /// in both directions, including after removals leave all-zero words.
    #[test]
    fn nodeset_eq_ignores_capacity(
        (size_idx, seed) in (0usize..6, 0u64..1_000_000)
    ) {
        let n = BOUNDARY_SIZES[size_idx];
        let (exact, members) = boundary_sets(n, seed);
        let mut grown = NodeSet::new();
        let mut oversized = NodeSet::with_capacity(n + 130);
        for &i in &members {
            grown.insert(NodeId(i));
            oversized.insert(NodeId(i));
        }
        prop_assert_eq!(&grown, &exact);
        prop_assert_eq!(&exact, &grown);
        prop_assert_eq!(&grown, &oversized);
        prop_assert_eq!(&oversized, &grown);

        // Insert a member in a fresh top word, then remove it: the
        // trailing all-zero word must not break equality either way.
        let far = NodeId((n + 129) as u32);
        grown.insert(far);
        prop_assert_ne!(&grown, &exact);
        grown.remove(far);
        prop_assert_eq!(&grown, &exact);
        prop_assert_eq!(&exact, &grown);
    }
}
