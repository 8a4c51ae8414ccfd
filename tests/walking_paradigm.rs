//! Cross-crate checks tying the walking paradigm's formalisms together:
//! caterpillars vs. XPath vs. FO, XPath-compiled tree-walking acceptors,
//! and the parsed-FO front end against built formulas.

use twq::automata::caterpillar::{cat, select as cat_select};
use twq::automata::examples::{distinct_values_at_least, example_32};
use twq::automata::{run_on_tree, Action, Limits};
use twq::guard::{NullGuard, ResourceGuard};
use twq::logic::exists::selectors;
use twq::logic::{eval_sentence, parse_fo, Formula, TreeAtom, Var};
use twq::obs::{FoEval, MetricsCollector, NullCollector};
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::{parse_tree, parse_xml, to_xml, DelimTree, Label, NodeSet, Vocab};
use twq::xpath::{
    eval_from, eval_from_in, parse_xpath, xpath_to_program, Pred, SelectionTest, XPath,
};

/// The descendants relation agrees across all three formalisms:
/// caterpillar `(down right*)+`, XPath `//*`-from-context, and FO `≺`.
#[test]
fn three_views_of_descendants() {
    let mut vocab = Vocab::new();
    let cfg = TreeGenConfig::example32(&mut vocab, 25, &[]);
    let path = parse_xpath("//*", &mut vocab).unwrap();
    let e = cat::descendants();
    for seed in 0..5 {
        let t = random_tree(&cfg, seed);
        for u in t.node_ids() {
            let via_cat = cat_select(&t, &e, u);
            let via_xpath: Vec<_> = eval_from(&t, &path, u).into_iter().collect();
            let via_fo: Vec<_> = t
                .node_ids()
                .filter(|&v| t.is_strict_ancestor(u, v))
                .collect();
            assert_eq!(via_cat, via_fo, "caterpillar vs FO, seed {seed}");
            assert_eq!(via_xpath, via_fo, "xpath vs FO, seed {seed}");
        }
    }
}

/// The walking XPath evaluator is linear: it evaluates each AST node once
/// per query, set-at-a-time, so its `FoEval::Path` count is the same on
/// trees of 1k to 64k nodes and at most `|q|`. A per-context walker's
/// count grows with the tree — quadratically on `//l//m`.
#[test]
fn walking_xpath_evaluates_each_ast_node_once_at_any_size() {
    let mut vocab = Vocab::new();
    // `l`, `m`, `n`, `x` are drawn five times as often as each `s{i}`, so
    // every query selects something at every size.
    let symbols: Vec<_> = (0..20)
        .map(|i| format!("s{i}"))
        .chain(["l", "m", "n", "x"].repeat(5).into_iter().map(String::from))
        .map(|s| vocab.sym(&s))
        .collect();
    // `//*[//x]` is `//*[.//x]`: a filter path's leading `//` starts at
    // the filtered node.
    for q in ["//s17", "//l//m", "//l[m]/n", "//*[//x]"] {
        let p = parse_xpath(q, &mut vocab).unwrap();
        let mut first = None;
        for nodes in [1 << 10, 1 << 12, 1 << 14, 1 << 16] {
            let cfg = TreeGenConfig {
                nodes,
                max_children: 4,
                symbols: symbols.clone(),
                attributes: Vec::new(),
                collision_pool: None,
            };
            let t = random_tree(&cfg, 7);
            let mut c = MetricsCollector::new();
            let out = eval_from_in(&t, &p, t.root(), &mut c, &mut NullGuard).unwrap();
            assert!(!out.is_empty(), "{q} selects nothing on {nodes} nodes");
            let calls = c.metrics.fo(FoEval::Path);
            let first = *first.get_or_insert(calls);
            assert_eq!(calls, first, "{q}: path evaluations grow with the tree");
            assert!(calls <= p.size() as u64, "{q}: {calls} evaluations > |q|");
        }
    }
}

/// Set-at-a-time `FO(∃*)` selection is linear too. From the root of a
/// delimited tree of 1k to 64k nodes, each of Example 3.2's selectors, the
/// `parent` selector and `distinct_values_at_least`'s selector applies
/// each literal once: its `FoEval::Atom` count is the same at every size
/// and at most `|φ|`, and its fuel grows by at most 2.2× per doubling.
/// A backtracking selector tries every node as `y`, so both grow with the
/// tree — φ₂'s fuel quadratically.
#[test]
fn exists_selection_applies_each_literal_once_at_any_size() {
    let mut vocab = Vocab::new();
    let ex = example_32(&mut vocab);
    let distinct = distinct_values_at_least(&[ex.sigma, ex.delta], ex.attr, 3);
    let distinct_phi = distinct
        .rules()
        .iter()
        .find_map(|r| match &r.action {
            Action::Atp(_, phi, _, _) => Some(phi.clone()),
            _ => None,
        })
        .expect("the program looks ahead");
    let phis = [
        ("φ₁", selectors::descendants_labeled(Label::Sym(ex.delta))),
        ("φ₂", selectors::delim_leaf_descendants()),
        ("parent", selectors::parent()),
        ("distinct_values_at_least", distinct_phi),
    ];
    let mut last: Vec<Option<(u64, u64)>> = vec![None; phis.len()];
    for nodes in (10..=16).map(|k| 1usize << k) {
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1]);
        let dt = DelimTree::build(&random_tree(&cfg, 7));
        let t = dt.tree();
        for ((name, phi), last) in phis.iter().zip(&mut last) {
            let mut c = MetricsCollector::new();
            let mut g = ResourceGuard::unlimited();
            phi.select_in(t, t.root(), &mut c, &mut g).unwrap();
            let (atoms, fuel) = (c.metrics.fo(FoEval::Atom), g.fuel_spent());
            assert!(atoms <= phi.size() as u64, "{name}: {atoms} atoms > |φ|");
            if let Some((a, f)) = *last {
                assert_eq!(atoms, a, "{name}: atom count grows with the tree");
                assert!(
                    fuel * 10 <= f * 22,
                    "{name}: fuel {f} → {fuel} from {} to {nodes} nodes",
                    nodes / 2
                );
            }
            *last = Some((atoms, fuel));
        }
    }
}

/// φ₂ = ∃z (x ≺ y ∧ E(y, z) ∧ O_△(z)) from a δ-node touches that node's
/// subtree and the path above it, not the whole tree: from every δ-node
/// `u` of a 4k-node tree, its fuel is at most
/// `C·(|subtree(u)| + depth(u) + 1)` with `C = 8` (the worst node measures
/// 4.8).
#[test]
fn delim_leaf_selection_stays_in_the_subtree() {
    const C: u64 = 8;
    let mut vocab = Vocab::new();
    let ex = example_32(&mut vocab);
    let cfg = TreeGenConfig::example32(&mut vocab, 1 << 12, &[1]);
    let dt = DelimTree::build(&random_tree(&cfg, 5));
    let t = dt.tree();
    let phi2 = selectors::delim_leaf_descendants();
    let mut checked = 0;
    for u in t.node_ids().filter(|&u| t.label(u) == Label::Sym(ex.delta)) {
        let mut g = ResourceGuard::unlimited();
        phi2.select_in(t, u, &mut NullCollector, &mut g).unwrap();
        let subtree = t.descendants_of(&NodeSet::from([u])).len() as u64 + 1;
        let reach = subtree + t.depth(u) as u64 + 1;
        assert!(
            g.fuel_spent() <= C * reach,
            "fuel {} from {u} (subtree {subtree}, depth {})",
            g.fuel_spent(),
            t.depth(u)
        );
        checked += 1;
    }
    assert!(checked > 1000, "only {checked} δ-nodes");
}

/// An XML document round-trips through the tree store and an
/// XPath-compiled tree-walking acceptor answers a query on it — the full
/// paper pipeline: XML → attributed tree → XPath → FO(∃*) → tw^{r,l}. Along
/// the way every reader interns a literal as the value the document text
/// that spells it reads as, so a query constant `d ∈ D` denotes itself.
#[test]
fn xml_to_walking_acceptor_pipeline() {
    let mut vocab = Vocab::new();
    let doc = parse_xml(
        r#"<lib><book y="1999"><author id="knuth"/></book><book y="2001"/></lib>"#,
        &mut vocab,
    )
    .unwrap();
    // Round trip.
    let xml = to_xml(&doc, &vocab);
    let doc2 = parse_xml(&xml, &mut vocab).unwrap();
    assert_eq!(doc2.len(), doc.len());

    // The acceptor needs unique IDs for the NonEmpty witness.
    let mut doc = doc;
    let uid = vocab.attr("uid");
    doc.assign_unique_ids(uid, &mut vocab);

    let q_hit = parse_xpath("lib/book/author", &mut vocab).unwrap();
    let q_miss = parse_xpath("lib/author", &mut vocab).unwrap();
    let syms: Vec<_> = vocab.syms().collect();
    let hit = xpath_to_program(&q_hit, &syms, uid, SelectionTest::NonEmpty);
    let miss = xpath_to_program(&q_miss, &syms, uid, SelectionTest::NonEmpty);
    assert!(run_on_tree(&hit, &doc, Limits::default()).accepted());
    assert!(!run_on_tree(&miss, &doc, Limits::default()).accepted());

    let (a, v) = (vocab.sym("a"), vocab.attr("v"));
    for text in [
        "-9223372036854775808",
        "9223372036854775807",
        "-3",
        "0",
        "007",
        "99999999999999999999",
        "x",
        "abc_1",
    ] {
        let doc = parse_xml(&format!(r#"<a v="{text}"/>"#), &mut vocab).unwrap();
        let d = doc.attr(doc.root(), v);
        let step = XPath::Filter(Box::new(XPath::Name(a)), Box::new(Pred::AttrEqConst(v, d)));
        let xpath = parse_xpath(&format!("//a[@v={text}]"), &mut vocab);
        assert_eq!(xpath, Ok(XPath::FromDesc(Box::new(step))), "{text}");
        let fo = parse_fo(&format!("val(v, x) = {text}"), &mut vocab).map(|p| p.formula);
        assert_eq!(
            fo,
            Ok(Formula::Atom(TreeAtom::ValConst(v, Var(0), d))),
            "{text}"
        );
        let term = parse_tree(&format!("a[v={text}]"), &mut vocab).unwrap();
        assert_eq!(term.attr(term.root(), v), d, "{text}");
    }
}

/// Parsed FO sentences agree with the same properties checked natively.
#[test]
fn parsed_fo_agrees_with_native_checks() {
    let mut vocab = Vocab::new();
    let cfg = TreeGenConfig::example32(&mut vocab, 18, &[1, 2]);
    // "some δ node has a σ child" in the parser syntax.
    let p = parse_fo(
        "E x. E y. lab(delta, x) & E(x, y) & lab(sigma, y)",
        &mut vocab,
    )
    .unwrap();
    let delta = vocab.sym_opt("delta").unwrap();
    let sigma = vocab.sym_opt("sigma").unwrap();
    for seed in 0..10 {
        let t = random_tree(&cfg, seed);
        let native = t.node_ids().any(|u| {
            t.label(u) == twq::tree::Label::Sym(delta)
                && t.children(u)
                    .any(|c| t.label(c) == twq::tree::Label::Sym(sigma))
        });
        assert_eq!(
            eval_sentence(&t, &p.formula).unwrap(),
            native,
            "seed {seed}"
        );
    }
}

/// MSO strictly extends FO on an even-counting property: the MSO sentence
/// decides parity where the naive FO analogue (no such sentence exists —
/// we check the MSO one against ground truth).
#[test]
fn mso_counts_where_fo_cannot() {
    use twq::logic::mso::{eval_mso, even_sigma_nodes_on_chains};
    use twq::tree::generate::monadic_tree;
    let mut vocab = Vocab::new();
    let s = vocab.sym("s");
    let a = vocab.attr("a");
    let one = vocab.val_int(1);
    let phi = even_sigma_nodes_on_chains(s);
    for len in 1..=9usize {
        let t = monadic_tree(s, a, &vec![one; len]);
        assert_eq!(eval_mso(&t, &phi).unwrap(), len % 2 == 0, "len {len}");
    }
}
