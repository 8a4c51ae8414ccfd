//! The walking zoo: the paper's relatives of tree-walking automata, side
//! by side on one input —
//!
//! * **caterpillar expressions** (Brüggemann-Klein & Wood, the intro's
//!   first tree-walking instance): regular expressions over moves/tests;
//! * **two-way string automata** (Section 3's opening analogy), embedded
//!   literally into `TW` walkers on monadic trees;
//! * a traced **`tw^{r,l}`** run making the walking visible.
//!
//! ```sh
//! cargo run --example walking_zoo
//! ```

use twq::automata::caterpillar::{cat, parse_caterpillar, select};
use twq::automata::twodfa::{even_as_and_bs, word_tree, DHalt};
use twq::automata::{examples, run_in, run_on_tree, Limits, State};
use twq::guard::NullGuard;
use twq::obs::{Namer, TraceCollector};
use twq::tree::{parse_tree, DelimTree, NodeId, Vocab};

fn main() {
    let mut vocab = Vocab::new();

    // ----- caterpillars --------------------------------------------------
    println!("== caterpillar expressions ==");
    let t = parse_tree("a(b(c,d),e(f(g)))", &mut vocab).unwrap();
    for (name, expr) in [
        ("descendants  (down right*)+", cat::descendants()),
        ("leftmost leaf  down* isLeaf", cat::leftmost_leaf()),
        (
            "last child of the root  down right* isLast",
            parse_caterpillar("down right* isLast", &mut vocab).unwrap(),
        ),
    ] {
        let sel = select(&t, &expr, t.root());
        println!("  {name:<42} → {} node(s) from the root", sel.len());
    }

    // ----- two-way string automata --------------------------------------
    println!("\n== 2DFA ⊆ TW on monadic trees ==");
    let a = vocab.sym("a");
    let b = vocab.sym("b");
    let m = even_as_and_bs(a, b);
    let walker = m.to_walker(&[a, b]).unwrap();
    for word in [vec![a, a, b, b], vec![a, b, b], vec![b, b], vec![a]] {
        let direct = m.run(&word) == DHalt::Accept;
        let t = word_tree(&word);
        let walked = run_on_tree(&walker, &t, Limits::default()).accepted();
        assert_eq!(direct, walked, "the embedding is exact");
        let rendered: Vec<&str> = word.iter().map(|&s| vocab.sym_name(s)).collect();
        println!(
            "  {:<12} 2DFA: {:<7} TW walker: {}",
            rendered.join(""),
            if direct { "accept" } else { "reject" },
            if walked { "accept" } else { "reject" },
        );
    }

    // ----- a traced tw^{r,l} run -----------------------------------------
    println!("\n== Example 3.2, traced (chain and atp spans, up to 8 steps each) ==");
    let ex = examples::example_32(&mut vocab);
    let t = parse_tree("sigma[a=9](delta[a=9](sigma[a=1],sigma[a=1]))", &mut vocab).unwrap();
    let dt = DelimTree::build(&t);
    let mut collector = TraceCollector::with_caps(16, 8);
    let report = run_in(
        &ex.program,
        &dt,
        Limits::default(),
        &mut collector,
        &mut NullGuard,
    )
    .expect("NullGuard never trips");
    let trace = collector.finish("run");
    let state = |q: u32| ex.program.state_name(State(q as u16)).to_owned();
    let node = |n: u64| format!("{n}:{}", dt.tree().label(NodeId(n as u32)).display(&vocab));
    let names = Namer {
        state: &state,
        node: &node,
    };
    print!("{}", trace.render_with(&names));
    println!(
        "…{} steps total, verdict: {}",
        report.steps,
        if report.accepted() {
            "accept"
        } else {
            "reject"
        }
    );

    // ----- the zoo under the static analyzer -----------------------------
    println!("\n== twq-analyze over the zoo's programs ==");
    for (name, prog) in [
        ("2DFA embedding", &walker),
        ("Example 3.2", &ex.program),
        ("traversal", &examples::traversal_program(&[a, b])),
    ] {
        let analysis = twq::analyze::analyze(prog);
        let inf = &analysis.inference;
        println!("  {name}: class {}", inf.class);
        if analysis.diagnostics.is_empty() {
            println!("    clean — no findings");
        }
        for d in &analysis.diagnostics {
            println!("    {}", d.render(prog));
        }
        assert!(
            !analysis.has_errors(),
            "the zoo's programs must lint without errors"
        );
    }
    // The 2DFA product construction manufactures states for every
    // (state, endmarker) pair whether or not the automaton can reach
    // them; prune() removes the dead ones without changing the language.
    let pruned = twq::analyze::prune(&walker);
    let relint = twq::analyze::analyze(&pruned.program);
    println!(
        "  after prune(): {} rule(s) and {} state(s) removed, re-lint: {} finding(s)",
        pruned.removed_rules.len(),
        pruned.removed_states.len(),
        relint.diagnostics.len()
    );
    assert!(relint.diagnostics.is_empty(), "pruned walker lints clean");
}
