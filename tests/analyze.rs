//! Integration tests for the static analyzer (`twq-analyze`): the
//! prune-equivalence proptest harness, class-inference agreement with
//! `classify()`/`check_class()` across every bundled program, the seeded
//! ill-formed zoo, and the diagnostic allowlist for the roster.

use proptest::prelude::*;

use twq::analyze::{analyze, analyze_for_class, infer, lint_zoo, prune, run_checked, Severity};
use twq::automata::{examples, run_on_tree, Action, Dir, Limits, TwClass, TwProgram};
use twq::automata::{State, TwProgramBuilder};
use twq::guard::TwqError;
use twq::logic::store::sbuild::*;
use twq::logic::RegId;
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::{DelimTree, Label, Value, Vocab};
use twq::xpath::{random_xpath, xpath_to_program, SelectionTest, XPathGenConfig};

/// Rebuild `prog` with seed-dependent junk that provably cannot change
/// the accepted language: a pair of unreachable states with rules among
/// themselves, and rules with unsatisfiable guards on existing dispatch
/// keys (they never fire and never overlap).
fn junkify(prog: &TwProgram, seed: u64) -> TwProgram {
    let n = prog.state_count();
    let mut b = TwProgramBuilder::new();
    let states: Vec<State> = (0..n)
        .map(|q| b.state(prog.state_name(State(q as u16))))
        .collect();
    let m = |q: State| states[q.0 as usize];
    b.initial(m(prog.initial()));
    b.final_state(m(prog.final_state()));
    let init = prog.initial_store();
    for (i, &arity) in prog.reg_arities().iter().enumerate() {
        b.register(arity, init.get(RegId(i as u8)).clone());
    }
    for r in prog.rules() {
        let action = match &r.action {
            Action::Move(q, d) => Action::Move(m(*q), *d),
            Action::Update(q, psi, reg) => Action::Update(m(*q), psi.clone(), *reg),
            Action::Atp(q, phi, p, reg) => Action::Atp(m(*q), phi.clone(), m(*p), *reg),
        };
        b.rule(r.label, m(r.state), r.guard.clone(), action);
    }
    // Unreachable junk: two states walking in a circle, plus a
    // guaranteed-rejecting leg, depending on the seed.
    let ja = b.state("junk_a");
    let jb = b.state("junk_b");
    b.rule_true(Label::DelimRoot, ja, Action::Move(jb, Dir::Down));
    b.rule_true(Label::DelimRoot, jb, Action::Move(ja, Dir::Up));
    if seed.is_multiple_of(2) {
        b.rule_true(
            Label::DelimLeaf,
            ja,
            Action::Move(m(prog.final_state()), Dir::Stay),
        );
    }
    // Never-firing junk on real dispatch keys: an unsatisfiable guard on
    // up to three existing (label, state) pairs.
    let g = eq(cst(Value(900)), cst(Value(901)));
    let picks = 1 + (seed % 3) as usize;
    for r in prog.rules().iter().take(picks) {
        b.rule(
            r.label,
            m(r.state),
            g.clone(),
            Action::Move(m(prog.final_state()), Dir::Stay),
        );
    }
    b.build()
        .expect("junkified programs keep the builder invariants")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The heart of the prune contract: for XPath-compiled acceptors with
    /// seeded junk mixed in, `prune()` removes at least the junk and the
    /// pruned program accepts exactly the same trees as both the junked
    /// and the original program.
    #[test]
    fn prune_preserves_the_accepted_language(
        tree_seed in 0u64..500,
        path_seed in 0u64..500,
        junk_seed in 0u64..50,
        nodes in 2usize..18,
    ) {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1, 2]);
        let a = vocab.attr_opt("a").unwrap();
        let one = vocab.val_int_opt(1).unwrap();
        let id = vocab.attr("id");
        let xcfg = XPathGenConfig {
            symbols: cfg.symbols.clone(),
            attrs: vec![a],
            values: vec![one],
            max_depth: 3,
        };
        let path = random_xpath(&xcfg, path_seed);
        let orig = xpath_to_program(&path, &cfg.symbols, id, SelectionTest::NonEmpty);
        let junked = junkify(&orig, junk_seed);
        let pruned = prune(&junked);
        // All the injected junk goes: at least 2 junk states and the
        // junk rules (2 circle rules + optional leg + unsat rules).
        prop_assert!(pruned.removed_states.len() >= 2, "{:?}", pruned.removed_states);
        prop_assert!(pruned.removed_rules.len() >= 3, "{:?}", pruned.removed_rules);
        for s in 0..3u64 {
            let mut t = random_tree(&cfg, tree_seed.wrapping_add(s));
            t.assign_unique_ids(id, &mut vocab);
            let a0 = run_on_tree(&orig, &t, Limits::default()).accepted();
            let a1 = run_on_tree(&junked, &t, Limits::default()).accepted();
            let a2 = run_on_tree(&pruned.program, &t, Limits::default()).accepted();
            prop_assert_eq!(a0, a1, "junk changed the language (tree {})", s);
            prop_assert_eq!(a1, a2, "prune changed the language (tree {})", s);
        }
    }

    /// Pruning is idempotent: a pruned program prunes to itself.
    #[test]
    fn prune_is_idempotent(path_seed in 0u64..500, junk_seed in 0u64..50) {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 4, &[1]);
        let a = vocab.attr_opt("a").unwrap();
        let one = vocab.val_int_opt(1).unwrap();
        let id = vocab.attr("id");
        let xcfg = XPathGenConfig {
            symbols: cfg.symbols.clone(),
            attrs: vec![a],
            values: vec![one],
            max_depth: 3,
        };
        let path = random_xpath(&xcfg, path_seed);
        let orig = xpath_to_program(&path, &cfg.symbols, id, SelectionTest::NonEmpty);
        let once = prune(&junkify(&orig, junk_seed));
        let twice = prune(&once.program);
        prop_assert!(!twice.changed(), "second prune removed more: {twice:?}");
    }
}

/// Class inference agrees with `classify()` on every bundled program,
/// and `fits` agrees with `check_class()` against every target class.
#[test]
fn inference_agrees_with_classify_and_check_class() {
    let mut vocab = Vocab::new();
    for (name, prog) in twq::roster(&mut vocab) {
        let inf = infer(&prog);
        assert_eq!(inf.class, prog.classify(), "{name}");
        for target in [TwClass::Tw, TwClass::TwL, TwClass::TwR, TwClass::TwRL] {
            assert_eq!(
                inf.fits(target),
                prog.check_class(target).is_ok(),
                "{name} against {target}"
            );
        }
    }
}

/// Satellite of the `is_single_value_update` audit: a register update
/// written over a non-canonical variable name classifies exactly like
/// its x₀ spelling, and the analyzer's inference agrees.
#[test]
fn single_value_updates_classify_identically_across_variable_names() {
    for var in [0u16, 1, 3] {
        let mut vocab = Vocab::new();
        let sigma = vocab.sym("sigma");
        let a = vocab.attr("a");
        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        let r = b.unary_register();
        b.rule_true(
            Label::Sym(sigma),
            q0,
            Action::Update(qf, eq(v(var), attr(a)), r),
        );
        b.rule_true(Label::DelimRoot, q0, Action::Move(qf, Dir::Stay));
        let prog = b.build().unwrap();
        assert_eq!(prog.classify(), TwClass::Tw, "x{var}");
        assert_eq!(infer(&prog).class, TwClass::Tw, "x{var}");
    }
}

/// Every zoo entry triggers the diagnostic code it was built to trigger.
#[test]
fn the_zoo_is_fully_covered() {
    let mut vocab = Vocab::new();
    let entries = lint_zoo(&mut vocab);
    assert!(entries.len() >= 9);
    for entry in entries {
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

/// The roster lints clean up to an explicit allowlist: every remaining
/// finding is either advisory (Info) or a known, documented consequence
/// of generated code. Anything else is a regression.
#[test]
fn roster_diagnostics_are_fixed_or_allowlisted() {
    // Machine-generated walkers (Theorem 7.1 compilers) manufacture
    // explicit reject-sink states (DS001/DS002) and if/else guard pairs
    // the exclusivity prover cannot fold (OV002, advisory anyway).
    let allow: &[(&str, &[&str])] = &[
        ("logspace(leaf_count_even)", &["DS001", "DS002", "OV002"]),
        ("pspace(leaf_count_even)", &["DS001", "DS002", "OV002"]),
    ];
    let mut vocab = Vocab::new();
    for (name, prog) in twq::roster(&mut vocab) {
        let allowed: &[&str] = allow
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, codes)| *codes)
            .unwrap_or(&[]);
        for d in analyze(&prog).diagnostics {
            if d.severity == Severity::Info {
                continue;
            }
            assert!(
                allowed.contains(&d.code),
                "{name}: unexpected {}",
                d.render(&prog)
            );
        }
    }
}

/// The analyzer gates evaluators: a program beyond the class the caller
/// pays for is rejected statically with `TwqError::Invalid`.
#[test]
fn evaluators_reject_misclassed_programs_statically() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let cfg = TreeGenConfig::example32(&mut vocab, 8, &[1]);
    let t = random_tree(&cfg, 1);
    let dt = DelimTree::build(&t);
    for weak in [TwClass::Tw, TwClass::TwL, TwClass::TwR] {
        let res = run_checked(&ex.program, &dt, Limits::default(), weak);
        assert!(
            matches!(res, Err(TwqError::Invalid { .. })),
            "tw^{{r,l}} program accepted at {weak}: {res:?}"
        );
    }
    let ok = run_checked(&ex.program, &dt, Limits::default(), TwClass::TwRL).unwrap();
    assert_eq!(
        ok.accepted(),
        examples::oracle_example_32(&t, ex.delta, ex.attr)
    );
}
