//! **Theorem 7.1(2), alternation direction:** `PTIME^X = ALOGSPACE^X`, and
//! an alternating machine is simulated by `tw^l` look-ahead — "when a
//! universal state is entered the `tw^l` uses a subcomputation for each
//! branch. Every branch returns a value indicating whether that branch
//! accepts or not."
//!
//! This module implements that sentence as a compiler for **finite-state**
//! alternating xTMs (no tape, no registers — the finite-control core that
//! carries the alternation; the tape part is the pebble machinery of
//! Theorem 7.1(1), composed separately):
//!
//! * each machine state `s` becomes a family of walker states evaluating
//!   "does the game from `(s, here)` accept?";
//! * each applicable rule's branch is probed by
//!   `atp(φ_move, eval_next)` where `φ_move` is the *single-node* selector
//!   for the rule's tree move (self/parent/first-child/left/right — the
//!   shapes Definition 5.1 itself lists), so the compiled program is
//!   genuinely `tw^l`;
//! * a branch subcomputation never rejects — it **returns** `{yes}` or
//!   `{no}` in its first register; an empty `atp` result (the move was
//!   impossible) marks the branch as *absent*;
//! * the results are folded by a guard: universal states accept iff no
//!   present branch returned `{no}`, existential states iff some present
//!   branch returned `{yes}`.
//!
//! Game cycles would make the recursion unbounded; the compiler targets
//! machines whose runs carry a progress measure (every machine in
//! `twq_xtm::machines` does), and the engine's `max_atp_depth` bounds the
//! rest.

use twq_automata::{Action, Dir, State, TwClass, TwProgram, TwProgramBuilder};
use twq_guard::{Guard, TwqError};
use twq_logic::exists::selectors;
use twq_logic::store::sbuild::*;
use twq_logic::{ExistsFormula, RegId, SFormula};
use twq_tree::{Label, Value, Vocab};
use twq_xtm::{Mode, TreeDir, XState, Xtm};

use crate::logspace::CompileError;

/// Extended error for the alternation compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AltCompileError {
    /// Underlying fragment violation (registers/guards).
    Base(CompileError),
    /// The machine uses its work tape — compose with the pebble compiler
    /// instead.
    UsesTape,
}

impl std::fmt::Display for AltCompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AltCompileError::Base(e) => e.fmt(f),
            AltCompileError::UsesTape => {
                write!(f, "alternation compilation requires a tape-free machine")
            }
        }
    }
}

impl std::error::Error for AltCompileError {}

/// The single-node selector for a tree move.
fn move_selector(d: TreeDir) -> ExistsFormula {
    use twq_logic::fo::build as fb;
    match d {
        TreeDir::Stay => selectors::self_node(),
        TreeDir::Up => selectors::parent(),
        TreeDir::Down => selectors::first_child(),
        TreeDir::Right => ExistsFormula::new(
            fb::var(0),
            fb::var(1),
            vec![],
            fb::succ(fb::var(0), fb::var(1)),
        )
        .expect("valid selector"),
        TreeDir::Left => ExistsFormula::new(
            fb::var(0),
            fb::var(1),
            vec![],
            fb::succ(fb::var(1), fb::var(0)),
        )
        .expect("valid selector"),
    }
}

/// The compiled program plus its verdict constants.
#[derive(Debug, Clone)]
pub struct AltProgram {
    /// The class-`tw^l` walker.
    pub program: TwProgram,
    /// The value a branch returns for "accepts".
    pub yes: Value,
    /// The value a branch returns for "rejects".
    pub no: Value,
}

/// Compile a tape-free alternating xTM into a `tw^l` program whose
/// look-ahead subcomputations evaluate the acceptance game.
pub fn compile_alternating(
    machine: &Xtm,
    vocab: &mut Vocab,
) -> Result<AltProgram, AltCompileError> {
    if !machine.is_register_free() {
        return Err(AltCompileError::Base(CompileError::NotRegisterFree));
    }
    if machine.rules().iter().any(|r| {
        r.tape != 0 || r.write != 0 || r.head != twq_xtm::HeadMove::Stay || r.cell0.is_some()
    }) {
        return Err(AltCompileError::UsesTape);
    }

    let yes = vocab.val_str("#twq:alt-yes");
    let no = vocab.val_str("#twq:alt-no");
    let mut b = TwProgramBuilder::new();
    let q_f = b.state("qF");
    let q0 = b.state("q0");
    let q_judge = b.state("q_judge");
    b.initial(q0).final_state(q_f);

    // X1 carries branch verdicts; one extra register per branch position
    // (bounded by the maximal out-degree of any (state, label) pair).
    let x1 = b.register(1, twq_logic::Relation::empty(1));
    let max_branches = {
        let mut counts = std::collections::HashMap::new();
        for r in machine.rules() {
            *counts.entry((r.state, r.label)).or_insert(0usize) += 1;
        }
        counts.values().copied().max().unwrap_or(0)
    };
    let branch_regs: Vec<RegId> = (0..max_branches)
        .map(|_| b.register(1, twq_logic::Relation::empty(1)))
        .collect();

    // Walker states: eval_s entered as a subcomputation at a node; a chain
    // eval_s → step_s_1 → … folds the branch results.
    let eval_state: Vec<State> = (0..machine.state_count())
        .map(|i| b.state(&format!("eval_s{i}")))
        .collect();

    // Labels that occur in rules, plus every label the machine might stand
    // on (delimiters included) so `eval` is total.
    let mut labels: Vec<Label> = machine.rules().iter().map(|r| r.label).collect();
    labels.extend([
        Label::DelimRoot,
        Label::DelimOpen,
        Label::DelimClose,
        Label::DelimLeaf,
    ]);
    labels.sort_unstable();
    labels.dedup();

    let set_verdict = |verdict: Value| -> SFormula { eq(v(0), cst(verdict)) };

    for (si, &es) in eval_state.iter().enumerate() {
        let s = XState(si as u16);
        if s == machine.accept() {
            // Accepting state: return {yes} from anywhere.
            for &l in &labels {
                b.rule_true(l, es, Action::Update(q_f, set_verdict(yes), x1));
            }
            continue;
        }
        let mode = machine.mode(s);
        for &l in &labels {
            let rules: Vec<&twq_xtm::XtmRule> = machine
                .rules()
                .iter()
                .filter(|r| r.state == s && r.label == l)
                .collect();
            if rules.is_empty() {
                // No successors: universal accepts vacuously, existential
                // rejects — both by *returning a verdict*, never rejecting.
                let verdict = if mode == Mode::Univ { yes } else { no };
                b.rule_true(l, es, Action::Update(q_f, set_verdict(verdict), x1));
                continue;
            }
            // Probe each branch into its own register, then judge.
            let mut prev = es;
            for (bi, r) in rules.iter().enumerate() {
                let next_eval = eval_state[r.next.0 as usize];
                let probe_done = if bi + 1 == rules.len() {
                    b.state(&format!("judge_s{si}_{l:?}"))
                } else {
                    b.state(&format!("probe_s{si}_{l:?}_{bi}"))
                };
                b.rule_true(
                    l,
                    prev,
                    Action::Atp(
                        probe_done,
                        move_selector(r.tree),
                        next_eval,
                        branch_regs[bi],
                    ),
                );
                prev = probe_done;
            }
            // Judge: fold the k branch registers. Absent branch = empty
            // register; present = {yes} or {no}.
            let k = rules.len();
            let fold: SFormula = match mode {
                // Universal: accept iff no branch returned {no}.
                Mode::Univ => and((0..k).map(|bi| not(rel(branch_regs[bi], [cst(no)])))),
                // Existential: accept iff some branch returned {yes}.
                Mode::Exist => or((0..k).map(|bi| rel(branch_regs[bi], [cst(yes)]))),
            };
            b.rule(
                l,
                prev,
                fold.clone(),
                Action::Update(q_f, set_verdict(yes), x1),
            );
            b.rule(l, prev, not(fold), Action::Update(q_f, set_verdict(no), x1));
        }
    }

    // Main computation: probe the game from the initial state at ▽, then
    // accept iff the verdict is {yes} (stuck otherwise = reject).
    b.rule_true(
        Label::DelimRoot,
        q0,
        Action::Atp(
            q_judge,
            selectors::self_node(),
            eval_state[machine.initial().0 as usize],
            x1,
        ),
    );
    b.rule(
        Label::DelimRoot,
        q_judge,
        rel(x1, [cst(yes)]),
        Action::Move(q_f, Dir::Stay),
    );

    let program = b
        .build()
        .expect("alternation compilation emits well-formed programs");
    // Every selector is single-node and every register a singleton: tw^l.
    debug_assert_eq!(program.classify(), TwClass::TwL);
    Ok(AltProgram { program, yes, no })
}

/// [`compile_alternating`] under a resource [`Guard`]: one fuel unit per
/// source rule, the game-state family gauged as
/// `GaugeKind::ProductStates`. Fragment refusals surface as
/// [`TwqError::Unsupported`].
pub fn compile_alternating_guarded<G: Guard>(
    machine: &Xtm,
    vocab: &mut Vocab,
    guard: &mut G,
) -> Result<AltProgram, TwqError> {
    crate::charge_compile(machine, guard)?;
    compile_alternating(machine, vocab)
        .map_err(|e| TwqError::unsupported("sim::compile_alternating", e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_automata::{run, Limits};
    use twq_tree::generate::{perfect_tree, random_tree, TreeGenConfig};
    use twq_tree::DelimTree;
    use twq_xtm::machine::XtmLimits;
    use twq_xtm::{machines, run_alternating};

    fn alt_limits() -> Limits {
        Limits {
            max_steps: 50_000_000,
            // Game depth is bounded by tree depth × machine states.
            max_atp_depth: 512,
            cycle_check_interval: 64,
        }
    }

    #[test]
    fn rejects_tape_using_machines() {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 1, &[1]);
        let m = machines::leaf_count_even(&cfg.symbols);
        assert_eq!(
            compile_alternating(&m, &mut vocab).unwrap_err(),
            AltCompileError::UsesTape
        );
    }

    #[test]
    fn compiled_program_is_twl() {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 1, &[]);
        let m = machines::alt_all_leaves_even_depth(&cfg.symbols);
        let alt = compile_alternating(&m, &mut vocab).unwrap();
        assert_eq!(alt.program.classify(), TwClass::TwL);
    }

    #[test]
    fn perfect_trees_decide_by_depth_parity() {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 1, &[]);
        let m = machines::alt_all_leaves_even_depth(&cfg.symbols);
        let alt = compile_alternating(&m, &mut vocab).unwrap();
        for depth in 1..=4usize {
            let t = perfect_tree(cfg.symbols[0], 2, depth);
            let dt = DelimTree::build(&t);
            let expect = depth % 2 == 0;
            let direct = run_alternating(&m, &dt, XtmLimits::default());
            assert_eq!(direct.accepted, expect, "alternating model, depth {depth}");
            let compiled = run(&alt.program, &dt, alt_limits());
            assert!(!compiled.halt.is_limit(), "{:?}", compiled.halt);
            assert_eq!(compiled.accepted(), expect, "compiled tw^l, depth {depth}");
        }
    }

    #[test]
    fn compiled_twl_matches_alternating_model_on_random_trees() {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 10, &[]);
        let m = machines::alt_all_leaves_even_depth(&cfg.symbols);
        let alt = compile_alternating(&m, &mut vocab).unwrap();
        let (mut yes, mut no) = (0, 0);
        // Random trees rarely have all leaves at even depth; salt the
        // workload with perfect trees (depth 2 accepts, depth 3 rejects).
        let mut workload: Vec<twq_tree::Tree> =
            (0..10).map(|seed| random_tree(&cfg, seed)).collect();
        workload.push(perfect_tree(cfg.symbols[0], 2, 2));
        workload.push(perfect_tree(cfg.symbols[0], 3, 2));
        for (seed, t) in workload.into_iter().enumerate() {
            let dt = DelimTree::build(&t);
            let direct = run_alternating(&m, &dt, XtmLimits::default());
            let compiled = run(&alt.program, &dt, alt_limits());
            assert!(
                !compiled.halt.is_limit(),
                "case {seed}: {:?}",
                compiled.halt
            );
            assert_eq!(compiled.accepted(), direct.accepted, "case {seed}");
            assert_eq!(
                compiled.accepted(),
                machines::oracle_all_leaves_even_depth(&t),
                "case {seed}"
            );
            if compiled.accepted() {
                yes += 1;
            } else {
                no += 1;
            }
        }
        assert!(yes > 0 && no > 0, "yes={yes} no={no}");
    }
}
