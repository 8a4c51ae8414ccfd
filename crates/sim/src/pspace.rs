//! **Theorem 7.1(3), constructive direction:** every `PSPACE^X` xTM can be
//! simulated by a `tw^r` program — "by encoding the tape into a relation
//! in the standard way and then using FO to compute the new configuration
//! from the current one".
//!
//! Concretely:
//!
//! * tape cell `c` is identified with the unique ID of the `c`-th
//!   delimited-tree node in pre-order;
//! * an initial traversal pass builds the **successor relation**
//!   `Succ = {(id(u), id(next(u)))}` in a binary register (the program
//!   constructs its own cell addressing — no auxiliary input is needed);
//! * the tape is the binary relation `Tape = {(pos, sym)}` (absent
//!   position = blank), the head the unary singleton `Head = {pos}`;
//! * reads are FO guards (`∃x (Head(x) ∧ Tape(x, c_sym))`), writes and
//!   head moves are FO register updates over `Succ`;
//! * the walker's own position *is* the machine's tree position — unlike
//!   the LOGSPACE pebble construction, tape work never moves the walker.
//!
//! The compiled program is class `tw^r` (relational storage, **no**
//! look-ahead), and its store stays polynomial (indeed linear) in `|t|`:
//! the `max_store_tuples` meter of the engine witnesses the space bound.

use twq_automata::twir::{when, Cond, Instr, Source, WalkerBuilder};
use twq_automata::{Dir, TwProgram};
use twq_guard::{Guard, TwqError};
use twq_logic::store::sbuild::*;
use twq_logic::{RegId, Relation, SFormula, Var};
use twq_tree::{AttrId, SymId, Value, Vocab};
use twq_xtm::{HeadMove, TreeDir, XState, Xtm};

use crate::logspace::CompileError;

/// The compiled `tw^r` program plus the ID attribute it expects on every
/// delimited-tree node.
#[derive(Debug, Clone)]
pub struct StoreProgram {
    /// The class-`tw^r` program.
    pub program: TwProgram,
    /// The unique-ID attribute used for cell addressing.
    pub id_attr: AttrId,
}

struct Ctx {
    succ: RegId,
    tape: RegId,
    head: RegId,
    root: RegId,
    prev: RegId,
    flag: RegId,
    xstate: RegId,
    cur: RegId,
    matched: RegId,
    end: Value,
    yes: Value,
    no: Value,
    sym_codes: Vec<Value>,
    state_codes: Vec<Value>,
}

impl Ctx {
    fn state_code(&self, s: XState) -> Value {
        self.state_codes[s.0 as usize]
    }

    /// Guard: the symbol under the head is `sym` (blank = no tuple).
    fn read_guard(&self, sym: u8) -> SFormula {
        let (x, y) = (Var(10), Var(11));
        if sym == 0 {
            // ∃x (Head(x) ∧ ¬∃y Tape(x, y))
            SFormula::Exists(
                x,
                Box::new(and([
                    rel(self.head, [v(10)]),
                    not(SFormula::Exists(
                        y,
                        Box::new(rel(self.tape, [v(10), v(11)])),
                    )),
                ])),
            )
        } else {
            SFormula::Exists(
                x,
                Box::new(and([
                    rel(self.head, [v(10)]),
                    rel(self.tape, [v(10), cst(self.sym_codes[sym as usize])]),
                ])),
            )
        }
    }

    /// Guard: the head is (is not) at cell 0.
    fn cell0_guard(&self, at: bool) -> SFormula {
        let g = SFormula::Exists(
            Var(10),
            Box::new(and([rel(self.head, [v(10)]), rel(self.root, [v(10)])])),
        );
        if at {
            g
        } else {
            not(g)
        }
    }

    /// Update: write `sym` at the head position.
    fn write_update(&self, sym: u8) -> Instr {
        // Tape'(x0, x1) = (Tape(x0, x1) ∧ ¬Head(x0))
        //               ∨ (Head(x0) ∧ x1 = c_sym)      [omitted for blank]
        let keep = and([rel(self.tape, [v(0), v(1)]), not(rel(self.head, [v(0)]))]);
        let psi = if sym == 0 {
            // A blank write only erases; x1 still occurs via `keep`, which
            // keeps the query's arity at two.
            keep
        } else {
            or([
                keep,
                and([
                    rel(self.head, [v(0)]),
                    eq(v(1), cst(self.sym_codes[sym as usize])),
                ]),
            ])
        };
        Instr::UpdateRel(self.tape, psi)
    }

    /// Update: move the head.
    fn head_update(&self, mv: HeadMove) -> Option<Instr> {
        let psi = match mv {
            HeadMove::Stay => return None,
            // Head'(x0) = ∃y (Head(y) ∧ Succ(y, x0))
            HeadMove::Right => SFormula::Exists(
                Var(10),
                Box::new(and([
                    rel(self.head, [v(10)]),
                    rel(self.succ, [v(10), v(0)]),
                ])),
            ),
            // Head'(x0) = ∃y (Head(y) ∧ Succ(x0, y)) — empty at cell 0,
            // which sticks the machine (all rules require ∃x Head(x)).
            HeadMove::Left => SFormula::Exists(
                Var(10),
                Box::new(and([
                    rel(self.head, [v(10)]),
                    rel(self.succ, [v(0), v(10)]),
                ])),
            ),
        };
        Some(Instr::UpdateRel(self.head, psi))
    }
}

fn tree_dir(d: TreeDir) -> Option<Dir> {
    match d {
        TreeDir::Stay => None,
        TreeDir::Left => Some(Dir::Left),
        TreeDir::Right => Some(Dir::Right),
        TreeDir::Up => Some(Dir::Up),
        TreeDir::Down => Some(Dir::Down),
    }
}

/// Compile a `PSPACE^X` xTM into a `tw^r` program (Theorem 7.1(3)).
/// The machine must be register-free (deterministic, any finite tape
/// alphabet of at most 16 symbols).
pub fn compile_pspace(
    machine: &Xtm,
    alphabet: &[SymId],
    id_attr: AttrId,
    vocab: &mut Vocab,
) -> Result<StoreProgram, CompileError> {
    if !machine.is_register_free() {
        return Err(CompileError::NotRegisterFree);
    }
    let mut w = WalkerBuilder::new(alphabet);
    let ctx = Ctx {
        succ: w.rel_register(Relation::empty(2)),
        tape: w.rel_register(Relation::empty(2)),
        head: w.rel_register(Relation::empty(1)),
        root: w.rel_register(Relation::empty(1)),
        prev: w.register(None),
        flag: w.register(None),
        xstate: w.register(None),
        cur: w.register(None),
        matched: w.register(None),
        end: vocab.val_str("#twq:end"),
        yes: vocab.val_str("#twq:yes"),
        no: vocab.val_str("#twq:no"),
        sym_codes: (0..16u16)
            .map(|k| vocab.val_str(&format!("#twq:sym{k}")))
            .collect(),
        state_codes: (0..machine.state_count())
            .map(|i| vocab.val_str(&format!("#twq:xstate{i}")))
            .collect(),
    };
    assert!(
        machine
            .rules()
            .iter()
            .all(|r| (r.tape as usize) < 16 && (r.write as usize) < 16),
        "tape alphabet exceeds the 16 interned symbol codes"
    );

    // ----- phase 1: build Root, Head, Succ by one pre-order pass --------
    let mut body = vec![
        // At ▽: Root := {id}, Head := {id} (cell 0), Prev := {id}.
        Instr::UpdateRel(ctx.root, eq(v(0), attr(id_attr))),
        Instr::UpdateRel(ctx.head, eq(v(0), attr(id_attr))),
        Instr::Set(ctx.prev, Source::Attr(id_attr)),
    ];
    {
        // Walk the delimited pre-order; at each new node append
        // (prev, here) to Succ and refresh prev.
        let mut walk_body = twq_automata::twir::macros::delim_doc_next(ctx.flag, ctx.end);
        walk_body.push(when(
            Cond::Not(Box::new(Cond::RegEq(ctx.flag, Source::Const(ctx.end)))),
            vec![
                Instr::UpdateRel(
                    ctx.succ,
                    or([
                        rel(ctx.succ, [v(0), v(1)]),
                        and([rel(ctx.prev, [v(0)]), eq(v(1), attr(id_attr))]),
                    ]),
                ),
                Instr::Set(ctx.prev, Source::Attr(id_attr)),
            ],
        ));
        body.push(Instr::While(
            Cond::Not(Box::new(Cond::RegEq(ctx.flag, Source::Const(ctx.end)))),
            walk_body,
        ));
    }
    // The end-of-walk leaves us back at ▽ (delim_doc_next's end case) —
    // exactly the machine's start position.
    body.push(Instr::Set(
        ctx.xstate,
        Source::Const(ctx.state_code(machine.initial())),
    ));

    // ----- phase 2: interpret -------------------------------------------
    let mut step = vec![
        Instr::Set(ctx.cur, Source::Reg(ctx.xstate)),
        Instr::Set(ctx.matched, Source::Const(ctx.no)),
    ];
    let mut labels: Vec<twq_tree::Label> = machine.rules().iter().map(|r| r.label).collect();
    labels.sort_unstable();
    labels.dedup();
    let mut dispatch: Vec<Instr> = Vec::new();
    for label in labels.into_iter().rev() {
        let mut rules_ir: Vec<Instr> = Vec::new();
        for r in machine.rules().iter().filter(|r| r.label == label) {
            let mut conds = vec![
                Cond::RegEq(ctx.cur, Source::Const(ctx.state_code(r.state))),
                Cond::RegEq(ctx.matched, Source::Const(ctx.no)),
                Cond::Guard(ctx.read_guard(r.tape)),
            ];
            if let Some(b) = r.cell0 {
                conds.push(Cond::Guard(ctx.cell0_guard(b)));
            }
            let mut act = vec![Instr::Set(ctx.matched, Source::Const(ctx.yes))];
            if r.write != r.tape {
                act.push(ctx.write_update(r.write));
            }
            if let Some(instr) = ctx.head_update(r.head) {
                act.push(instr);
            }
            if let Some(d) = tree_dir(r.tree) {
                act.push(Instr::Move(d));
            }
            act.push(Instr::Set(
                ctx.xstate,
                Source::Const(ctx.state_code(r.next)),
            ));
            rules_ir.push(when(Cond::All(conds), act));
        }
        dispatch = vec![Instr::If(Cond::LabelIs(label), rules_ir, dispatch)];
    }
    step.extend(dispatch);
    step.push(when(
        Cond::RegEq(ctx.matched, Source::Const(ctx.no)),
        vec![Instr::Fail],
    ));
    body.push(Instr::While(
        Cond::Not(Box::new(Cond::RegEq(
            ctx.xstate,
            Source::Const(ctx.state_code(machine.accept())),
        ))),
        step,
    ));
    body.push(Instr::Accept);

    let program = w
        .compile(&body)
        .expect("store compilation emits well-formed tw^r programs");
    debug_assert_eq!(program.classify(), twq_automata::TwClass::TwR);
    Ok(StoreProgram { program, id_attr })
}

/// [`compile_pspace`] under a resource [`Guard`]: one fuel unit per source
/// rule (compilation is linear in the rule count), the walker's state
/// budget gauged as `GaugeKind::ProductStates`. Fragment refusals
/// surface as [`TwqError::Unsupported`].
pub fn compile_pspace_guarded<G: Guard>(
    machine: &Xtm,
    alphabet: &[SymId],
    id_attr: AttrId,
    vocab: &mut Vocab,
    guard: &mut G,
) -> Result<StoreProgram, TwqError> {
    crate::charge_compile(machine, guard)?;
    compile_pspace(machine, alphabet, id_attr, vocab)
        .map_err(|e| TwqError::unsupported("sim::compile_pspace", e.to_string()))
}

/// [`compile_pspace`] through the static analyzer: the compiled walker
/// is certified against class `tw^r` (Theorem 7.1(3)'s PSPACE bound is a
/// property of that class — look-ahead would void it), rejected with
/// [`TwqError::Invalid`] on violation, and pruned of dead control flow.
pub fn compile_pspace_checked(
    machine: &Xtm,
    alphabet: &[SymId],
    id_attr: AttrId,
    vocab: &mut Vocab,
) -> Result<StoreProgram, TwqError> {
    let mut compiled = compile_pspace(machine, alphabet, id_attr, vocab)
        .map_err(|e| TwqError::unsupported("sim::compile_pspace", e.to_string()))?;
    twq_analyze::certify(&compiled.program, twq_automata::TwClass::TwR)?;
    compiled.program = twq_analyze::prune(&compiled.program).program;
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_automata::{run, Limits, TwClass};
    use twq_tree::generate::{random_tree, TreeGenConfig};
    use twq_tree::DelimTree;
    use twq_xtm::machine::{run_xtm, XtmLimits};
    use twq_xtm::machines;

    fn agree_on(
        machine: &Xtm,
        prog: &StoreProgram,
        tree: &twq_tree::Tree,
        vocab: &mut Vocab,
    ) -> (bool, usize) {
        let mut dt = DelimTree::build(tree);
        dt.assign_unique_ids(prog.id_attr, vocab);
        let direct = run_xtm(machine, &dt, XtmLimits::default());
        let report = run(&prog.program, &dt, Limits::long_walk());
        assert!(!report.halt.is_limit(), "{:?}", report.halt);
        assert_eq!(report.accepted(), direct.accepted());
        (report.accepted(), report.max_store_tuples)
    }

    #[test]
    fn checked_compile_certifies_and_prunes() {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 10, &[1]);
        let id = vocab.attr("id");
        let m = machines::leaf_count_even(&cfg.symbols);
        let prog = compile_pspace_checked(&m, &cfg.symbols, id, &mut vocab).unwrap();
        assert_eq!(prog.program.classify(), TwClass::TwR);
        // The pruned walker must still agree with the source machine.
        for seed in 0..4 {
            let t = random_tree(&cfg, seed);
            agree_on(&m, &prog, &t, &mut vocab);
        }
    }

    #[test]
    fn leaf_count_even_via_store() {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 12, &[1]);
        let id = vocab.attr("id");
        let m = machines::leaf_count_even(&cfg.symbols);
        let prog = compile_pspace(&m, &cfg.symbols, id, &mut vocab).unwrap();
        assert_eq!(prog.program.classify(), TwClass::TwR);
        let (mut yes, mut no) = (0, 0);
        for seed in 0..8 {
            let t = random_tree(&cfg, seed);
            let (accepted, _) = agree_on(&m, &prog, &t, &mut vocab);
            assert_eq!(
                accepted,
                machines::oracle_leaf_count_even(&t),
                "seed {seed}"
            );
            if accepted {
                yes += 1;
            } else {
                no += 1;
            }
        }
        assert!(yes > 0 && no > 0);
    }

    #[test]
    fn leftmost_depth_via_store() {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 14, &[1]);
        let id = vocab.attr("id");
        let m = machines::leftmost_depth_even(&cfg.symbols);
        let prog = compile_pspace(&m, &cfg.symbols, id, &mut vocab).unwrap();
        for seed in 0..8 {
            let t = random_tree(&cfg, seed);
            let (accepted, _) = agree_on(&m, &prog, &t, &mut vocab);
            assert_eq!(
                accepted,
                machines::oracle_leftmost_depth_even(&t),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn store_stays_linear_in_tree_size() {
        // The store holds Succ (N-1 pairs) + Tape (≤ space) + Head + Root:
        // O(N) tuples — the PSPACE^X space bound in relational clothing.
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 20, &[1]);
        let id = vocab.attr("id");
        let m = machines::leaf_count_even(&cfg.symbols);
        let prog = compile_pspace(&m, &cfg.symbols, id, &mut vocab).unwrap();
        let t = random_tree(&cfg, 3);
        let dn = DelimTree::build(&t).tree().len();
        let (_, max_tuples) = agree_on(&m, &prog, &t, &mut vocab);
        assert!(
            max_tuples <= 2 * dn + 16,
            "store {} exceeds linear bound for N = {}",
            max_tuples,
            dn
        );
    }

    #[test]
    fn rejects_register_machines() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let syms = vec![vocab.sym("sigma")];
        let id = vocab.attr("id");
        let m = machines::root_value_at_some_leaf(&syms, a);
        assert_eq!(
            compile_pspace(&m, &syms, id, &mut vocab).unwrap_err(),
            CompileError::NotRegisterFree
        );
    }
}
