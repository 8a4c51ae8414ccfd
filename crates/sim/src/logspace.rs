//! **Theorem 7.1(1), constructive direction:** every `LOGSPACE^X` xTM can
//! be simulated by a `TW` register walker when unique IDs are available.
//!
//! The proof's construction, made executable as a compiler:
//!
//! * the tape content is a number `j ∈ [0, 2^L)` with `L ≤ log₂ N`; a
//!   **tape pebble** marks the `(j+1)`-th node of the delimited tree in
//!   pre-order (the root `▽` represents zero);
//! * a **head pebble** marks the `c`-th node when the head is on cell `c`;
//! * a **machine pebble** tracks the xTM's own tree position;
//! * reading bit `c` of `j` halves `j` `c` times ("placing a pebble on the
//!   root and one on `j` and letting them walk towards each other") and
//!   takes the parity ("walking towards the root counting modulo two");
//! * writing flips bit `c` by adding or subtracting `2^c`, with `2^c`
//!   obtained by repeated doubling and addition/subtraction performed by
//!   marching pebbles in lock-step.
//!
//! A pebble is just a unary register holding the target node's unique ID
//! (Section 7: "storing these values in registers can be seen as placing
//! pebbles on the corresponding nodes"). All arithmetic reduces to three
//! pebble moves — *reset to the root*, *advance by one in pre-order*, and
//! *copy* — of which only *advance* walks the tree.
//!
//! Accepted source machines: deterministic, register-free, binary-tape
//! ([`Xtm::is_register_free`], [`Xtm::is_binary_tape`]). The compiled
//! walker is class `TW` (Definition 5.1): unary single-value registers, no
//! look-ahead.

use twq_automata::twir::{macros, when, Cond, Instr, Source, WalkerBuilder};
use twq_automata::{Dir, TwProgram};
use twq_guard::{Guard, TwqError};
use twq_logic::RegId;
use twq_tree::{AttrId, SymId, Value, Vocab};
use twq_xtm::{HeadMove, TreeDir, XState, Xtm};

/// Why compilation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The machine uses registers or guards.
    NotRegisterFree,
    /// The machine writes tape symbols outside `{0, 1}`.
    NotBinaryTape,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::NotRegisterFree => {
                write!(f, "pebble compilation requires a register-free xTM")
            }
            CompileError::NotBinaryTape => {
                write!(f, "pebble compilation requires a binary tape alphabet")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The compiled walker plus the ID attribute it expects. Run it with
/// [`twq_automata::run`] on a [`twq_tree::DelimTree`] whose nodes —
/// including delimiters — carry unique IDs in `id_attr`
/// (see [`twq_tree::DelimTree::assign_unique_ids`]).
#[derive(Debug, Clone)]
pub struct PebbleProgram {
    /// The class-`TW` walker.
    pub program: TwProgram,
    /// The unique-ID attribute the pebbles use.
    pub id_attr: AttrId,
}

struct Ctx {
    id: AttrId,
    flag: RegId,
    end: Value,
    rootid: RegId,
    // Pebbles.
    m: RegId,
    t: RegId,
    h: RegId,
    // Arithmetic scratch pebbles.
    a: RegId,
    c: RegId,
    w: RegId,
    k: RegId,
    p2: RegId,
    s: RegId,
    u: RegId,
    old: RegId,
    prev: RegId,
    curp: RegId,
    // Control registers.
    xstate: RegId,
    cur: RegId,
    bit: RegId,
    c0flag: RegId,
    matched: RegId,
    // Constants.
    zero: Value,
    one: Value,
    yes: Value,
    no: Value,
    state_codes: Vec<Value>,
}

impl Ctx {
    /// `p := root` (no walking — the root's ID is cached in a register).
    fn set_root(&self, p: RegId) -> Vec<Instr> {
        vec![Instr::Set(p, Source::Reg(self.rootid))]
    }

    /// `dst := src`.
    fn copy(&self, dst: RegId, src: RegId) -> Vec<Instr> {
        vec![Instr::Set(dst, Source::Reg(src))]
    }

    /// Advance pebble `p` by one position in delimited pre-order; `Fail`
    /// if it would leave the tree (the machine used more than `log₂ N`
    /// cells — outside `LOGSPACE^X` for this input).
    fn advance(&self, p: RegId) -> Vec<Instr> {
        let mut v = vec![Instr::Clear(self.flag)];
        v.extend(macros::goto_pebble_delim(p, self.id, self.flag, self.end));
        v.extend(macros::delim_doc_next(self.flag, self.end));
        v.push(when(
            Cond::RegEq(self.flag, Source::Const(self.end)),
            vec![Instr::Fail],
        ));
        v.extend(macros::pebble_here(p, self.id));
        v
    }

    fn eq(&self, p: RegId, q: RegId) -> Cond {
        Cond::RegEq(p, Source::Reg(q))
    }

    fn ne(&self, p: RegId, q: RegId) -> Cond {
        Cond::Not(Box::new(self.eq(p, q)))
    }

    /// `w := ⌊pos(w)/2⌋`: pebbles `a` (half speed) and `c` (full speed)
    /// walk from the root until `c` reaches `w`.
    fn halve(&self) -> Vec<Instr> {
        let mut v = self.set_root(self.a);
        v.extend(self.set_root(self.c));
        let mut body = self.advance(self.c);
        let mut second = self.advance(self.c);
        second.extend(self.advance(self.a));
        body.push(when(self.ne(self.c, self.w), second));
        v.push(Instr::While(self.ne(self.c, self.w), body));
        v.extend(self.copy(self.w, self.a));
        v
    }

    /// `bit := pos(w) mod 2`, by walking from the root to `w` counting
    /// modulo two.
    fn parity(&self) -> Vec<Instr> {
        let mut v = self.set_root(self.prev);
        v.push(Instr::Set(self.bit, Source::Const(self.zero)));
        let mut body = self.advance(self.prev);
        body.push(Instr::If(
            Cond::RegEq(self.bit, Source::Const(self.zero)),
            vec![Instr::Set(self.bit, Source::Const(self.one))],
            vec![Instr::Set(self.bit, Source::Const(self.zero))],
        ));
        v.push(Instr::While(self.ne(self.prev, self.w), body));
        v
    }

    /// `bit := bit_c(j)` where `c = pos(h)` and `j = pos(t)`: halve `c`
    /// times, then take the parity.
    fn read_bit(&self) -> Vec<Instr> {
        let mut v = self.copy(self.w, self.t);
        v.extend(self.set_root(self.k));
        let mut body = self.halve();
        body.extend(self.advance(self.k));
        v.push(Instr::While(self.ne(self.k, self.h), body));
        v.extend(self.parity());
        v
    }

    /// `dst := dst + pos(amt)` by marching `s` from the root to `amt`
    /// while advancing `dst` in lock-step.
    fn add_peb(&self, dst: RegId, amt: RegId) -> Vec<Instr> {
        let mut v = self.set_root(self.s);
        let mut body = self.advance(self.s);
        body.extend(self.advance(dst));
        v.push(Instr::While(self.ne(self.s, amt), body));
        v
    }

    /// `p2 := 2^pos(h)` by repeated doubling (`p2 += p2`, `pos(h)` times).
    fn pow2_at_h(&self) -> Vec<Instr> {
        let mut v = self.set_root(self.p2);
        v.extend(self.advance(self.p2)); // position 1 = 2^0
        v.extend(self.set_root(self.k));
        let mut body = self.copy(self.old, self.p2);
        body.extend(self.add_peb(self.p2, self.old));
        body.extend(self.advance(self.k));
        v.push(Instr::While(self.ne(self.k, self.h), body));
        v
    }

    /// Flip bit `pos(h)` of the tape number from 0 to 1: `t += 2^c`.
    fn write_one(&self) -> Vec<Instr> {
        let mut v = self.pow2_at_h();
        v.extend(self.add_peb(self.t, self.p2));
        v
    }

    /// Flip bit `pos(h)` from 1 to 0: `t -= 2^c`, computed as the unique
    /// `s` with `s + 2^c = t` by marching `u` from `2^c` to `t` while `s`
    /// counts the distance.
    fn write_zero(&self) -> Vec<Instr> {
        let mut v = self.pow2_at_h();
        v.extend(self.copy(self.u, self.p2));
        v.extend(self.set_root(self.s));
        let mut body = self.advance(self.u);
        body.extend(self.advance(self.s));
        v.push(Instr::While(self.ne(self.u, self.t), body));
        v.extend(self.copy(self.t, self.s));
        v
    }

    /// Move the head right: `h += 1`.
    fn head_right(&self) -> Vec<Instr> {
        self.advance(self.h)
    }

    /// Move the head left: `h -= 1`; at cell 0 the xTM is stuck.
    fn head_left(&self) -> Vec<Instr> {
        let mut v = vec![when(
            Cond::RegEq(self.h, Source::Reg(self.rootid)),
            vec![Instr::Fail],
        )];
        v.extend(self.set_root(self.prev));
        v.extend(self.set_root(self.curp));
        let mut body = self.copy(self.prev, self.curp);
        body.extend(self.advance(self.curp));
        v.push(Instr::While(self.ne(self.curp, self.h), body));
        v.extend(self.copy(self.h, self.prev));
        v
    }

    /// Move the machine pebble in a tree direction.
    fn move_m(&self, d: TreeDir) -> Vec<Instr> {
        let dir = match d {
            TreeDir::Stay => return vec![],
            TreeDir::Left => Dir::Left,
            TreeDir::Right => Dir::Right,
            TreeDir::Up => Dir::Up,
            TreeDir::Down => Dir::Down,
        };
        let mut v = macros::goto_pebble_delim(self.m, self.id, self.flag, self.end);
        v.push(Instr::Move(dir));
        v.extend(macros::pebble_here(self.m, self.id));
        v
    }

    fn state_code(&self, s: XState) -> Value {
        self.state_codes[s.0 as usize]
    }
}

/// Compile a `LOGSPACE^X` xTM into a class-`TW` pebble walker
/// (Theorem 7.1(1)).
pub fn compile_logspace(
    machine: &Xtm,
    alphabet: &[SymId],
    id_attr: AttrId,
    vocab: &mut Vocab,
) -> Result<PebbleProgram, CompileError> {
    if !machine.is_register_free() {
        return Err(CompileError::NotRegisterFree);
    }
    if !machine.is_binary_tape() {
        return Err(CompileError::NotBinaryTape);
    }
    let mut w = WalkerBuilder::new(alphabet);
    let reg = |w: &mut WalkerBuilder| w.register(None);
    let ctx = Ctx {
        id: id_attr,
        flag: reg(&mut w),
        end: vocab.val_str("#twq:end"),
        rootid: reg(&mut w),
        m: reg(&mut w),
        t: reg(&mut w),
        h: reg(&mut w),
        a: reg(&mut w),
        c: reg(&mut w),
        w: reg(&mut w),
        k: reg(&mut w),
        p2: reg(&mut w),
        s: reg(&mut w),
        u: reg(&mut w),
        old: reg(&mut w),
        prev: reg(&mut w),
        curp: reg(&mut w),
        xstate: reg(&mut w),
        cur: reg(&mut w),
        bit: reg(&mut w),
        c0flag: reg(&mut w),
        matched: reg(&mut w),
        zero: vocab.val_str("#twq:bit0"),
        one: vocab.val_str("#twq:bit1"),
        yes: vocab.val_str("#twq:yes"),
        no: vocab.val_str("#twq:no"),
        state_codes: (0..machine.state_count())
            .map(|i| vocab.val_str(&format!("#twq:xstate{i}")))
            .collect(),
    };

    // ----- initialization (the walker starts at ▽) ----------------------
    let mut body = vec![Instr::Set(ctx.rootid, Source::Attr(id_attr))];
    for p in [ctx.m, ctx.t, ctx.h] {
        body.extend(ctx.copy(p, ctx.rootid));
    }
    body.push(Instr::Set(
        ctx.xstate,
        Source::Const(ctx.state_code(machine.initial())),
    ));

    // ----- main interpretation loop -------------------------------------
    let mut step = Vec::new();
    step.extend(ctx.copy(ctx.cur, ctx.xstate));
    step.push(Instr::Set(ctx.matched, Source::Const(ctx.no)));
    step.push(Instr::If(
        ctx.eq(ctx.h, ctx.rootid),
        vec![Instr::Set(ctx.c0flag, Source::Const(ctx.yes))],
        vec![Instr::Set(ctx.c0flag, Source::Const(ctx.no))],
    ));
    step.extend(ctx.read_bit());
    step.extend(macros::goto_pebble_delim(ctx.m, id_attr, ctx.flag, ctx.end));

    // Dispatch: nested label branches, each containing its rules.
    let mut labels: Vec<twq_tree::Label> = machine.rules().iter().map(|r| r.label).collect();
    labels.sort_unstable();
    labels.dedup();
    let mut dispatch: Vec<Instr> = Vec::new();
    for label in labels.into_iter().rev() {
        let mut rules_ir: Vec<Instr> = Vec::new();
        for r in machine.rules().iter().filter(|r| r.label == label) {
            let mut conds = vec![
                Cond::RegEq(ctx.cur, Source::Const(ctx.state_code(r.state))),
                Cond::RegEq(
                    ctx.bit,
                    Source::Const(if r.tape == 0 { ctx.zero } else { ctx.one }),
                ),
                Cond::RegEq(ctx.matched, Source::Const(ctx.no)),
            ];
            if let Some(b) = r.cell0 {
                conds.push(Cond::RegEq(
                    ctx.c0flag,
                    Source::Const(if b { ctx.yes } else { ctx.no }),
                ));
            }
            let mut act = vec![Instr::Set(ctx.matched, Source::Const(ctx.yes))];
            // Tape write (the read bit equals r.tape at this point).
            match (r.tape, r.write) {
                (0, 1) => act.extend(ctx.write_one()),
                (1, 0) => act.extend(ctx.write_zero()),
                _ => {}
            }
            // Head move.
            match r.head {
                HeadMove::Right => act.extend(ctx.head_right()),
                HeadMove::Left => act.extend(ctx.head_left()),
                HeadMove::Stay => {}
            }
            // Tree move.
            act.extend(ctx.move_m(r.tree));
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
        .expect("pebble compilation emits well-formed TW programs");
    debug_assert_eq!(program.classify(), twq_automata::TwClass::Tw);
    Ok(PebbleProgram { program, id_attr })
}

/// [`compile_logspace`] under a resource [`Guard`]: compilation cost is
/// linear in the rule count, so one fuel unit is charged per source rule
/// and the walker's state budget is gauged as
/// `GaugeKind::ProductStates`. Fragment refusals surface as
/// [`TwqError::Unsupported`].
pub fn compile_logspace_guarded<G: Guard>(
    machine: &Xtm,
    alphabet: &[SymId],
    id_attr: AttrId,
    vocab: &mut Vocab,
    guard: &mut G,
) -> Result<PebbleProgram, TwqError> {
    crate::charge_compile(machine, guard)?;
    compile_logspace(machine, alphabet, id_attr, vocab)
        .map_err(|e| TwqError::unsupported("sim::compile_logspace", e.to_string()))
}

/// [`compile_logspace`] through the static analyzer: the compiled walker
/// is certified against class `TW` — Theorem 7.1(1)'s LOGSPACE bound
/// only holds for that class, so a compiler regression that produced a
/// stronger program is rejected here with [`TwqError::Invalid`] instead
/// of silently invalidating the bound — and then pruned of dead control
/// flow before it is handed to any evaluator.
pub fn compile_logspace_checked(
    machine: &Xtm,
    alphabet: &[SymId],
    id_attr: AttrId,
    vocab: &mut Vocab,
) -> Result<PebbleProgram, TwqError> {
    let mut compiled = compile_logspace(machine, alphabet, id_attr, vocab)
        .map_err(|e| TwqError::unsupported("sim::compile_logspace", e.to_string()))?;
    twq_analyze::certify(&compiled.program, twq_automata::TwClass::Tw)?;
    compiled.program = twq_analyze::prune(&compiled.program).program;
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_automata::{run, Halt, Limits};
    use twq_tree::generate::{random_tree, TreeGenConfig};
    use twq_tree::DelimTree;
    use twq_xtm::machine::{run_xtm, XtmLimits};
    use twq_xtm::machines;

    fn run_compiled(prog: &PebbleProgram, tree: &twq_tree::Tree, vocab: &mut Vocab) -> (bool, u64) {
        let mut dt = DelimTree::build(tree);
        dt.assign_unique_ids(prog.id_attr, vocab);
        let report = run(&prog.program, &dt, Limits::long_walk());
        assert!(
            !report.halt.is_limit(),
            "compiled walker hit limits: {:?}",
            report.halt
        );
        (report.accepted(), report.steps)
    }

    #[test]
    fn rejects_non_conforming_machines() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let syms = vec![vocab.sym("sigma")];
        let with_regs = machines::root_value_at_some_leaf(&syms, a);
        let id = vocab.attr("id");
        assert_eq!(
            compile_logspace(&with_regs, &syms, id, &mut vocab).unwrap_err(),
            CompileError::NotRegisterFree
        );
    }

    #[test]
    fn checked_compile_certifies_and_prunes() {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 6, &[1]);
        let id = vocab.attr("id");
        let m = machines::leaf_count_even(&cfg.symbols);
        let checked = compile_logspace_checked(&m, &cfg.symbols, id, &mut vocab).unwrap();
        assert_eq!(checked.program.classify(), twq_automata::TwClass::Tw);
        // The pruned walker must still agree with the source machine.
        for seed in 0..4 {
            let t = random_tree(&cfg, seed);
            let mut dt = DelimTree::build(&t);
            dt.assign_unique_ids(id, &mut vocab);
            let direct = run_xtm(&m, &dt, XtmLimits::default());
            let (accepted, _) = run_compiled(&checked, &t, &mut vocab);
            assert_eq!(accepted, direct.accepted(), "seed {seed}");
        }
    }

    #[test]
    fn leaf_count_even_compiles_and_agrees() {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 7, &[1]);
        let id = vocab.attr("id");
        let m = machines::leaf_count_even(&cfg.symbols);
        let prog = compile_logspace(&m, &cfg.symbols, id, &mut vocab).unwrap();
        let (mut evens, mut odds) = (0, 0);
        for seed in 0..6 {
            let t = random_tree(&cfg, seed);
            let mut dt = DelimTree::build(&t);
            dt.assign_unique_ids(id, &mut vocab);
            let direct = run_xtm(&m, &dt, XtmLimits::default());
            let (accepted, _steps) = run_compiled(&prog, &t, &mut vocab);
            assert_eq!(accepted, direct.accepted(), "seed {seed}");
            assert_eq!(
                accepted,
                machines::oracle_leaf_count_even(&t),
                "seed {seed}"
            );
            if accepted {
                evens += 1;
            } else {
                odds += 1;
            }
        }
        assert!(evens > 0 && odds > 0, "evens={evens} odds={odds}");
    }

    #[test]
    fn leftmost_depth_compiles_and_agrees() {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 8, &[1]);
        let id = vocab.attr("id");
        let m = machines::leftmost_depth_even(&cfg.symbols);
        let prog = compile_logspace(&m, &cfg.symbols, id, &mut vocab).unwrap();
        for seed in [0, 3, 5] {
            let t = random_tree(&cfg, seed);
            let (accepted, _) = run_compiled(&prog, &t, &mut vocab);
            assert_eq!(
                accepted,
                machines::oracle_leftmost_depth_even(&t),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn compiled_walker_is_class_tw() {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 5, &[1]);
        let id = vocab.attr("id");
        let m = machines::leaf_count_even(&cfg.symbols);
        let prog = compile_logspace(&m, &cfg.symbols, id, &mut vocab).unwrap();
        assert_eq!(prog.program.classify(), twq_automata::TwClass::Tw);
        assert!(!prog.program.uses_lookahead());
        assert!(prog.program.reg_arities().iter().all(|&a| a == 1));
    }

    #[test]
    fn missing_ids_make_the_walker_fail_not_lie() {
        // Without unique IDs the pebbles cannot navigate: the walker must
        // reject/diverge-to-limit, never wrongly accept.
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 6, &[1]);
        let id = vocab.attr("id");
        let m = machines::leaf_count_even(&cfg.symbols);
        let prog = compile_logspace(&m, &cfg.symbols, id, &mut vocab).unwrap();
        let t = random_tree(&cfg, 1);
        let dt = DelimTree::build(&t); // no IDs assigned
        let report = run(
            &prog.program,
            &dt,
            Limits {
                max_steps: 200_000,
                max_atp_depth: 8,
                cycle_check_interval: 64,
            },
        );
        assert_ne!(report.halt, Halt::Accept);
    }
}
