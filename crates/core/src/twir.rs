//! `twir` — a structured intermediate representation for walker programs.
//!
//! The constructive directions of Theorem 7.1 ("place a finite number of
//! pebbles … let them walk towards each other …") describe walkers far too
//! large to write as flat rule tables. This module provides a tiny
//! structured language — sequences, conditionals, loops, register
//! assignments, moves — together with a compiler to flat class-`TW`
//! programs (unary registers, single-value updates, no look-ahead), plus
//! the navigation macros (document-order successor, go-to-root, go-to-
//! pebble) the simulations are built from.
//!
//! Compilation is standard: every instruction boundary becomes a state;
//! conditions are partially evaluated per node label (rules dispatch on the
//! label) with the residual store condition becoming the rule guard.
//!
//! The macros operate on **original** (element-labeled) nodes of a
//! delimited tree and use the canonical document order of
//! `twq_tree::order`; delimiters make every boundary test a label test.

use twq_guard::{DepthKind, Guard, GuardError, NullGuard, TwqError};
use twq_logic::store::sbuild;
use twq_logic::{RegId, Relation, SFormula, Var};
use twq_obs::{Collector, PhaseTimer};
use twq_tree::{AttrId, Label, Value};

use crate::program::{Action, Dir, ProgramError, State, TwProgram, TwProgramBuilder};

/// A single-value source for register assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The current node's value of this attribute.
    Attr(AttrId),
    /// A constant.
    Const(Value),
    /// The (singleton) content of another register.
    Reg(RegId),
}

/// A branch condition. Label conditions are resolved at compile time per
/// rule label; register conditions become rule guards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cond {
    /// The current node carries this label.
    LabelIs(Label),
    /// Register `i` (a singleton) equals the source value.
    RegEq(RegId, Source),
    /// Register `i` is empty.
    RegEmpty(RegId),
    /// Escape hatch: an arbitrary store-FO sentence as the condition.
    /// Used by the `tw^r` compilers; programs using it are no longer
    /// class `TW`-checkable by syntax alone.
    Guard(SFormula),
    /// Negation.
    Not(Box<Cond>),
    /// Conjunction.
    All(Vec<Cond>),
    /// Disjunction.
    Any(Vec<Cond>),
}

/// A structured walker instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Move in a direction (the target must exist or the walk is stuck).
    Move(Dir),
    /// `reg := {source}`.
    Set(RegId, Source),
    /// Empty register `reg`.
    Clear(RegId),
    /// Escape hatch: replace `reg` with the relation defined by an
    /// arbitrary store-FO query (Definition 3.1, form 2, in full
    /// generality). Used by the `tw^r` compilers.
    UpdateRel(RegId, SFormula),
    /// Two-way branch.
    If(Cond, Vec<Instr>, Vec<Instr>),
    /// Loop while the condition holds.
    While(Cond, Vec<Instr>),
    /// Enter the final state (accept).
    Accept,
    /// Halt without accepting (deliberately stuck).
    Fail,
}

/// Shorthand for a one-armed conditional.
pub fn when(c: Cond, then: Vec<Instr>) -> Instr {
    Instr::If(c, then, vec![])
}

/// A walker module under construction: a fixed label universe plus unary
/// registers, compiled into a [`TwProgram`] by [`WalkerBuilder::compile`].
#[derive(Debug, Clone)]
pub struct WalkerBuilder {
    labels: Vec<Label>,
    regs: Vec<Relation>,
}

impl WalkerBuilder {
    /// Start a walker over the given element symbols (the four delimiter
    /// labels are always included).
    pub fn new(syms: &[twq_tree::SymId]) -> Self {
        let mut labels: Vec<Label> = syms.iter().map(|&s| Label::Sym(s)).collect();
        labels.extend([
            Label::DelimRoot,
            Label::DelimOpen,
            Label::DelimClose,
            Label::DelimLeaf,
        ]);
        WalkerBuilder {
            labels,
            regs: Vec::new(),
        }
    }

    /// Declare a unary register, optionally pre-loaded with one value.
    pub fn register(&mut self, init: Option<Value>) -> RegId {
        let id = RegId(u8::try_from(self.regs.len()).expect("too many registers"));
        self.regs.push(match init {
            Some(v) => Relation::singleton(v),
            None => Relation::empty(1),
        });
        id
    }

    /// Declare a register of arbitrary arity with initial content — the
    /// relational store of `tw^r` walkers.
    pub fn rel_register(&mut self, init: Relation) -> RegId {
        let id = RegId(u8::try_from(self.regs.len()).expect("too many registers"));
        self.regs.push(init);
        id
    }

    /// The label universe.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Compile a body into a flat `TW` program. The walk starts at the root
    /// of the delimited tree; falling off the end of the body is a reject
    /// (end with [`Instr::Accept`] to accept).
    pub fn compile(&self, body: &[Instr]) -> Result<TwProgram, ProgramError> {
        self.lower(body, &mut NullGuard)
            .expect("NullGuard never trips")
            .build()
    }

    /// [`WalkerBuilder::compile`] with a collector and a guard.
    ///
    /// The collector sees the `twir.compile` phase timing and the
    /// `run/twir.states` / `run/twir.rules` counters of the produced
    /// program. The guard is charged one fuel unit per compiled instruction,
    /// with body nesting tracked as [`DepthKind::Compile`]: compiled walkers
    /// can be enormous (the Theorem 7.1 pebble constructions emit thousands
    /// of states), so compilation itself is a governed phase. A trip
    /// discards the partial program; a body the builder rejects surfaces as
    /// [`TwqError::Invalid`].
    pub fn compile_in<C: Collector, G: Guard>(
        &self,
        body: &[Instr],
        collector: &mut C,
        guard: &mut G,
    ) -> Result<TwProgram, TwqError> {
        let timer = C::ENABLED.then(|| PhaseTimer::start("twir.compile"));
        let built = self.lower(body, guard).map(TwProgramBuilder::build);
        if let Some(timer) = timer {
            timer.stop(collector);
        }
        let prog = built
            .map_err(TwqError::Guard)?
            .map_err(|e| TwqError::invalid("twir::compile", e.to_string()))?;
        collector.counter("run/twir.states", prog.state_count() as u64);
        collector.counter("run/twir.rules", prog.rules().len() as u64);
        Ok(prog)
    }

    /// The one lowering behind [`WalkerBuilder::compile`] and
    /// [`WalkerBuilder::compile_in`]: the builder holding every state and
    /// rule of `body`, or the first guard trip.
    fn lower<G: Guard>(
        &self,
        body: &[Instr],
        guard: &mut G,
    ) -> Result<TwProgramBuilder, GuardError> {
        let mut c = Compiler {
            b: TwProgramBuilder::new(),
            labels: &self.labels,
            counter: 0,
            guard,
            trip: None,
        };
        for init in &self.regs {
            c.b.register(init.arity(), init.clone());
        }
        let q_f = c.b.state("qF");
        c.b.final_state(q_f);
        // Fall-through continuation: a state with no rules (reject).
        let dead = c.b.state("halt");
        let entry = c.compile_seq(body, dead, q_f);
        c.b.initial(entry);
        match c.trip {
            Some(e) => Err(e),
            None => Ok(c.b),
        }
    }
}

struct Compiler<'l, 'g, G: Guard> {
    b: TwProgramBuilder,
    labels: &'l [Label],
    counter: u32,
    guard: &'g mut G,
    /// First guard trip; once set, compilation short-circuits.
    trip: Option<GuardError>,
}

impl<G: Guard> Compiler<'_, '_, G> {
    fn fresh(&mut self, tag: &str) -> State {
        self.counter += 1;
        let name = format!("{tag}{}", self.counter);
        self.b.state(&name)
    }

    /// Compile a sequence with the given continuation; returns its entry.
    /// Under a real guard, nesting is charged as [`DepthKind::Compile`] and
    /// a trip short-circuits the remaining instructions (the partial
    /// program is discarded by the caller).
    fn compile_seq(&mut self, body: &[Instr], cont: State, q_f: State) -> State {
        if G::ENABLED {
            if self.trip.is_some() {
                return cont;
            }
            if let Err(e) = self.guard.enter(DepthKind::Compile) {
                self.trip.get_or_insert(e);
                return cont;
            }
        }
        let mut next = cont;
        for instr in body.iter().rev() {
            if G::ENABLED {
                if self.trip.is_some() {
                    break;
                }
                if let Err(e) = self.guard.tick() {
                    self.trip.get_or_insert(e);
                    break;
                }
            }
            next = self.compile_instr(instr, next, q_f);
        }
        if G::ENABLED {
            self.guard.exit(DepthKind::Compile);
        }
        next
    }

    fn emit_for_all_labels(&mut self, q: State, mut mk: impl FnMut(Label) -> Action) {
        for &l in self.labels {
            let action = mk(l);
            self.b.rule_true(l, q, action);
        }
    }

    fn compile_instr(&mut self, instr: &Instr, cont: State, q_f: State) -> State {
        match instr {
            Instr::Move(d) => {
                let q = self.fresh("mv");
                self.emit_for_all_labels(q, |_| Action::Move(cont, *d));
                q
            }
            Instr::Set(reg, src) => {
                let q = self.fresh("set");
                let psi = match src {
                    Source::Attr(a) => sbuild::eq(sbuild::v(0), sbuild::attr(*a)),
                    Source::Const(d) => sbuild::eq(sbuild::v(0), sbuild::cst(*d)),
                    Source::Reg(j) => sbuild::rel(*j, [sbuild::v(0)]),
                };
                self.emit_for_all_labels(q, |_| Action::Update(cont, psi.clone(), *reg));
                q
            }
            Instr::Clear(reg) => {
                let q = self.fresh("clr");
                // ψ(x₀) = x₀ ≠ x₀ defines the empty set.
                let psi = sbuild::not(sbuild::eq(sbuild::v(0), sbuild::v(0)));
                self.emit_for_all_labels(q, |_| Action::Update(cont, psi.clone(), *reg));
                q
            }
            Instr::UpdateRel(reg, psi) => {
                let q = self.fresh("rupd");
                self.emit_for_all_labels(q, |_| Action::Update(cont, psi.clone(), *reg));
                q
            }
            Instr::Accept => {
                let q = self.fresh("acc");
                self.emit_for_all_labels(q, |_| Action::Move(q_f, Dir::Stay));
                q
            }
            Instr::Fail => {
                // A state with no rules.
                self.fresh("fail")
            }
            Instr::If(cond, then_b, else_b) => {
                let q = self.fresh("if");
                let then_entry = self.compile_seq(then_b, cont, q_f);
                let else_entry = self.compile_seq(else_b, cont, q_f);
                for &l in self.labels {
                    match residual(cond, l) {
                        Residual::True => {
                            self.b.rule_true(l, q, Action::Move(then_entry, Dir::Stay));
                        }
                        Residual::False => {
                            self.b.rule_true(l, q, Action::Move(else_entry, Dir::Stay));
                        }
                        Residual::Guard(g) => {
                            self.b
                                .rule(l, q, g.clone(), Action::Move(then_entry, Dir::Stay));
                            self.b
                                .rule(l, q, sbuild::not(g), Action::Move(else_entry, Dir::Stay));
                        }
                    }
                }
                q
            }
            Instr::While(cond, body) => {
                let q = self.fresh("wh");
                let body_entry = self.compile_seq(body, q, q_f);
                for &l in self.labels {
                    match residual(cond, l) {
                        Residual::True => {
                            self.b.rule_true(l, q, Action::Move(body_entry, Dir::Stay));
                        }
                        Residual::False => {
                            self.b.rule_true(l, q, Action::Move(cont, Dir::Stay));
                        }
                        Residual::Guard(g) => {
                            self.b
                                .rule(l, q, g.clone(), Action::Move(body_entry, Dir::Stay));
                            self.b
                                .rule(l, q, sbuild::not(g), Action::Move(cont, Dir::Stay));
                        }
                    }
                }
                q
            }
        }
    }
}

/// A condition partially evaluated at a fixed label.
enum Residual {
    True,
    False,
    Guard(SFormula),
}

fn residual(cond: &Cond, label: Label) -> Residual {
    match cond {
        Cond::LabelIs(l) => {
            if *l == label {
                Residual::True
            } else {
                Residual::False
            }
        }
        Cond::RegEq(i, src) => Residual::Guard(match src {
            Source::Attr(a) => sbuild::rel(*i, [sbuild::attr(*a)]),
            Source::Const(d) => sbuild::rel(*i, [sbuild::cst(*d)]),
            Source::Reg(j) => SFormula::Exists(
                Var(0),
                Box::new(sbuild::and([
                    sbuild::rel(*i, [sbuild::v(0)]),
                    sbuild::rel(*j, [sbuild::v(0)]),
                ])),
            ),
        }),
        Cond::RegEmpty(i) => Residual::Guard(sbuild::not(SFormula::Exists(
            Var(0),
            Box::new(sbuild::rel(*i, [sbuild::v(0)])),
        ))),
        Cond::Guard(g) => Residual::Guard(g.clone()),
        Cond::Not(c) => match residual(c, label) {
            Residual::True => Residual::False,
            Residual::False => Residual::True,
            Residual::Guard(g) => Residual::Guard(sbuild::not(g)),
        },
        Cond::All(cs) => {
            let mut guards = Vec::new();
            for c in cs {
                match residual(c, label) {
                    Residual::True => {}
                    Residual::False => return Residual::False,
                    Residual::Guard(g) => guards.push(g),
                }
            }
            if guards.is_empty() {
                Residual::True
            } else {
                Residual::Guard(sbuild::and(guards))
            }
        }
        Cond::Any(cs) => {
            let mut guards = Vec::new();
            for c in cs {
                match residual(c, label) {
                    Residual::True => return Residual::True,
                    Residual::False => {}
                    Residual::Guard(g) => guards.push(g),
                }
            }
            if guards.is_empty() {
                Residual::False
            } else {
                Residual::Guard(sbuild::or(guards))
            }
        }
    }
}

/// Navigation macros over delimited trees. All assume the walker currently
/// stands on an *original* (element-labeled) node unless stated otherwise,
/// and leave it on one (or on `▽` where documented).
pub mod macros {
    use super::*;

    /// From any original node (or `▽`): climb to `▽`, then descend to the
    /// original root. Ancestors of original nodes are original nodes, so
    /// the climb sees no delimiters.
    pub fn goto_root() -> Vec<Instr> {
        vec![
            Instr::While(
                Cond::Not(Box::new(Cond::LabelIs(Label::DelimRoot))),
                vec![Instr::Move(Dir::Up)],
            ),
            Instr::Move(Dir::Down),  // ⊳
            Instr::Move(Dir::Right), // original root
        ]
    }

    /// Advance from the current original node to its document-order
    /// successor among original nodes. If there is none (we were at the
    /// last node), the walker ends at `▽` with `end_flag := {end_marker}`;
    /// otherwise the flag is untouched.
    pub fn doc_next(end_flag: RegId, end_marker: Value) -> Vec<Instr> {
        let at = Cond::LabelIs;
        vec![
            Instr::Move(Dir::Down), // ⊳ (has children) or △ (leaf)
            Instr::If(
                at(Label::DelimOpen),
                // First child exists: it is ⊳'s right sibling.
                vec![Instr::Move(Dir::Right)],
                // Leaf: back to the node, then right/up until a sibling.
                vec![
                    Instr::Move(Dir::Up),
                    Instr::Move(Dir::Right), // sibling or ⊲
                    Instr::While(
                        at(Label::DelimClose),
                        vec![
                            Instr::Move(Dir::Up), // original parent or ▽
                            Instr::If(
                                at(Label::DelimRoot),
                                vec![Instr::Set(end_flag, Source::Const(end_marker))],
                                vec![Instr::Move(Dir::Right)], // parent's sibling or ⊲
                            ),
                        ],
                    ),
                ],
            ),
        ]
    }

    /// Walk to the node whose `id_attr` equals the (singleton) content of
    /// `pebble`: scan from the root in document order. The pebble value
    /// must be present or the walk fails.
    pub fn goto_pebble(
        pebble: RegId,
        id_attr: AttrId,
        scratch_flag: RegId,
        end_marker: Value,
    ) -> Vec<Instr> {
        let mut v = goto_root();
        v.push(Instr::While(
            Cond::Not(Box::new(Cond::RegEq(pebble, Source::Attr(id_attr)))),
            {
                let mut body = doc_next(scratch_flag, end_marker);
                // Falling off the end means the pebble vanished: fail.
                body.push(when(
                    Cond::RegEq(scratch_flag, Source::Const(end_marker)),
                    vec![Instr::Fail],
                ));
                body
            },
        ));
        v
    }

    /// Drop the pebble on the current node: `pebble := {id_attr(here)}`.
    pub fn pebble_here(pebble: RegId, id_attr: AttrId) -> Vec<Instr> {
        vec![Instr::Set(pebble, Source::Attr(id_attr))]
    }

    // ----- delimiter-inclusive navigation ------------------------------
    //
    // The Theorem 7.1 pebble constructions number *all* nodes of the
    // delimited tree by pre-order (`▽` is position 0) and slide pebbles
    // along that order. Leafness is label-determined in `delim(t)`
    // (`⊳/⊲/△` are the only leaves), so the pre-order successor needs no
    // "has a child / has a sibling" probe.

    /// Climb from anywhere to `▽` (pre-order position 0).
    pub fn goto_delim_root() -> Vec<Instr> {
        vec![Instr::While(
            Cond::Not(Box::new(Cond::LabelIs(Label::DelimRoot))),
            vec![Instr::Move(Dir::Up)],
        )]
    }

    /// Advance to the pre-order successor **including delimiter nodes**.
    /// At the overall last node, sets `end_flag := {end_marker}` and
    /// leaves the walker at `▽`.
    pub fn delim_doc_next(end_flag: RegId, end_marker: Value) -> Vec<Instr> {
        let at = Cond::LabelIs;
        let internal = Cond::Not(Box::new(Cond::Any(vec![
            at(Label::DelimOpen),
            at(Label::DelimClose),
            at(Label::DelimLeaf),
        ])));
        vec![Instr::If(
            internal,
            // ▽ and element nodes always have a first child.
            vec![Instr::Move(Dir::Down)],
            vec![Instr::If(
                at(Label::DelimClose),
                // ⊲ is a last child: climb, then step right (the parent is
                // an element node with a guaranteed right sibling, or ▽ —
                // in which case the traversal is over).
                vec![
                    Instr::Move(Dir::Up),
                    Instr::If(
                        at(Label::DelimRoot),
                        vec![Instr::Set(end_flag, Source::Const(end_marker))],
                        vec![Instr::Move(Dir::Right)],
                    ),
                ],
                // ⊳ always has a right sibling; △ is an only child whose
                // parent (an element node inside a child list) always has
                // a right sibling.
                vec![Instr::If(
                    at(Label::DelimLeaf),
                    vec![Instr::Move(Dir::Up), Instr::Move(Dir::Right)],
                    vec![Instr::Move(Dir::Right)],
                )],
            )],
        )]
    }

    /// Walk to the delimited-tree node whose `id_attr` equals the pebble:
    /// pre-order scan from `▽` over *all* nodes. Fails if absent.
    pub fn goto_pebble_delim(
        pebble: RegId,
        id_attr: AttrId,
        scratch_flag: RegId,
        end_marker: Value,
    ) -> Vec<Instr> {
        let mut v = goto_delim_root();
        v.push(Instr::While(
            Cond::Not(Box::new(Cond::RegEq(pebble, Source::Attr(id_attr)))),
            {
                let mut body = delim_doc_next(scratch_flag, end_marker);
                body.push(when(
                    Cond::RegEq(scratch_flag, Source::Const(end_marker)),
                    vec![Instr::Fail],
                ));
                body
            },
        ));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::macros::*;
    use super::*;
    use crate::engine::{run_on_tree, Limits};
    use crate::program::TwClass;
    use twq_obs::NullCollector;
    use twq_tree::generate::{random_tree, TreeGenConfig};
    use twq_tree::Vocab;

    fn setup(nodes: usize, seed: u64) -> (Vocab, twq_tree::Tree, Vec<twq_tree::SymId>, AttrId) {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1, 2]);
        let mut t = random_tree(&cfg, seed);
        let id = vocab.attr("id");
        t.assign_unique_ids(id, &mut vocab);
        (vocab, t, cfg.symbols, id)
    }

    #[test]
    fn accept_compiles_and_accepts() {
        let (_, t, syms, _) = setup(10, 0);
        let w = WalkerBuilder::new(&syms);
        let p = w.compile(&[Instr::Accept]).unwrap();
        assert_eq!(p.classify(), TwClass::Tw);
        assert!(run_on_tree(&p, &t, Limits::default()).accepted());
    }

    #[test]
    fn fail_and_fallthrough_reject() {
        let (_, t, syms, _) = setup(5, 0);
        let w = WalkerBuilder::new(&syms);
        let p = w.compile(&[Instr::Fail]).unwrap();
        assert!(!run_on_tree(&p, &t, Limits::default()).accepted());
        let p2 = w.compile(&[]).unwrap();
        assert!(!run_on_tree(&p2, &t, Limits::default()).accepted());
    }

    #[test]
    fn label_branching() {
        // Accept iff the original root (▽'s middle child) is labeled σ.
        let (vocab, t, syms, _) = setup(12, 1);
        let sigma = Label::Sym(vocab.sym_opt("sigma").unwrap());
        let w = WalkerBuilder::new(&syms);
        let body = vec![
            Instr::Move(Dir::Down),  // ⊳
            Instr::Move(Dir::Right), // original root
            Instr::If(Cond::LabelIs(sigma), vec![Instr::Accept], vec![Instr::Fail]),
        ];
        let p = w.compile(&body).unwrap();
        let got = run_on_tree(&p, &t, Limits::default()).accepted();
        assert_eq!(got, t.label(t.root()) == sigma);
    }

    #[test]
    fn register_set_and_test() {
        let mut vocab = Vocab::new();
        let t = twq_tree::parse_tree("s[a=5](s[a=5],s[a=7])", &mut vocab).unwrap();
        let syms = vec![vocab.sym_opt("s").unwrap()];
        let a = vocab.attr_opt("a").unwrap();
        let mut w = WalkerBuilder::new(&syms);
        let r = w.register(None);
        let body = vec![
            Instr::Move(Dir::Down),  // ⊳
            Instr::Move(Dir::Right), // original root
            Instr::Set(r, Source::Attr(a)),
            Instr::Move(Dir::Down),  // ⊳ of root's children
            Instr::Move(Dir::Right), // first child
            Instr::If(
                Cond::RegEq(r, Source::Attr(a)),
                vec![Instr::Accept],
                vec![Instr::Fail],
            ),
        ];
        let p = w.compile(&body).unwrap();
        assert_eq!(p.classify(), TwClass::Tw);
        assert!(run_on_tree(&p, &t, Limits::default()).accepted());

        // Same program rejects when the first child differs.
        let t2 = twq_tree::parse_tree("s[a=5](s[a=7],s[a=5])", &mut vocab).unwrap();
        assert!(!run_on_tree(&p, &t2, Limits::default()).accepted());
    }

    #[test]
    fn clear_empties_register() {
        let mut vocab = Vocab::new();
        let t = twq_tree::parse_tree("s[a=5]", &mut vocab).unwrap();
        let syms = vec![vocab.sym_opt("s").unwrap()];
        let a = vocab.attr_opt("a").unwrap();
        let mut w = WalkerBuilder::new(&syms);
        let r = w.register(None);
        let body = vec![
            Instr::Move(Dir::Down),
            Instr::Move(Dir::Right),
            Instr::Set(r, Source::Attr(a)),
            Instr::Clear(r),
            Instr::If(Cond::RegEmpty(r), vec![Instr::Accept], vec![Instr::Fail]),
        ];
        let p = w.compile(&body).unwrap();
        assert!(run_on_tree(&p, &t, Limits::default()).accepted());
    }

    #[test]
    fn reg_eq_reg_condition() {
        let mut vocab = Vocab::new();
        let t = twq_tree::parse_tree("s[a=5]", &mut vocab).unwrap();
        let syms = vec![vocab.sym_opt("s").unwrap()];
        let a = vocab.attr_opt("a").unwrap();
        let mut w = WalkerBuilder::new(&syms);
        let r1 = w.register(None);
        let r2 = w.register(None);
        let body = vec![
            Instr::Move(Dir::Down),
            Instr::Move(Dir::Right),
            Instr::Set(r1, Source::Attr(a)),
            Instr::Set(r2, Source::Reg(r1)),
            Instr::If(
                Cond::RegEq(r1, Source::Reg(r2)),
                vec![Instr::Accept],
                vec![Instr::Fail],
            ),
        ];
        let p = w.compile(&body).unwrap();
        assert!(run_on_tree(&p, &t, Limits::default()).accepted());
    }

    #[test]
    fn doc_next_walks_whole_tree_in_order() {
        // Walk doc order from the root until the end flag fires; the
        // traversal must terminate and accept for every tree.
        let (mut vocab, t, syms, _) = setup(25, 3);
        let end = vocab.val_str("#end");
        let mut w = WalkerBuilder::new(&syms);
        let flag = w.register(None);
        let mut body = vec![
            Instr::Move(Dir::Down),
            Instr::Move(Dir::Right), // original root
        ];
        body.push(Instr::While(
            Cond::Not(Box::new(Cond::RegEq(flag, Source::Const(end)))),
            doc_next(flag, end),
        ));
        body.push(Instr::Accept);
        let p = w.compile(&body).unwrap();
        let report = run_on_tree(&p, &t, Limits::default());
        assert!(report.accepted(), "{:?}", report.halt);
        // Steps must be at least linear in the tree size.
        assert!(report.steps as usize >= t.len());
    }

    #[test]
    fn goto_pebble_finds_marked_node() {
        // Drop a pebble on the doc-order 7th node by walking, then return
        // to the root and navigate back to the pebble.
        let (mut vocab, t, syms, id) = setup(20, 4);
        let end = vocab.val_str("#end");
        let mut w = WalkerBuilder::new(&syms);
        let pebble = w.register(None);
        let flag = w.register(None);
        let mut body = vec![Instr::Move(Dir::Down), Instr::Move(Dir::Right)];
        for _ in 0..6 {
            body.extend(doc_next(flag, end));
        }
        body.extend(pebble_here(pebble, id));
        body.extend(goto_root());
        body.extend(goto_pebble(pebble, id, flag, end));
        body.push(Instr::If(
            Cond::RegEq(pebble, Source::Attr(id)),
            vec![Instr::Accept],
            vec![Instr::Fail],
        ));
        let p = w.compile(&body).unwrap();
        assert_eq!(p.classify(), TwClass::Tw);
        let report = run_on_tree(&p, &t, Limits::default());
        assert!(report.accepted(), "{:?}", report.halt);
    }

    #[test]
    fn delim_doc_next_covers_all_nodes() {
        // Scan all delimited nodes; the walk must visit exactly
        // |delim(t)| - 1 successors before the end flag fires. We verify
        // termination + acceptance; the count is implied by goto_pebble
        // finding ids assigned to delimiters below.
        let (mut vocab, t, syms, _) = setup(18, 9);
        let id = vocab.attr("id");
        let mut dt = twq_tree::DelimTree::build(&t);
        dt.assign_unique_ids(id, &mut vocab);
        let end = vocab.val_str("#end");
        let mut w = WalkerBuilder::new(&syms);
        let flag = w.register(None);
        let mut body = vec![Instr::While(
            Cond::Not(Box::new(Cond::RegEq(flag, Source::Const(end)))),
            delim_doc_next(flag, end),
        )];
        body.push(Instr::If(
            Cond::LabelIs(Label::DelimRoot),
            vec![Instr::Accept],
            vec![Instr::Fail],
        ));
        let p = w.compile(&body).unwrap();
        let report = crate::engine::run(&p, &dt, Limits::default());
        assert!(report.accepted(), "{:?}", report.halt);
        let dn = dt.tree().len();
        assert!(report.steps as usize >= dn, "visited fewer than all nodes");
    }

    #[test]
    fn goto_pebble_delim_reaches_delimiters() {
        // Pebble the 5th node in delimited pre-order (often a delimiter),
        // jump away, navigate back, verify.
        let (mut vocab, t, syms, _) = setup(10, 2);
        let id = vocab.attr("id");
        let mut dt = twq_tree::DelimTree::build(&t);
        dt.assign_unique_ids(id, &mut vocab);
        let end = vocab.val_str("#end");
        let mut w = WalkerBuilder::new(&syms);
        let pebble = w.register(None);
        let flag = w.register(None);
        let mut body = vec![];
        for _ in 0..5 {
            body.extend(delim_doc_next(flag, end));
        }
        body.extend(pebble_here(pebble, id));
        body.extend(goto_delim_root());
        body.extend(goto_pebble_delim(pebble, id, flag, end));
        body.push(Instr::If(
            Cond::RegEq(pebble, Source::Attr(id)),
            vec![Instr::Accept],
            vec![Instr::Fail],
        ));
        let p = w.compile(&body).unwrap();
        let report = crate::engine::run(&p, &dt, Limits::default());
        assert!(report.accepted(), "{:?}", report.halt);
    }

    #[test]
    fn goto_root_from_anywhere() {
        let (mut vocab, t, syms, _) = setup(15, 5);
        let end = vocab.val_str("#end");
        let mut w = WalkerBuilder::new(&syms);
        let flag = w.register(None);
        // Walk three nodes in, then goto_root, then verify the parent is ▽.
        let mut body = vec![Instr::Move(Dir::Down), Instr::Move(Dir::Right)];
        for _ in 0..3 {
            body.extend(doc_next(flag, end));
        }
        body.extend(goto_root());
        body.push(Instr::Move(Dir::Up)); // ▽
        body.push(Instr::If(
            Cond::LabelIs(Label::DelimRoot),
            vec![Instr::Accept],
            vec![Instr::Fail],
        ));
        let p = w.compile(&body).unwrap();
        let report = run_on_tree(&p, &t, Limits::default());
        assert!(report.accepted(), "{:?}", report.halt);
    }

    /// Five instructions over three nesting levels: the top-level body, the
    /// branches of the outer `If`, and the branches of the inner one.
    fn nested_body(sigma: Label) -> Vec<Instr> {
        vec![
            Instr::Move(Dir::Down),
            Instr::If(
                Cond::LabelIs(sigma),
                vec![when(Cond::LabelIs(sigma), vec![Instr::Accept])],
                vec![],
            ),
            Instr::Fail,
        ]
    }

    #[test]
    fn guarded_compile_trips_at_exact_fuel_and_depth() {
        use twq_guard::{ResourceGuard, TripReason};
        let (vocab, _, syms, _) = setup(4, 0);
        let w = WalkerBuilder::new(&syms);
        let body = nested_body(Label::Sym(vocab.sym_opt("sigma").unwrap()));
        let trip = |mut g: ResourceGuard| {
            let err = w.compile_in(&body, &mut NullCollector, &mut g).unwrap_err();
            err.guard().map(|e| e.reason)
        };
        // One fuel unit per instruction: five fit, four trip.
        let mut g = ResourceGuard::unlimited().with_budget(5);
        assert!(w.compile_in(&body, &mut NullCollector, &mut g).is_ok());
        assert_eq!(g.fuel_spent(), 5);
        assert_eq!(
            trip(ResourceGuard::unlimited().with_budget(4)),
            Some(TripReason::Budget { limit: 4 })
        );
        // Three nested bodies: depth 3 fits, 2 trips.
        let mut g = ResourceGuard::unlimited().with_depth_limit(DepthKind::Compile, 3);
        assert!(w.compile_in(&body, &mut NullCollector, &mut g).is_ok());
        assert_eq!(g.depth_high_water(DepthKind::Compile), 3);
        assert_eq!(
            trip(ResourceGuard::unlimited().with_depth_limit(DepthKind::Compile, 2)),
            Some(TripReason::Depth {
                kind: DepthKind::Compile,
                limit: 2
            })
        );
    }

    #[test]
    fn unlimited_guarded_compile_matches_compile() {
        use twq_guard::ResourceGuard;
        use twq_obs::MetricsCollector;
        let (vocab, _, syms, _) = setup(4, 0);
        let w = WalkerBuilder::new(&syms);
        let body = nested_body(Label::Sym(vocab.sym_opt("sigma").unwrap()));
        let plain = w.compile(&body).unwrap();
        let mut mc = MetricsCollector::new();
        let guarded = w
            .compile_in(&body, &mut mc, &mut ResourceGuard::unlimited())
            .unwrap();
        // State names, entry/exit states and the rule list in order (the
        // dispatch index is a hash map, so the whole `Debug` is unordered).
        let shape = |p: &TwProgram| {
            let names: Vec<String> = (0..p.state_count())
                .map(|q| p.state_name(State(q as u16)).to_owned())
                .collect();
            (
                names,
                p.initial(),
                p.final_state(),
                format!("{:?}", p.rules()),
            )
        };
        assert_eq!(shape(&guarded), shape(&plain));
        let counters = mc.metrics.counters;
        assert_eq!(counters["run/twir.states"], plain.state_count() as u64);
        assert_eq!(counters["run/twir.rules"], plain.rules().len() as u64);
    }
}
