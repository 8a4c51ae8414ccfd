//! Two-way deterministic finite automata on strings — the model Section 3
//! opens with ("such devices 'walk' in two directions over a string …
//! Analogously, a tree-walking automaton is a finite state device walking
//! a tree"), plus the embedding of 2DFAs into `TW` walkers on monadic
//! trees that makes the analogy literal.
//!
//! A 2DFA works on `⊢ w ⊣`; transitions depend on the state and the
//! symbol (or endmarker) under the head and move left or right. On the
//! tree side, the string `w = σ₁…σₙ` is the monadic tree `σ₁(σ₂(…σₙ))`,
//! `delim`-ed as usual: moving right is `↓` then `→` (hop over `⊳`, or
//! land on `△` = the right endmarker), moving left is `↑` (landing on `▽`
//! = the left endmarker). [`TwoDfa::to_walker`] performs this translation and the
//! tests confirm 2DFA ≡ compiled walker on random strings.

use std::collections::HashMap;

use twq_guard::{GaugeKind, Guard, NullGuard, TwqError};
use twq_obs::{Collector, HaltKind, NullCollector};
use twq_tree::{Label, SymId, Tree};

use crate::program::{Action, Dir, ProgramError, TwProgram, TwProgramBuilder};

/// A 2DFA state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DState(pub u16);

/// What the head sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cell {
    /// The left endmarker `⊢`.
    LeftEnd,
    /// The right endmarker `⊣`.
    RightEnd,
    /// A proper symbol.
    Sym(SymId),
}

/// A head move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DMove {
    /// One cell left.
    L,
    /// One cell right.
    R,
}

/// A two-way DFA over element symbols.
#[derive(Debug, Clone)]
pub struct TwoDfa {
    state_names: Vec<String>,
    initial: DState,
    accept: DState,
    delta: HashMap<(DState, Cell), (DState, DMove)>,
}

/// Builder for [`TwoDfa`].
#[derive(Debug, Default)]
pub struct TwoDfaBuilder {
    state_names: Vec<String>,
    by_name: HashMap<String, DState>,
    initial: Option<DState>,
    accept: Option<DState>,
    delta: HashMap<(DState, Cell), (DState, DMove)>,
}

impl TwoDfaBuilder {
    /// Start a new automaton.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a state.
    pub fn state(&mut self, name: &str) -> DState {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let s = DState(u16::try_from(self.state_names.len()).expect("too many states"));
        self.state_names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), s);
        s
    }

    /// Declare the initial state (head starts at `⊢`).
    pub fn initial(&mut self, s: DState) -> &mut Self {
        self.initial = Some(s);
        self
    }

    /// Declare the accepting state.
    pub fn accept(&mut self, s: DState) -> &mut Self {
        self.accept = Some(s);
        self
    }

    /// Add a transition.
    pub fn t(&mut self, from: DState, on: Cell, to: DState, mv: DMove) -> &mut Self {
        let prev = self.delta.insert((from, on), (to, mv));
        assert!(prev.is_none(), "duplicate transition");
        self
    }

    /// Freeze.
    pub fn build(self) -> TwoDfa {
        TwoDfa {
            state_names: self.state_names,
            initial: self.initial.expect("initial state required"),
            accept: self.accept.expect("accept state required"),
            delta: self.delta,
        }
    }
}

/// How a 2DFA run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DHalt {
    /// Accept state reached.
    Accept,
    /// No transition.
    Stuck,
    /// Configuration repeated (2DFAs can loop).
    Cycle,
    /// Walked off an endmarker.
    OffTape,
}

impl TwoDfa {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    /// Run on a word (without endmarkers; they are added internally).
    pub fn run(&self, word: &[SymId]) -> DHalt {
        self.run_in(word, &mut NullCollector, &mut NullGuard)
            .expect("NullGuard never trips")
    }

    /// [`TwoDfa::run`] with a collector and a resource guard.
    ///
    /// The collector sees one chain span for the whole run, one step per
    /// transition (the tape position plays the node), and cycle-table
    /// bookkeeping. `OffTape` reports as [`HaltKind::Stuck`] — walking off
    /// the tape is the string analogue of walking off the tree. The guard
    /// is charged one fuel unit per transition and sees the
    /// visited-configuration table as [`GaugeKind::Configs`].
    pub fn run_in<C: Collector, G: Guard>(
        &self,
        word: &[SymId],
        c: &mut C,
        g: &mut G,
    ) -> Result<DHalt, TwqError> {
        // Positions: 0 = ⊢, 1..=n = symbols, n+1 = ⊣.
        let n = word.len();
        let cell = |pos: usize| -> Cell {
            if pos == 0 {
                Cell::LeftEnd
            } else if pos == n + 1 {
                Cell::RightEnd
            } else {
                Cell::Sym(word[pos - 1])
            }
        };
        let mut state = self.initial;
        let mut pos = 0usize;
        let mut seen = vec![false; (n + 2) * self.state_count()];
        let mut tracked = 0usize;
        c.chain_enter(pos as u64, state.0 as u32, 0);
        let halt = loop {
            if state == self.accept {
                break DHalt::Accept;
            }
            let key = pos * self.state_count() + state.0 as usize;
            if seen[key] {
                break DHalt::Cycle;
            }
            seen[key] = true;
            tracked += 1;
            c.cycle_bookkeeping(tracked);
            if G::ENABLED {
                if let Err(e) = g.tick() {
                    c.chain_exit(HaltKind::StepLimit, 0);
                    return Err(TwqError::Guard(e));
                }
                if let Err(e) = g.gauge(GaugeKind::Configs, tracked) {
                    c.chain_exit(HaltKind::StepLimit, 0);
                    return Err(TwqError::Guard(e));
                }
            }
            let Some(&(next, mv)) = self.delta.get(&(state, cell(pos))) else {
                break DHalt::Stuck;
            };
            c.step(pos as u64, state.0 as u32, 0);
            // Acceptance is by *entering* the accept state; the final move
            // is irrelevant (and may point off the tape).
            if next == self.accept {
                break DHalt::Accept;
            }
            state = next;
            match mv {
                DMove::L => {
                    if pos == 0 {
                        break DHalt::OffTape;
                    }
                    pos -= 1;
                }
                DMove::R => {
                    if pos == n + 1 {
                        break DHalt::OffTape;
                    }
                    pos += 1;
                }
            }
        };
        let kind = match halt {
            DHalt::Accept => HaltKind::Accept,
            DHalt::Stuck | DHalt::OffTape => HaltKind::Stuck,
            DHalt::Cycle => HaltKind::Cycle,
        };
        c.chain_exit(kind, 0);
        c.halt(kind);
        Ok(halt)
    }

    /// Compile into a `TW` walker over the monadic-tree embedding: state
    /// `q` at string position `i` ↔ walker state `q` at the `i`-th chain
    /// node (`▽` plays `⊢`, `△` plays `⊣`). One 2DFA right-move becomes
    /// two walker moves (`↓` to `⊳`/`△`, then `→` past `⊳`); left-moves
    /// become `↑` (with `△ → ↑↑` to hop back to the last symbol, and
    /// `▽`-adjacent bookkeeping for the `⊢ → first symbol` step).
    pub fn to_walker(&self, alphabet: &[SymId]) -> Result<TwProgram, ProgramError> {
        let mut b = TwProgramBuilder::new();
        // Walker states: per 2DFA state q, a main state and a "hop" state
        // (used mid-right-move while standing on ⊳).
        let q_f = b.state("qF");
        let main: Vec<_> = (0..self.state_count())
            .map(|i| b.state(&format!("{}@{i}", self.state_names[i])))
            .collect();
        let hop: Vec<_> = (0..self.state_count())
            .map(|i| b.state(&format!("hop@{i}")))
            .collect();
        b.initial(main[self.initial.0 as usize]);
        b.final_state(q_f);

        let target = |s: DState| main[s.0 as usize];
        for (&(from, on), &(to, mv)) in &self.delta {
            if from == self.accept {
                continue;
            }
            let from_main = main[from.0 as usize];
            let to_state = if to == self.accept { q_f } else { target(to) };
            // Entering the accept state ends the run; the declared move is
            // irrelevant (it may even point off the tape).
            if to == self.accept {
                match on {
                    Cell::LeftEnd => {
                        b.rule_true(Label::DelimRoot, from_main, Action::Move(q_f, Dir::Stay));
                    }
                    Cell::RightEnd => {
                        b.rule_true(Label::DelimLeaf, from_main, Action::Move(q_f, Dir::Stay));
                        b.rule_true(Label::DelimClose, from_main, Action::Move(q_f, Dir::Stay));
                    }
                    Cell::Sym(sy) => {
                        b.rule_true(Label::Sym(sy), from_main, Action::Move(q_f, Dir::Stay));
                    }
                }
                continue;
            }
            match on {
                Cell::LeftEnd => {
                    // At ▽. Right: ↓ (to ⊳) then → (to the first symbol or
                    // ⊲ for the empty word — treat ⊲ as ⊣ by a dedicated
                    // rule below). Left: off tape → no rule (stuck).
                    if mv == DMove::R {
                        b.rule_true(
                            Label::DelimRoot,
                            from_main,
                            Action::Move(hop[to.0 as usize], Dir::Down),
                        );
                    }
                }
                Cell::RightEnd => {
                    // At △ (or top-level ⊲ for the empty word). Left: ↑ to
                    // the last symbol (or ▽). Right: off tape.
                    if mv == DMove::L {
                        b.rule_true(Label::DelimLeaf, from_main, Action::Move(to_state, Dir::Up));
                        b.rule_true(
                            Label::DelimClose,
                            from_main,
                            Action::Move(to_state, Dir::Up),
                        );
                    }
                }
                Cell::Sym(s) => match mv {
                    DMove::R => {
                        b.rule_true(
                            Label::Sym(s),
                            from_main,
                            Action::Move(hop[to.0 as usize], Dir::Down),
                        );
                    }
                    DMove::L => {
                        b.rule_true(Label::Sym(s), from_main, Action::Move(to_state, Dir::Up));
                    }
                },
            }
        }
        // Hop states: we just moved ↓ and stand on ⊳ (another symbol
        // follows) or △ (we reached ⊣). On ⊳: → lands on the symbol. The
        // empty word's ▽ hop lands on ⊳ whose → is ⊲ — a second hop rule
        // forwards ⊲ to the same state as △ would be... but ⊲ IS where we
        // land, so the ⊲ rules of RightEnd transitions (above) apply.
        for i in 0..self.state_count() {
            let to_state = if DState(i as u16) == self.accept {
                q_f
            } else {
                main[i]
            };
            b.rule_true(Label::DelimOpen, hop[i], Action::Move(to_state, Dir::Right));
            // Landed directly on △: we're at ⊣ already.
            b.rule_true(Label::DelimLeaf, hop[i], Action::Move(to_state, Dir::Stay));
        }
        // Accepting immediately in a hop-target is handled because hop
        // forwards into q_f when the target is the accept state.
        let _ = alphabet;
        b.build()
    }
}

/// The classic genuinely two-way example: **even number of `a`s and even
/// number of `b`s**, by two passes (right pass counting `a`-parity,
/// rewind, right pass counting `b`-parity).
pub fn even_as_and_bs(a: SymId, bsym: SymId) -> TwoDfa {
    let mut b = TwoDfaBuilder::new();
    let pa = [b.state("a_even"), b.state("a_odd")];
    let rew = b.state("rewind");
    let pb = [b.state("b_even"), b.state("b_odd")];
    let acc = b.state("acc");
    b.initial(pa[0]).accept(acc);
    // Pass 1: count a-parity rightwards.
    for p in 0..2 {
        b.t(pa[p], Cell::LeftEnd, pa[p], DMove::R);
        b.t(pa[p], Cell::Sym(a), pa[1 - p], DMove::R);
        b.t(pa[p], Cell::Sym(bsym), pa[p], DMove::R);
    }
    // At ⊣ with even a-count: rewind. Odd: stuck (reject).
    b.t(pa[0], Cell::RightEnd, rew, DMove::L);
    // Rewind to ⊢.
    b.t(rew, Cell::Sym(a), rew, DMove::L);
    b.t(rew, Cell::Sym(bsym), rew, DMove::L);
    b.t(rew, Cell::LeftEnd, pb[0], DMove::R);
    // Pass 2: count b-parity.
    for p in 0..2 {
        b.t(pb[p], Cell::Sym(bsym), pb[1 - p], DMove::R);
        b.t(pb[p], Cell::Sym(a), pb[p], DMove::R);
    }
    b.t(pb[0], Cell::RightEnd, acc, DMove::R);
    b.build()
}

/// Build the monadic tree for a word (requires a non-empty word; the
/// paper's trees are non-empty).
pub fn word_tree(word: &[SymId]) -> Tree {
    assert!(!word.is_empty(), "trees are never empty");
    let mut t = Tree::new(Label::Sym(word[0]));
    let mut cur = t.root();
    for &s in &word[1..] {
        cur = t.add_child(cur, Label::Sym(s));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_on_tree, Limits};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn syms() -> (twq_tree::Vocab, SymId, SymId) {
        let mut v = twq_tree::Vocab::new();
        let a = v.sym("a");
        let b = v.sym("b");
        (v, a, b)
    }

    fn oracle(word: &[SymId], a: SymId, b: SymId) -> bool {
        word.iter().filter(|&&s| s == a).count() % 2 == 0
            && word.iter().filter(|&&s| s == b).count() % 2 == 0
    }

    #[test]
    fn two_way_automaton_decides_double_parity() {
        let (_, a, b) = syms();
        let m = even_as_and_bs(a, b);
        let mut rng = StdRng::seed_from_u64(1);
        for len in 1..=12usize {
            for _ in 0..6 {
                let word: Vec<SymId> = (0..len)
                    .map(|_| if rng.gen_bool(0.5) { a } else { b })
                    .collect();
                let got = m.run(&word) == DHalt::Accept;
                assert_eq!(got, oracle(&word, a, b), "{word:?}");
            }
        }
    }

    #[test]
    fn cycle_detection_on_pathological_automaton() {
        let (_, a, b) = syms();
        let mut bb = TwoDfaBuilder::new();
        let s0 = bb.state("s0");
        let s1 = bb.state("s1");
        let acc = bb.state("acc");
        bb.initial(s0).accept(acc);
        bb.t(s0, Cell::LeftEnd, s1, DMove::R);
        bb.t(s1, Cell::Sym(a), s0, DMove::L);
        bb.t(s0, Cell::Sym(a), s0, DMove::R); // unreachable from ⊢ shape
        let m = bb.build();
        assert_eq!(m.run(&[a, b]), DHalt::Cycle);
    }

    #[test]
    fn walker_embedding_agrees_with_the_2dfa() {
        let (_, a, b) = syms();
        let m = even_as_and_bs(a, b);
        let walker = m.to_walker(&[a, b]).unwrap();
        assert_eq!(walker.reg_count(), 0, "pure finite-state walker");
        let mut rng = StdRng::seed_from_u64(7);
        let (mut acc, mut rej) = (0, 0);
        for len in 1..=10usize {
            for _ in 0..4 {
                let word: Vec<SymId> = (0..len)
                    .map(|_| if rng.gen_bool(0.5) { a } else { b })
                    .collect();
                let t = word_tree(&word);
                let direct = m.run(&word) == DHalt::Accept;
                let walked = run_on_tree(&walker, &t, Limits::default());
                assert_eq!(walked.accepted(), direct, "{word:?}");
                if direct {
                    acc += 1;
                } else {
                    rej += 1;
                }
            }
        }
        assert!(acc > 0 && rej > 0, "acc={acc} rej={rej}");
    }

    #[test]
    fn word_tree_is_a_chain() {
        let (_, a, b) = syms();
        let t = word_tree(&[a, b, a]);
        assert_eq!(t.len(), 3);
        let mut cur = t.root();
        let mut labels = vec![t.label(cur)];
        while let Some(c) = t.first_child(cur) {
            labels.push(t.label(c));
            cur = c;
        }
        assert_eq!(labels, vec![Label::Sym(a), Label::Sym(b), Label::Sym(a)]);
    }
}
