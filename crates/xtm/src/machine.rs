//! XML Turing machines (`xTM`, Definition 6.1): a tree-walking automaton
//! with registers plus a one-way infinite work-tape over a finite alphabet.
//!
//! An `xTM` walks the **delimited** input tree (it is "a TW with a …
//! work-tape", and `TW`s run on `delim(t)`, Section 3) while reading and
//! writing the tape. The size of the input is the number of tree nodes;
//! the resource meters below define the classes `LOGSPACE^X`, `PTIME^X`,
//! `PSPACE^X`, `EXPTIME^X` (Section 6) as limits on steps taken and tape
//! cells used.
//!
//! Registers hold single `D`-values loaded from attributes of the current
//! node; rule guards may compare a register with the current node's
//! attribute or with another register. (Machines that never touch `D` set
//! no guards — those are exactly the machines the Theorem 7.1(1) pebble
//! compiler accepts.)

use std::collections::{HashMap, HashSet};
use std::fmt;

use twq_guard::{FaultKind, FaultSite, GaugeKind, Guard, NullGuard, TwqError};
use twq_obs::{Collector, HaltKind, NullCollector};
use twq_tree::{AttrId, DelimTree, Label, NodeId, Tree, Value};

/// A machine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct XState(pub u16);

impl fmt::Display for XState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A tape symbol; `0` is the blank.
pub type TapeSym = u8;

/// The blank tape symbol.
pub const BLANK: TapeSym = 0;

/// A head move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeadMove {
    /// One cell left (moving left of cell 0 halts the run as stuck).
    Left,
    /// One cell right.
    Right,
    /// Stay.
    Stay,
}

/// A tree move (mirrors the walker directions of Definition 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeDir {
    /// Stay.
    Stay,
    /// Left sibling.
    Left,
    /// Right sibling.
    Right,
    /// Parent.
    Up,
    /// First child.
    Down,
}

/// A guard over the registers and the current node's attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XGuard {
    /// Always true.
    True,
    /// Register `i` equals the current node's `a`-attribute.
    RegEqAttr(u8, AttrId),
    /// Negation of [`XGuard::RegEqAttr`].
    RegNeAttr(u8, AttrId),
    /// Registers `i` and `j` hold equal values.
    RegEqReg(u8, u8),
    /// Negation of [`XGuard::RegEqReg`].
    RegNeReg(u8, u8),
}

/// A register side effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XRegOp {
    /// No register change.
    None,
    /// Load the current node's `a`-attribute into register `i`.
    LoadAttr(u8, AttrId),
}

/// One transition rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XtmRule {
    /// Current state.
    pub state: XState,
    /// Label of the current tree node.
    pub label: Label,
    /// Symbol under the tape head.
    pub tape: TapeSym,
    /// Constraint on whether the head is at the left end of the tape
    /// (`None` = don't care). Two-way devices sense their end markers; the
    /// one-way-infinite tape's left end is sensed the same way.
    pub cell0: Option<bool>,
    /// Register/attribute guard.
    pub guard: XGuard,
    /// Next state.
    pub next: XState,
    /// Symbol written under the head.
    pub write: TapeSym,
    /// Head move.
    pub head: HeadMove,
    /// Tree move.
    pub tree: TreeDir,
    /// Register side effect (applied at the source node, before moving).
    pub reg: XRegOp,
}

/// Quantifier mode of a state (for alternating machines; deterministic
/// machines use only [`Mode::Exist`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Existential: some applicable rule must lead to acceptance.
    Exist,
    /// Universal: every applicable rule must lead to acceptance.
    Univ,
}

/// An XML Turing machine.
#[derive(Debug, Clone)]
pub struct Xtm {
    state_names: Vec<String>,
    modes: Vec<Mode>,
    initial: XState,
    accept: XState,
    reg_count: u8,
    rules: Vec<XtmRule>,
    index: HashMap<(XState, Label, TapeSym), Vec<usize>>,
}

/// Builder for [`Xtm`].
#[derive(Debug, Default)]
pub struct XtmBuilder {
    state_names: Vec<String>,
    modes: Vec<Mode>,
    by_name: HashMap<String, XState>,
    initial: Option<XState>,
    accept: Option<XState>,
    reg_count: u8,
    rules: Vec<XtmRule>,
}

impl XtmBuilder {
    /// Start a new machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an (existential) state.
    pub fn state(&mut self, name: &str) -> XState {
        self.state_mode(name, Mode::Exist)
    }

    /// Intern a state with an explicit mode.
    pub fn state_mode(&mut self, name: &str, mode: Mode) -> XState {
        if let Some(&s) = self.by_name.get(name) {
            return s;
        }
        let s = XState(u16::try_from(self.state_names.len()).expect("too many states"));
        self.state_names.push(name.to_owned());
        self.modes.push(mode);
        self.by_name.insert(name.to_owned(), s);
        s
    }

    /// Declare the initial state.
    pub fn initial(&mut self, s: XState) -> &mut Self {
        self.initial = Some(s);
        self
    }

    /// Declare the accepting state.
    pub fn accept(&mut self, s: XState) -> &mut Self {
        self.accept = Some(s);
        self
    }

    /// Declare `n` registers.
    pub fn registers(&mut self, n: u8) -> &mut Self {
        self.reg_count = n;
        self
    }

    /// Add a rule.
    pub fn rule(&mut self, rule: XtmRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Add a simple (guard-free, register-free) rule.
    #[allow(clippy::too_many_arguments)]
    pub fn simple(
        &mut self,
        state: XState,
        label: Label,
        tape: TapeSym,
        next: XState,
        write: TapeSym,
        head: HeadMove,
        tree: TreeDir,
    ) -> &mut Self {
        self.rule(XtmRule {
            state,
            label,
            tape,
            cell0: None,
            guard: XGuard::True,
            next,
            write,
            head,
            tree,
            reg: XRegOp::None,
        })
    }

    /// Validate and freeze.
    ///
    /// # Errors
    /// [`TwqError::Invalid`] when no initial/accept state was declared, a
    /// rule references an unknown state, or a rule leaves the accept state.
    pub fn build(self) -> Result<Xtm, TwqError> {
        let invalid = |d: &str| TwqError::invalid("xtm::build", d.to_owned());
        let initial = self
            .initial
            .ok_or_else(|| invalid("initial state required"))?;
        let accept = self
            .accept
            .ok_or_else(|| invalid("accept state required"))?;
        let mut index: HashMap<(XState, Label, TapeSym), Vec<usize>> = HashMap::new();
        for (i, r) in self.rules.iter().enumerate() {
            if (r.state.0 as usize) >= self.state_names.len()
                || (r.next.0 as usize) >= self.state_names.len()
            {
                return Err(invalid("rule references unknown state"));
            }
            if r.state == accept {
                return Err(invalid("no transitions from the accept state"));
            }
            index.entry((r.state, r.label, r.tape)).or_default().push(i);
        }
        Ok(Xtm {
            state_names: self.state_names,
            modes: self.modes,
            initial,
            accept,
            reg_count: self.reg_count,
            rules: self.rules,
            index,
        })
    }
}

impl Xtm {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    /// The initial state.
    pub fn initial(&self) -> XState {
        self.initial
    }

    /// The accepting state.
    pub fn accept(&self) -> XState {
        self.accept
    }

    /// Number of registers.
    pub fn reg_count(&self) -> u8 {
        self.reg_count
    }

    /// All rules.
    pub fn rules(&self) -> &[XtmRule] {
        &self.rules
    }

    /// The mode of a state.
    pub fn mode(&self, s: XState) -> Mode {
        self.modes[s.0 as usize]
    }

    /// Whether the machine is register- and guard-free (the fragment the
    /// pebble compiler of `twq-sim` accepts).
    pub fn is_register_free(&self) -> bool {
        self.reg_count == 0
            && self
                .rules
                .iter()
                .all(|r| r.guard == XGuard::True && r.reg == XRegOp::None)
    }

    /// Whether the tape alphabet is `{blank, 1}` — "the tape can only
    /// contain the symbols 0 and 1" (Theorem 7.1(1) proof).
    pub fn is_binary_tape(&self) -> bool {
        self.rules.iter().all(|r| r.tape <= 1 && r.write <= 1)
    }

    fn rules_for(&self, s: XState, l: Label, t: TapeSym) -> &[usize] {
        self.index.get(&(s, l, t)).map_or(&[], |v| v.as_slice())
    }
}

/// A full machine configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct XtmConfig {
    /// Current tree node (in the delimited tree).
    pub node: NodeId,
    /// Current state.
    pub state: XState,
    /// Head position (cell index, 0-based).
    pub head: usize,
    /// Tape contents (trailing blanks trimmed).
    pub tape: Vec<TapeSym>,
    /// Register contents (`⊥` when never loaded).
    pub regs: Vec<Value>,
}

impl XtmConfig {
    fn read(&self) -> TapeSym {
        self.tape.get(self.head).copied().unwrap_or(BLANK)
    }

    fn write(&mut self, s: TapeSym) {
        if self.head >= self.tape.len() {
            if s == BLANK {
                return;
            }
            self.tape.resize(self.head + 1, BLANK);
        }
        self.tape[self.head] = s;
        while self.tape.last() == Some(&BLANK) {
            self.tape.pop();
        }
    }
}

/// Resource limits defining the complexity classes of Section 6.
#[derive(Debug, Clone, Copy)]
pub struct XtmLimits {
    /// Maximum transitions (`PTIME^X` / `EXPTIME^X` are step bounds).
    pub max_steps: u64,
    /// Maximum tape cells ever touched (`LOGSPACE^X` / `PSPACE^X`).
    pub max_space: usize,
}

impl Default for XtmLimits {
    fn default() -> Self {
        XtmLimits {
            max_steps: 10_000_000,
            max_space: 1 << 20,
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XtmHalt {
    /// Reached the accept state.
    Accept,
    /// No applicable rule / moved off the tree or tape.
    Stuck,
    /// Configuration repeated.
    Cycle,
    /// Several rules applied in a deterministic run.
    Nondeterministic,
    /// Step budget exceeded.
    StepLimit,
    /// Space budget exceeded.
    SpaceLimit,
}

impl XtmHalt {
    /// The evaluator-agnostic [`HaltKind`] reported to collectors.
    pub fn kind(self) -> HaltKind {
        match self {
            XtmHalt::Accept => HaltKind::Accept,
            XtmHalt::Stuck => HaltKind::Stuck,
            XtmHalt::Cycle => HaltKind::Cycle,
            XtmHalt::Nondeterministic => HaltKind::Nondeterministic,
            XtmHalt::StepLimit => HaltKind::StepLimit,
            XtmHalt::SpaceLimit => HaltKind::SpaceLimit,
        }
    }
}

/// Run statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XtmReport {
    /// Outcome.
    pub halt: XtmHalt,
    /// Transitions taken.
    pub steps: u64,
    /// Tape cells used (max over the run) — the space measure.
    pub space: usize,
}

impl XtmReport {
    /// Whether the machine accepted.
    pub fn accepted(&self) -> bool {
        self.halt == XtmHalt::Accept
    }
}

fn tree_move(tree: &Tree, u: NodeId, d: TreeDir) -> Option<NodeId> {
    match d {
        TreeDir::Stay => Some(u),
        TreeDir::Left => tree.prev_sibling(u),
        TreeDir::Right => tree.next_sibling(u),
        TreeDir::Up => tree.parent(u),
        TreeDir::Down => tree.first_child(u),
    }
}

fn guard_holds(g: XGuard, tree: &Tree, u: NodeId, regs: &[Value]) -> bool {
    match g {
        XGuard::True => true,
        XGuard::RegEqAttr(i, a) => regs[i as usize] == tree.attr(u, a),
        XGuard::RegNeAttr(i, a) => regs[i as usize] != tree.attr(u, a),
        XGuard::RegEqReg(i, j) => regs[i as usize] == regs[j as usize],
        XGuard::RegNeReg(i, j) => regs[i as usize] != regs[j as usize],
    }
}

/// Apply one rule to a configuration; `None` if the move falls off the
/// tree or tape.
fn apply(m: &Xtm, tree: &Tree, cfg: &XtmConfig, rule: &XtmRule) -> Option<XtmConfig> {
    let mut next = cfg.clone();
    if let XRegOp::LoadAttr(i, a) = rule.reg {
        next.regs[i as usize] = tree.attr(cfg.node, a);
    }
    next.write(rule.write);
    next.head = match rule.head {
        HeadMove::Left => next.head.checked_sub(1)?,
        HeadMove::Right => next.head + 1,
        HeadMove::Stay => next.head,
    };
    next.node = tree_move(tree, cfg.node, rule.tree)?;
    next.state = rule.next;
    let _ = m;
    Some(next)
}

/// Run a deterministic machine on a delimited tree.
pub fn run_xtm(m: &Xtm, delim: &DelimTree, limits: XtmLimits) -> XtmReport {
    run_xtm_in(m, delim, limits, &mut NullCollector, &mut NullGuard).expect("NullGuard never trips")
}

/// [`run_xtm`] with a collector and a resource guard.
///
/// The collector sees one chain span for the run carrying the head's walk
/// path `(node, state)`, one step per transition, guard evaluations, and
/// the halt; the tape-cell high-water mark is [`XtmReport::space`]. The
/// guard is charged one fuel unit per transition, tape growth is gauged as
/// [`GaugeKind::TapeCells`] and the cycle table as [`GaugeKind::Configs`];
/// fault plans may drop the selected transition (the run gets stuck) or
/// corrupt the tape (cleared to blanks). With [`NullGuard`] the call never
/// fails.
pub fn run_xtm_in<C: Collector, G: Guard>(
    m: &Xtm,
    delim: &DelimTree,
    limits: XtmLimits,
    c: &mut C,
    g: &mut G,
) -> Result<XtmReport, TwqError> {
    let tree = delim.tree();
    let mut cfg = XtmConfig {
        node: tree.root(),
        state: m.initial(),
        head: 0,
        tape: Vec::new(),
        regs: vec![Value::BOT; m.reg_count() as usize],
    };
    let mut steps = 0u64;
    let mut space = 0usize;
    let mut seen: HashSet<XtmConfig> = HashSet::new();
    c.chain_enter(cfg.node.0 as u64, cfg.state.0 as u32, 0);
    let halt = loop {
        space = space.max(cfg.tape.len()).max(cfg.head + 1);
        if space > limits.max_space {
            break Ok(XtmHalt::SpaceLimit);
        }
        if G::ENABLED {
            if let Err(e) = g.gauge(GaugeKind::TapeCells, space) {
                break Err(e);
            }
        }
        if cfg.state == m.accept() {
            break Ok(XtmHalt::Accept);
        }
        if !seen.insert(cfg.clone()) {
            break Ok(XtmHalt::Cycle);
        }
        if G::ENABLED {
            if let Err(e) = g.gauge(GaugeKind::Configs, seen.len()) {
                break Err(e);
            }
        }
        let label = tree.label(cfg.node);
        let sym = cfg.read();
        let mut chosen = None;
        let mut nondet = false;
        for &i in m.rules_for(cfg.state, label, sym) {
            let r = &m.rules()[i];
            c.fo_eval(twq_obs::FoEval::Guard);
            if r.cell0.is_none_or(|b| b == (cfg.head == 0))
                && guard_holds(r.guard, tree, cfg.node, &cfg.regs)
            {
                if chosen.is_some() {
                    nondet = true;
                    break;
                }
                chosen = Some(i);
            }
        }
        if nondet {
            break Ok(XtmHalt::Nondeterministic);
        }
        let Some(i) = chosen else {
            break Ok(XtmHalt::Stuck);
        };
        if steps >= limits.max_steps {
            break Ok(XtmHalt::StepLimit);
        }
        steps += 1;
        c.step(cfg.node.0 as u64, cfg.state.0 as u32, 0);
        if G::ENABLED {
            if let Err(e) = g.tick() {
                break Err(e);
            }
            if g.fault_at(FaultSite::Transition) == Some(FaultKind::DropTransition) {
                break Ok(XtmHalt::Stuck);
            }
            if g.fault_at(FaultSite::Store) == Some(FaultKind::CorruptStore) {
                cfg.tape.clear();
            }
        }
        match apply(m, tree, &cfg, &m.rules()[i]) {
            Some(next) => cfg = next,
            None => break Ok(XtmHalt::Stuck),
        }
    };
    match halt {
        Ok(halt) => {
            c.chain_exit(halt.kind(), 0);
            c.halt(halt.kind());
            Ok(XtmReport { halt, steps, space })
        }
        Err(mut e) => {
            c.chain_exit(HaltKind::StepLimit, 0);
            c.halt(HaltKind::StepLimit);
            e.partial.fuel_spent = e.partial.fuel_spent.max(steps);
            e.partial.max_gauge = e.partial.max_gauge.max(space);
            Err(TwqError::Guard(e))
        }
    }
}

/// Convenience: delimit and run.
pub fn run_xtm_on_tree(m: &Xtm, tree: &Tree, limits: XtmLimits) -> XtmReport {
    run_xtm(m, &DelimTree::build(tree), limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_tree::{parse_tree, Vocab};

    /// A two-rule machine: at ▽ with blank tape, write 1 and accept.
    fn tiny() -> Xtm {
        let mut b = XtmBuilder::new();
        let s0 = b.state("s0");
        let acc = b.state("acc");
        b.initial(s0).accept(acc);
        b.simple(
            s0,
            Label::DelimRoot,
            BLANK,
            acc,
            1,
            HeadMove::Stay,
            TreeDir::Stay,
        );
        b.build().unwrap()
    }

    #[test]
    fn accepts_and_meters() {
        let mut v = Vocab::new();
        let t = parse_tree("a(b)", &mut v).unwrap();
        let r = run_xtm_on_tree(&tiny(), &t, XtmLimits::default());
        assert!(r.accepted());
        assert_eq!(r.steps, 1);
        assert_eq!(r.space, 1);
    }

    #[test]
    fn stuck_without_rules() {
        let mut b = XtmBuilder::new();
        let s0 = b.state("s0");
        let acc = b.state("acc");
        b.initial(s0).accept(acc);
        let m = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let r = run_xtm_on_tree(&m, &t, XtmLimits::default());
        assert_eq!(r.halt, XtmHalt::Stuck);
    }

    #[test]
    fn cycle_detected() {
        let mut b = XtmBuilder::new();
        let s0 = b.state("s0");
        let acc = b.state("acc");
        b.initial(s0).accept(acc);
        // Spin in place without changing anything.
        b.simple(
            s0,
            Label::DelimRoot,
            BLANK,
            s0,
            BLANK,
            HeadMove::Stay,
            TreeDir::Stay,
        );
        let m = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let r = run_xtm_on_tree(&m, &t, XtmLimits::default());
        assert_eq!(r.halt, XtmHalt::Cycle);
    }

    #[test]
    fn tape_roundtrip_and_space() {
        // Write 1s moving right N times, then accept: space = N+1.
        let mut b = XtmBuilder::new();
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let s2 = b.state("s2");
        let acc = b.state("acc");
        b.initial(s0).accept(acc);
        b.simple(
            s0,
            Label::DelimRoot,
            BLANK,
            s1,
            1,
            HeadMove::Right,
            TreeDir::Stay,
        );
        b.simple(
            s1,
            Label::DelimRoot,
            BLANK,
            s2,
            1,
            HeadMove::Right,
            TreeDir::Stay,
        );
        b.simple(
            s2,
            Label::DelimRoot,
            BLANK,
            acc,
            1,
            HeadMove::Stay,
            TreeDir::Stay,
        );
        let m = b.build().unwrap();
        assert!(m.is_binary_tape());
        assert!(m.is_register_free());
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let r = run_xtm_on_tree(&m, &t, XtmLimits::default());
        assert!(r.accepted());
        assert_eq!(r.space, 3);
    }

    #[test]
    fn space_limit_enforced() {
        // March right forever on blanks.
        let mut b = XtmBuilder::new();
        let s0 = b.state("s0");
        let acc = b.state("acc");
        b.initial(s0).accept(acc);
        b.simple(
            s0,
            Label::DelimRoot,
            BLANK,
            s0,
            1,
            HeadMove::Right,
            TreeDir::Stay,
        );
        let m = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let r = run_xtm_on_tree(
            &m,
            &t,
            XtmLimits {
                max_steps: 1000,
                max_space: 10,
            },
        );
        assert_eq!(r.halt, XtmHalt::SpaceLimit);
    }

    #[test]
    fn register_guards() {
        // Accept iff the original root's a-attribute equals its first
        // child's: load at root image, walk down, compare.
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let sym = Label::Sym(vocab.sym("s"));
        let mut b = XtmBuilder::new();
        let s0 = b.state("s0");
        let s1 = b.state("s1");
        let s2 = b.state("s2");
        let s3 = b.state("s3");
        let s4 = b.state("s4");
        let acc = b.state("acc");
        b.initial(s0).accept(acc).registers(1);
        // ▽ → ⊳ → root image.
        b.simple(
            s0,
            Label::DelimRoot,
            BLANK,
            s1,
            BLANK,
            HeadMove::Stay,
            TreeDir::Down,
        );
        b.simple(
            s1,
            Label::DelimOpen,
            BLANK,
            s2,
            BLANK,
            HeadMove::Stay,
            TreeDir::Right,
        );
        // Load a, descend to ⊳ of children, step right to first child.
        b.rule(XtmRule {
            state: s2,
            label: sym,
            tape: BLANK,
            cell0: None,
            guard: XGuard::True,
            next: s3,
            write: BLANK,
            head: HeadMove::Stay,
            tree: TreeDir::Down,
            reg: XRegOp::LoadAttr(0, a),
        });
        b.simple(
            s3,
            Label::DelimOpen,
            BLANK,
            s4,
            BLANK,
            HeadMove::Stay,
            TreeDir::Right,
        );
        // Compare.
        b.rule(XtmRule {
            state: s4,
            label: sym,
            tape: BLANK,
            cell0: None,
            guard: XGuard::RegEqAttr(0, a),
            next: acc,
            write: BLANK,
            head: HeadMove::Stay,
            tree: TreeDir::Stay,
            reg: XRegOp::None,
        });
        let m = b.build().unwrap();
        assert!(!m.is_register_free());

        let t1 = parse_tree("s[a=3](s[a=3])", &mut vocab).unwrap();
        assert!(run_xtm_on_tree(&m, &t1, XtmLimits::default()).accepted());
        let t2 = parse_tree("s[a=3](s[a=4])", &mut vocab).unwrap();
        assert!(!run_xtm_on_tree(&m, &t2, XtmLimits::default()).accepted());
    }
}
