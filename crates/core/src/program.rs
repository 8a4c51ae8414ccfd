//! Tree-walking programs: the `tw^{r,l}` automaton model of Definition 3.1
//! and its restrictions `tw^r`, `tw^l`, `TW` (Definition 5.1).
//!
//! A `k`-register `tw^{r,l}`-automaton is a tuple `(Q, q₀, q_F, τ₀, P)`
//! where `P` contains rules `(σ, q, ξ) → α`: when the current node carries
//! `σ`, the state is `q`, and the store satisfies the guard `ξ`, the
//! automaton performs `α`, which is one of
//!
//! 1. `(q', d)` — change state and move in direction
//!    `d ∈ {·, ←, →, ↑, ↓}`;
//! 2. `(q', ψ, i)` — change state and replace register `i` with the
//!    relation defined by the store-FO formula `ψ`;
//! 3. `(q', atp(φ(x,y), p), i)` — change state and replace register `i`
//!    with the union of the first registers of subcomputations started in
//!    state `p` at every node selected by the `FO(∃*)` formula `φ` from
//!    the current node.
//!
//! One deliberate generalization: Definition 3.1 types the initial
//! assignment as `τ₀ : {1,…,k} → D ∪ {⊥}` (single values), a leftover from
//! the register model of [Neven–Schwentick–Vianu 2000] — but configurations
//! immediately re-type `τ` as mapping registers to *relations*. We let
//! `τ₀` assign an arbitrary finite relation (usually empty or a singleton),
//! which subsumes the paper's typing.
//!
//! ## Rule dispatch
//!
//! [`TwProgramBuilder::build`] sorts the rules into a table by
//! `(state, label)`, so a transition finds its candidate rules with one
//! lookup. The table's columns are the four delimiters and the symbols
//! some rule mentions, not every id up to the largest `SymId`: for `|Q|`
//! states and `s` mentioned symbols it holds `|Q|·(4 + s) + 1` group
//! boundaries and one index per rule. One counting sort fills it in
//! `O(|rules| + |Q|·(4 + s))`, and [`TwProgram::rules_for`] returns each
//! group in ascending rule order.

use std::collections::HashMap;
use std::fmt;

use twq_logic::{ExistsFormula, RegId, Relation, SAtom, SFormula, STerm};
use twq_tree::{Label, SymId, Vocab};

/// An automaton state `q ∈ Q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct State(pub u16);

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A walking direction `d ∈ {·, ←, →, ↑, ↓}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// `·` — stay.
    Stay,
    /// `←` — left sibling.
    Left,
    /// `→` — right sibling.
    Right,
    /// `↑` — parent.
    Up,
    /// `↓` — first child.
    Down,
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::Stay => "·",
            Dir::Left => "←",
            Dir::Right => "→",
            Dir::Up => "↑",
            Dir::Down => "↓",
        };
        f.write_str(s)
    }
}

/// The right-hand side `α` of a rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Form 1: `(q', d)`.
    Move(State, Dir),
    /// Form 2: `(q', ψ, i)`.
    Update(State, SFormula, RegId),
    /// Form 3: `(q', atp(φ(x,y), p), i)`.
    Atp(State, ExistsFormula, State, RegId),
}

impl Action {
    /// The successor state `q'`.
    pub fn next_state(&self) -> State {
        match self {
            Action::Move(q, _) | Action::Update(q, _, _) | Action::Atp(q, _, _, _) => *q,
        }
    }
}

/// A rule `(σ, q, ξ) → α`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The label the current node must carry.
    pub label: Label,
    /// The state the automaton must be in.
    pub state: State,
    /// The guard `ξ`, an FO sentence over the store (plus attribute and
    /// data-value constants).
    pub guard: SFormula,
    /// The action.
    pub action: Action,
}

/// The language class of a program (Definition 5.1), ordered by
/// expressiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TwClass {
    /// `TW`: unary single-value registers, quantifier-free single-value
    /// updates, no look-ahead. Captures LOGSPACE^X with unique IDs.
    Tw,
    /// `tw^l`: `TW` plus single-node look-ahead. Captures PTIME^X.
    TwL,
    /// `tw^r`: full relational storage, no look-ahead. Captures PSPACE^X.
    TwR,
    /// `tw^{r,l}`: everything. Captures EXPTIME^X.
    TwRL,
}

impl fmt::Display for TwClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TwClass::Tw => "TW",
            TwClass::TwL => "tw^l",
            TwClass::TwR => "tw^r",
            TwClass::TwRL => "tw^{r,l}",
        };
        f.write_str(s)
    }
}

/// A violation found while building ([`TwProgramBuilder::build`]) or
/// class-checking a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A rule references an unknown state.
    UnknownState(String),
    /// A rule references a register out of range.
    UnknownRegister(String),
    /// An update's free variables don't match the target register arity.
    UpdateArityMismatch(String),
    /// A store formula applies a register at the wrong arity.
    RelationArityMismatch(String),
    /// A guard has free variables.
    GuardNotSentence(String),
    /// A rule fires from the final state (forbidden by Definition 3.1).
    RuleFromFinalState(String),
    /// An `atp` target register is not arity-compatible with register 1.
    AtpResultArity(String),
    /// Class violation: look-ahead used where forbidden.
    LookAheadForbidden(String),
    /// Class violation: non-unary register in a single-value class.
    NonUnaryRegister(String),
    /// Class violation: update not in single-value form.
    UpdateNotSingleValue(String),
    /// Initial register content doesn't match the declared arity.
    InitArityMismatch(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, detail) = match self {
            ProgramError::UnknownState(d) => ("unknown state", d),
            ProgramError::UnknownRegister(d) => ("unknown register", d),
            ProgramError::UpdateArityMismatch(d) => ("update arity mismatch", d),
            ProgramError::RelationArityMismatch(d) => ("relation arity mismatch", d),
            ProgramError::GuardNotSentence(d) => ("guard is not a sentence", d),
            ProgramError::RuleFromFinalState(d) => ("rule from final state", d),
            ProgramError::AtpResultArity(d) => ("atp result arity mismatch", d),
            ProgramError::LookAheadForbidden(d) => ("look-ahead forbidden in class", d),
            ProgramError::NonUnaryRegister(d) => ("non-unary register in class", d),
            ProgramError::UpdateNotSingleValue(d) => ("update not single-value", d),
            ProgramError::InitArityMismatch(d) => ("initial register arity mismatch", d),
        };
        write!(f, "{kind}: {detail}")
    }
}

impl std::error::Error for ProgramError {}

/// A complete tree-walking program `(Q, q₀, q_F, τ₀, P)`.
#[derive(Debug, Clone)]
pub struct TwProgram {
    state_names: Vec<String>,
    initial: State,
    final_state: State,
    reg_arities: Vec<usize>,
    init_regs: Vec<Relation>,
    rules: Vec<Rule>,
    dispatch: Dispatch,
}

/// The rule table by `(state, label)`, in compressed-row form: the
/// columns are the four delimiters and then the symbols rules mention, in
/// `SymId` order, and cell `q·cols + c` owns the rule indices
/// `order[starts[cell]..starts[cell + 1]]`, ascending.
#[derive(Debug, Clone)]
struct Dispatch {
    /// The symbols some rule mentions, sorted: column `4 + i` is `syms[i]`.
    syms: Vec<SymId>,
    /// `|Q|·cols + 1` group boundaries.
    starts: Vec<u32>,
    /// Every rule index, grouped by cell.
    order: Vec<usize>,
}

impl Dispatch {
    /// One counting sort of the rules by cell: stable, so each group keeps
    /// ascending rule order.
    fn new(states: usize, rules: &[Rule]) -> Dispatch {
        let mut syms: Vec<SymId> = rules.iter().filter_map(|r| r.label.sym()).collect();
        syms.sort_unstable();
        syms.dedup();
        let mut d = Dispatch {
            syms,
            starts: Vec::new(),
            order: vec![0; rules.len()],
        };
        let cell = |d: &Dispatch, r: &Rule| {
            d.cell(r.label, r.state)
                .expect("every rule's label has a column")
        };
        let mut counts = vec![0u32; states * d.cols() + 1];
        for r in rules {
            counts[cell(&d, r) + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut next = counts.clone();
        for (i, r) in rules.iter().enumerate() {
            let c = cell(&d, r);
            d.order[next[c] as usize] = i;
            next[c] += 1;
        }
        d.starts = counts;
        d
    }

    fn cols(&self) -> usize {
        4 + self.syms.len()
    }

    /// The cell of `(label, state)`, or `None` for a symbol no rule
    /// mentions.
    #[inline]
    fn cell(&self, label: Label, state: State) -> Option<usize> {
        let col = match label {
            Label::DelimRoot => 0,
            Label::DelimOpen => 1,
            Label::DelimClose => 2,
            Label::DelimLeaf => 3,
            Label::Sym(s) => 4 + self.syms.binary_search(&s).ok()?,
        };
        Some(state.0 as usize * self.cols() + col)
    }

    #[inline]
    fn rules_for(&self, label: Label, state: State) -> &[usize] {
        let Some(cell) = self.cell(label, state) else {
            return &[];
        };
        match (self.starts.get(cell), self.starts.get(cell + 1)) {
            (Some(&lo), Some(&hi)) => &self.order[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

impl TwProgram {
    /// Number of states `|Q|`.
    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    /// The initial state `q₀`.
    pub fn initial(&self) -> State {
        self.initial
    }

    /// The final state `q_F`.
    pub fn final_state(&self) -> State {
        self.final_state
    }

    /// The name of a state.
    pub fn state_name(&self, q: State) -> &str {
        &self.state_names[q.0 as usize]
    }

    /// Number of registers `k`.
    pub fn reg_count(&self) -> usize {
        self.reg_arities.len()
    }

    /// Declared register arities.
    pub fn reg_arities(&self) -> &[usize] {
        &self.reg_arities
    }

    /// The initial store `τ₀`.
    pub fn initial_store(&self) -> twq_logic::Store {
        let mut st = twq_logic::Store::with_arities(&self.reg_arities);
        for (i, r) in self.init_regs.iter().enumerate() {
            st.set(RegId(i as u8), r.clone());
        }
        st
    }

    /// All rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Rules matching `(label, state)`, in ascending index order: one
    /// table lookup.
    #[inline]
    pub fn rules_for(&self, label: Label, state: State) -> &[usize] {
        self.dispatch.rules_for(label, state)
    }

    /// The paper's size measure (Definition 3.1):
    /// `|Q| + Σ|τ₀(i)| + Σ_{rules} |ξ|`.
    pub fn size(&self) -> usize {
        self.state_names.len()
            + self.init_regs.iter().map(Relation::len).sum::<usize>()
            + self.rules.iter().map(|r| r.guard.size()).sum::<usize>()
    }

    /// Whether any rule uses look-ahead (`atp`).
    pub fn uses_lookahead(&self) -> bool {
        self.rules
            .iter()
            .any(|r| matches!(r.action, Action::Atp(_, _, _, _)))
    }

    /// The smallest class (Definition 5.1) this program syntactically
    /// belongs to.
    pub fn classify(&self) -> TwClass {
        let unary_single = self.reg_arities.iter().all(|&a| a == 1)
            && self.rules.iter().all(|r| match &r.action {
                Action::Update(_, psi, _) => is_single_value_update(psi),
                // Definition 5.1: tw^l look-ahead must select a single
                // node, so the register stays a singleton.
                Action::Atp(_, phi, _, _) => phi.is_syntactically_single(),
                Action::Move(_, _) => true,
            })
            && self.init_regs.iter().all(|r| r.len() <= 1);
        match (unary_single, self.uses_lookahead()) {
            (true, false) => TwClass::Tw,
            (true, true) => TwClass::TwL,
            (false, false) => TwClass::TwR,
            (false, true) => TwClass::TwRL,
        }
    }

    /// Check this program against a target class; `Ok` iff `classify()` is
    /// at most as powerful (for `TwL` vs `TwR`, which are incomparable,
    /// membership is exact).
    pub fn check_class(&self, class: TwClass) -> Result<(), ProgramError> {
        let actual = self.classify();
        let ok = match class {
            TwClass::TwRL => true,
            TwClass::TwR => !self.uses_lookahead(),
            TwClass::TwL => actual == TwClass::Tw || actual == TwClass::TwL,
            TwClass::Tw => actual == TwClass::Tw,
        };
        if ok {
            Ok(())
        } else if class == TwClass::TwR || class == TwClass::Tw {
            if self.uses_lookahead() {
                return Err(ProgramError::LookAheadForbidden(format!(
                    "program is {actual}, target {class}"
                )));
            }
            Err(ProgramError::NonUnaryRegister(format!(
                "program is {actual}, target {class}"
            )))
        } else {
            Err(ProgramError::NonUnaryRegister(format!(
                "program is {actual}, target {class}"
            )))
        }
    }

    /// Render a human-readable listing.
    pub fn display(&self, vocab: &Vocab) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tw-program: {} states, {} registers (class {})",
            self.state_count(),
            self.reg_count(),
            self.classify()
        );
        let _ = writeln!(
            out,
            "  initial {} ({}), final {} ({})",
            self.initial,
            self.state_name(self.initial),
            self.final_state,
            self.state_name(self.final_state)
        );
        for r in &self.rules {
            let act = match &r.action {
                Action::Move(q, d) => format!("({q}, {d})"),
                Action::Update(q, psi, i) => {
                    format!("({q}, [{}], {i})", psi.display(vocab))
                }
                Action::Atp(q, phi, p, i) => {
                    format!("({q}, atp({}, {p}), {i})", phi.display(vocab))
                }
            };
            let guard = match &r.guard {
                SFormula::True => "true".to_owned(),
                g => g.display(vocab),
            };
            let _ = writeln!(
                out,
                "  ({}, {}, {}) → {}",
                r.label.display(vocab),
                r.state,
                guard,
                act
            );
        }
        out
    }
}

/// Syntactic single-value criterion for `tw^l`/`TW` updates
/// (Definition 5.1: "every formula ψ … is quantifier-free and defines only
/// one value"). With `x` the formula's unique free variable — the builder
/// fixes the free-variable *count* to the register arity but not the
/// variable's *name*, and [`twq_logic::eval_query`] is name-independent —
/// we accept exactly:
///
/// * `x = t` for a term `t` (attribute constant, data constant, or — for
///   register copies — nothing else), defining the singleton `{t}`;
/// * `X_j(x)` with `X_j` unary, copying register `j` (≤ 1 value when the
///   program invariant holds);
/// * `¬(x = x)` — the canonical *clear* (registers "contain at most one
///   data value", Definition 5.1, so the empty register is in range).
///
/// Earlier revisions pattern-matched the literal variable `x₀`, which
/// misclassified semantically identical updates written over `x₁`, `x₂`,
/// … as relational (`tw^r`); the static analyzer's class inference
/// (crate `twq-analyze`) disagreed, and this normalized form is the fix.
pub fn is_single_value_update(psi: &SFormula) -> bool {
    let fv = psi.free_vars();
    let [x] = fv.as_slice() else {
        return false;
    };
    let is_x = |t: &STerm| matches!(t, STerm::Var(v) if v == x);
    match psi {
        SFormula::Atom(SAtom::Eq(s, t)) if is_x(s) || is_x(t) => {
            // `x = t` / `t = x` with `t` not a variable (x = x would
            // define the whole active domain).
            !(matches!(s, STerm::Var(_)) && matches!(t, STerm::Var(_)))
        }
        SFormula::Atom(SAtom::Rel(_, ts)) => matches!(ts.as_slice(), [t] if is_x(t)),
        SFormula::Not(inner) => matches!(
            &**inner,
            SFormula::Atom(SAtom::Eq(STerm::Var(a), STerm::Var(b))) if a == b
        ),
        _ => false,
    }
}

/// Incremental builder for [`TwProgram`].
#[derive(Debug, Default)]
pub struct TwProgramBuilder {
    state_names: Vec<String>,
    by_name: HashMap<String, State>,
    initial: Option<State>,
    final_state: Option<State>,
    reg_arities: Vec<usize>,
    init_regs: Vec<Relation>,
    rules: Vec<Rule>,
}

impl TwProgramBuilder {
    /// Start a new program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a state by name.
    pub fn state(&mut self, name: &str) -> State {
        if let Some(&q) = self.by_name.get(name) {
            return q;
        }
        let q = State(u16::try_from(self.state_names.len()).expect("too many states"));
        self.state_names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), q);
        q
    }

    /// Declare the initial state.
    pub fn initial(&mut self, q: State) -> &mut Self {
        self.initial = Some(q);
        self
    }

    /// Declare the final state.
    pub fn final_state(&mut self, q: State) -> &mut Self {
        self.final_state = Some(q);
        self
    }

    /// Declare a register with the given arity and initial content, and
    /// return its id.
    pub fn register(&mut self, arity: usize, init: Relation) -> RegId {
        assert_eq!(init.arity(), arity, "initial relation arity mismatch");
        let id = RegId(u8::try_from(self.reg_arities.len()).expect("too many registers"));
        self.reg_arities.push(arity);
        self.init_regs.push(init);
        id
    }

    /// Declare an empty unary register (the common case).
    pub fn unary_register(&mut self) -> RegId {
        self.register(1, Relation::empty(1))
    }

    /// Add a rule.
    pub fn rule(
        &mut self,
        label: Label,
        state: State,
        guard: SFormula,
        action: Action,
    ) -> &mut Self {
        self.rules.push(Rule {
            label,
            state,
            guard,
            action,
        });
        self
    }

    /// Shorthand: unguarded rule (guard `true`).
    pub fn rule_true(&mut self, label: Label, state: State, action: Action) -> &mut Self {
        self.rule(label, state, SFormula::True, action)
    }

    /// Validate and freeze the program.
    pub fn build(self) -> Result<TwProgram, ProgramError> {
        let initial = self
            .initial
            .ok_or_else(|| ProgramError::UnknownState("no initial state declared".into()))?;
        let final_state = self
            .final_state
            .ok_or_else(|| ProgramError::UnknownState("no final state declared".into()))?;
        let nstates = self.state_names.len();
        let nregs = self.reg_arities.len();
        let check_state = |q: State, ctx: &str| -> Result<(), ProgramError> {
            if (q.0 as usize) < nstates {
                Ok(())
            } else {
                Err(ProgramError::UnknownState(format!("{q} in {ctx}")))
            }
        };
        let check_reg = |i: RegId, ctx: &str| -> Result<(), ProgramError> {
            if (i.0 as usize) < nregs {
                Ok(())
            } else {
                Err(ProgramError::UnknownRegister(format!("{i} in {ctx}")))
            }
        };
        let check_sformula_regs = |f: &SFormula, ctx: &str| -> Result<(), ProgramError> {
            for r in f.registers() {
                check_reg(r, ctx)?;
            }
            Ok(())
        };
        for (idx, rule) in self.rules.iter().enumerate() {
            let ctx = format!("rule #{idx}");
            check_state(rule.state, &ctx)?;
            check_state(rule.action.next_state(), &ctx)?;
            if rule.state == final_state {
                return Err(ProgramError::RuleFromFinalState(ctx));
            }
            if !rule.guard.free_vars().is_empty() {
                return Err(ProgramError::GuardNotSentence(ctx));
            }
            check_sformula_regs(&rule.guard, &ctx)?;
            match &rule.action {
                Action::Move(_, _) => {}
                Action::Update(_, psi, i) => {
                    check_reg(*i, &ctx)?;
                    check_sformula_regs(psi, &ctx)?;
                    let free = psi.free_vars().len();
                    if free != self.reg_arities[i.0 as usize] {
                        return Err(ProgramError::UpdateArityMismatch(format!(
                            "{ctx}: ψ has {free} free vars, register {i} has arity {}",
                            self.reg_arities[i.0 as usize]
                        )));
                    }
                }
                Action::Atp(_, _phi, p, i) => {
                    check_state(*p, &ctx)?;
                    check_reg(*i, &ctx)?;
                    // atp returns the *first* register of subcomputations;
                    // the receiving register must share its arity.
                    if nregs == 0 {
                        return Err(ProgramError::UnknownRegister(format!(
                            "{ctx}: atp requires at least one register"
                        )));
                    }
                    if self.reg_arities[i.0 as usize] != self.reg_arities[0] {
                        return Err(ProgramError::AtpResultArity(format!(
                            "{ctx}: register {i} arity {} ≠ register X1 arity {}",
                            self.reg_arities[i.0 as usize], self.reg_arities[0]
                        )));
                    }
                }
            }
        }
        check_state(initial, "initial")?;
        check_state(final_state, "final")?;
        for (i, (r, &a)) in self.init_regs.iter().zip(&self.reg_arities).enumerate() {
            if r.arity() != a {
                return Err(ProgramError::InitArityMismatch(format!(
                    "register X{}",
                    i + 1
                )));
            }
        }
        let dispatch = Dispatch::new(nstates, &self.rules);
        Ok(TwProgram {
            state_names: self.state_names,
            initial,
            final_state,
            reg_arities: self.reg_arities,
            init_regs: self.init_regs,
            rules: self.rules,
            dispatch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_logic::exists::selectors;
    use twq_logic::store::sbuild::*;

    fn sigma() -> Label {
        Label::Sym(twq_tree::SymId(0))
    }

    fn trivial_builder() -> (TwProgramBuilder, State, State) {
        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        (b, q0, qf)
    }

    #[test]
    fn build_minimal_acceptor() {
        let (mut b, q0, qf) = trivial_builder();
        b.rule_true(Label::DelimRoot, q0, Action::Move(qf, Dir::Stay));
        let p = b.build().unwrap();
        assert_eq!(p.state_count(), 2);
        assert_eq!(p.reg_count(), 0);
        assert_eq!(p.classify(), TwClass::Tw);
        assert_eq!(p.initial(), q0);
        assert_eq!(p.final_state(), qf);
        assert_eq!(p.rules_for(Label::DelimRoot, q0).len(), 1);
        assert!(p.rules_for(sigma(), q0).is_empty());
    }

    #[test]
    fn dispatch_groups_rules_by_state_and_label_in_rule_order() {
        // The only symbol has the largest id: the table gets one column
        // for it beside the four delimiters, not one per id below it.
        let top = Label::Sym(SymId(u16::MAX));
        let (mut b, q0, qf) = trivial_builder();
        let q1 = b.state("q1");
        b.rule_true(top, q0, Action::Move(q1, Dir::Down));
        b.rule_true(Label::DelimRoot, q0, Action::Move(q0, Dir::Down));
        b.rule_true(top, q1, Action::Move(qf, Dir::Stay));
        b.rule_true(top, q0, Action::Move(qf, Dir::Stay));
        b.rule_true(top, q0, Action::Move(q1, Dir::Up));
        let p = b.build().unwrap();
        assert_eq!(p.rules_for(top, q0), &[0, 3, 4]);
        assert_eq!(p.rules_for(top, q1), &[2]);
        assert_eq!(p.rules_for(Label::DelimRoot, q0), &[1]);
        assert!(p.rules_for(top, qf).is_empty());
        for unmentioned in [SymId(0), SymId(u16::MAX - 1)] {
            assert!(p.rules_for(Label::Sym(unmentioned), q0).is_empty());
        }
        for delim in [Label::DelimOpen, Label::DelimClose, Label::DelimLeaf] {
            assert!(p.rules_for(delim, q0).is_empty());
        }
        assert!(p.rules_for(Label::DelimRoot, q1).is_empty());
        assert_eq!(p.dispatch.starts.len(), p.state_count() * 5 + 1);
    }

    #[test]
    fn classification_matrix() {
        // TW: unary registers, single-value updates, no atp.
        let (mut b, q0, qf) = trivial_builder();
        let r = b.unary_register();
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        b.rule_true(
            Label::DelimRoot,
            q0,
            Action::Update(qf, eq(v(0), attr(a)), r),
        );
        assert_eq!(b.build().unwrap().classify(), TwClass::Tw);

        // tw^l: same + atp.
        let (mut b, q0, qf) = trivial_builder();
        let r = b.unary_register();
        let q1 = b.state("q1");
        b.rule_true(
            Label::DelimRoot,
            q0,
            Action::Atp(q1, selectors::first_child(), qf, r),
        );
        b.rule_true(Label::DelimRoot, q1, Action::Move(qf, Dir::Stay));
        assert_eq!(b.build().unwrap().classify(), TwClass::TwL);

        // tw^r: binary register, no atp.
        let (mut b, q0, qf) = trivial_builder();
        let r2 = b.register(2, Relation::empty(2));
        b.rule_true(
            Label::DelimRoot,
            q0,
            Action::Update(qf, rel(r2, [v(0), v(1)]), r2),
        );
        assert_eq!(b.build().unwrap().classify(), TwClass::TwR);

        // tw^{r,l}: binary register + atp (needs register X1 arity match).
        let (mut b, q0, qf) = trivial_builder();
        let r1 = b.unary_register();
        let q1 = b.state("q1");
        b.register(2, Relation::empty(2));
        b.rule_true(
            Label::DelimRoot,
            q0,
            Action::Atp(q1, selectors::first_child(), qf, r1),
        );
        b.rule_true(Label::DelimRoot, q1, Action::Move(qf, Dir::Stay));
        assert_eq!(b.build().unwrap().classify(), TwClass::TwRL);
    }

    #[test]
    fn check_class_reports_violations() {
        let (mut b, q0, qf) = trivial_builder();
        let r = b.unary_register();
        let q1 = b.state("q1");
        b.rule_true(
            Label::DelimRoot,
            q0,
            Action::Atp(q1, selectors::first_child(), qf, r),
        );
        b.rule_true(Label::DelimRoot, q1, Action::Move(qf, Dir::Stay));
        let p = b.build().unwrap();
        assert!(p.check_class(TwClass::TwRL).is_ok());
        assert!(p.check_class(TwClass::TwL).is_ok());
        assert!(matches!(
            p.check_class(TwClass::Tw),
            Err(ProgramError::LookAheadForbidden(_))
        ));
        assert!(matches!(
            p.check_class(TwClass::TwR),
            Err(ProgramError::LookAheadForbidden(_))
        ));
    }

    #[test]
    fn rejects_rule_from_final_state() {
        let (mut b, _q0, qf) = trivial_builder();
        b.rule_true(sigma(), qf, Action::Move(qf, Dir::Stay));
        assert!(matches!(
            b.build(),
            Err(ProgramError::RuleFromFinalState(_))
        ));
    }

    #[test]
    fn rejects_guard_with_free_vars() {
        let (mut b, q0, qf) = trivial_builder();
        let r = b.unary_register();
        b.rule(
            sigma(),
            q0,
            rel(r, [v(0)]), // free x0: not a sentence
            Action::Move(qf, Dir::Stay),
        );
        assert!(matches!(b.build(), Err(ProgramError::GuardNotSentence(_))));
    }

    #[test]
    fn rejects_update_arity_mismatch() {
        let (mut b, q0, qf) = trivial_builder();
        let r2 = b.register(2, Relation::empty(2));
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        b.rule_true(sigma(), q0, Action::Update(qf, eq(v(0), attr(a)), r2));
        assert!(matches!(
            b.build(),
            Err(ProgramError::UpdateArityMismatch(_))
        ));
    }

    #[test]
    fn rejects_atp_without_register() {
        let (mut b, q0, qf) = trivial_builder();
        let q1 = b.state("q1");
        // No registers at all — atp has nowhere to put results.
        let phi = selectors::first_child();
        b.rule_true(sigma(), q0, Action::Atp(q1, phi, qf, RegId(0)));
        assert!(b.build().is_err());
    }

    #[test]
    fn rejects_unknown_register_in_guard() {
        let (mut b, q0, qf) = trivial_builder();
        b.rule(
            sigma(),
            q0,
            SFormula::Exists(twq_logic::Var(0), Box::new(rel(RegId(5), [v(0)]))),
            Action::Move(qf, Dir::Stay),
        );
        assert!(matches!(b.build(), Err(ProgramError::UnknownRegister(_))));
    }

    #[test]
    fn single_value_update_forms() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let d = vocab.val_int(3);
        assert!(is_single_value_update(&eq(v(0), attr(a))));
        assert!(is_single_value_update(&eq(attr(a), v(0))));
        assert!(is_single_value_update(&eq(v(0), cst(d))));
        assert!(is_single_value_update(&rel(RegId(1), [v(0)])));
        assert!(!is_single_value_update(&eq(v(0), v(0))));
        assert!(!is_single_value_update(&not(eq(v(0), cst(d)))));
        assert!(!is_single_value_update(&SFormula::True));
        // The canonical clear is a (≤1)-value update.
        assert!(is_single_value_update(&not(eq(v(0), v(0)))));
    }

    #[test]
    fn single_value_update_is_variable_name_independent() {
        // Regression: the builder only checks the free-variable *count*
        // against the register arity, and `eval_query` binds by value,
        // not by name — so ψ(x₂) means the same update as ψ(x₀). The
        // classifier used to pattern-match the literal x₀ and demote
        // these to relational.
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let d = vocab.val_int(3);
        assert!(is_single_value_update(&eq(v(1), attr(a))));
        assert!(is_single_value_update(&eq(attr(a), v(2))));
        assert!(is_single_value_update(&eq(v(5), cst(d))));
        assert!(is_single_value_update(&rel(RegId(1), [v(2)])));
        assert!(is_single_value_update(&not(eq(v(3), v(3)))));
        // Genuinely relational shapes stay relational regardless of names.
        assert!(!is_single_value_update(&eq(v(0), v(1))));
        assert!(!is_single_value_update(&not(eq(v(1), cst(d)))));
        assert!(!is_single_value_update(&rel(RegId(1), [v(0), v(1)])));
    }

    #[test]
    fn classify_is_variable_name_independent() {
        // Program-level regression for the same bug: an update written
        // over x₁ must classify exactly like its x₀ spelling.
        for var in [0u16, 1, 4] {
            let (mut b, q0, qf) = trivial_builder();
            let r = b.unary_register();
            let mut vocab = Vocab::new();
            let a = vocab.attr("a");
            b.rule_true(
                Label::DelimRoot,
                q0,
                Action::Update(qf, eq(v(var), attr(a)), r),
            );
            assert_eq!(b.build().unwrap().classify(), TwClass::Tw, "x{var}");
        }
    }

    #[test]
    fn size_measure() {
        let (mut b, q0, qf) = trivial_builder();
        let mut vocab = Vocab::new();
        let dv = vocab.val_int(1);
        b.register(1, Relation::singleton(dv));
        b.rule_true(sigma(), q0, Action::Move(qf, Dir::Stay));
        let p = b.build().unwrap();
        // 2 states + 1 initial tuple + guard size 1.
        assert_eq!(p.size(), 4);
    }

    #[test]
    fn display_lists_rules() {
        let (mut b, q0, qf) = trivial_builder();
        b.rule_true(Label::DelimRoot, q0, Action::Move(qf, Dir::Up));
        let p = b.build().unwrap();
        let vocab = Vocab::new();
        let s = p.display(&vocab);
        assert!(s.contains("▽"), "{s}");
        assert!(s.contains("↑"), "{s}");
    }
}
