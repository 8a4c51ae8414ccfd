//! The two-party communication protocol of Lemma 4.5.
//!
//! On split strings `f#g`, party I owns `f#` and party II owns `#g`; both
//! simulate the `tw^{r,l}` program, exchanging messages whenever the
//! computation's locus crosses the boundary. The message alphabet `Δ`
//! follows the proof:
//!
//! * `⟨θ⟩` — the initial `N`-type exchange (one per party);
//! * `⟨q, τ⟩` / `⟨q, τ, NeedAnswer⟩` — a (sub)computation walks across
//!   the boundary;
//! * `⟨φ, p, θ, τ⟩` — an `atp`-request asking the other party to run the
//!   subcomputations on its side;
//! * `⟨R⟩` — the reply, a relation over `D`;
//! * `⟨accept⟩` / `⟨reject⟩`.
//!
//! We execute the *actual* computation (both "parties" in one process —
//! each party has unlimited power on its own half, so co-locating them
//! changes nothing observable) and account every boundary-crossing event
//! as the corresponding message. The measured dialogue — total messages,
//! distinct message values, crossings — is exactly the quantity bounded in
//! Lemma 4.5 and counted against hypersets in Lemma 4.6.

use std::collections::HashSet;

use twq_automata::engine::{move_dir, select_rule};
use twq_automata::{Action, Halt, Limits, State, TwProgram};
use twq_guard::{
    DepthKind, FaultKind, FaultSite, GaugeKind, Guard, GuardError, NullGuard, TwqError,
};
use twq_logic::store::AttrEnv;
use twq_logic::{eval_query, RegId, Relation, Store};
use twq_obs::{Collector, FoEval, NullCollector};
use twq_tree::{AttrId, DelimTree, NodeId, SymId, Value};

use crate::hyperset::Markers;
use crate::lm::split_string_tree;

/// Which party owns a position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Party {
    /// Party I (male, owns `f#`).
    I,
    /// Party II (female, owns `#g`).
    II,
}

/// A protocol message (the alphabet `Δ` of Lemma 4.5), in hashable form so
/// distinct messages can be counted against the `|Δ|` bound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Msg {
    /// Initial `N`-type announcement (opaque: one per party).
    NType(Party),
    /// Main computation crosses the boundary: `⟨q, τ⟩`.
    Config(State, Store),
    /// A subcomputation crosses and the sender still needs its result:
    /// `⟨q, τ, NeedAnswer⟩`.
    ConfigNeedAnswer(State, Store),
    /// `atp`-request: `⟨φ, p, θ, τ⟩` (φ by rule index; θ is the sender's
    /// position type, summarized by the sender's node).
    AtpRequest(usize, State, Store),
    /// Reply to a request: `⟨R⟩`.
    Reply(Relation),
    /// Final verdicts.
    Accept,
    Reject,
}

/// Outcome and traffic statistics of a protocol run.
#[derive(Debug, Clone)]
pub struct ProtocolReport {
    /// How the simulated computation ended.
    pub halt: Halt,
    /// Total messages exchanged.
    pub messages: u64,
    /// Messages after the proof's deduplication discipline ("each request
    /// will only be sent at most once … there are at most `2|Δ|` rounds"):
    /// repeated identical messages are answered from memory, not re-sent.
    pub dedup_messages: u64,
    /// Distinct message values (the quantity bounded by `|Δ|`).
    pub distinct_messages: usize,
    /// Boundary crossings by walking alone.
    pub crossings: u64,
    /// `atp`-requests sent across the boundary.
    pub atp_requests: u64,
    /// The concrete dialogue (message sequence), for collision search in
    /// the Lemma 4.6 demonstration.
    pub dialogue: Vec<Msg>,
}

impl ProtocolReport {
    /// Whether the protocol concluded with acceptance.
    pub fn accepted(&self) -> bool {
        self.halt == Halt::Accept
    }
}

struct ProtoExec<'a, C: Collector, G: Guard> {
    prog: &'a TwProgram,
    tree: &'a twq_tree::Tree,
    owner: Vec<Party>,
    limits: Limits,
    steps: u64,
    crossings: u64,
    atp_requests: u64,
    dialogue: Vec<Msg>,
    collector: &'a mut C,
    guard: &'a mut G,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PConfig {
    node: NodeId,
    state: State,
    store: Store,
}

enum PEnd {
    Accept(Store),
    Reject(Halt),
}

impl<C: Collector, G: Guard> ProtoExec<'_, C, G> {
    fn run_chain(&mut self, cfg: PConfig, depth: u32) -> Result<PEnd, GuardError> {
        self.collector
            .chain_enter(cfg.node.0 as u64, cfg.state.0 as u32, depth);
        let end = self.chain_loop(cfg, depth);
        let kind = match &end {
            Ok(PEnd::Accept(_)) => Halt::Accept.kind(),
            Ok(PEnd::Reject(h)) => h.kind(),
            Err(_) => Halt::StepLimit.kind(),
        };
        self.collector.chain_exit(kind, depth);
        end
    }

    fn chain_loop(&mut self, mut cfg: PConfig, depth: u32) -> Result<PEnd, GuardError> {
        let mut seen: HashSet<PConfig> = HashSet::new();
        loop {
            if !seen.insert(cfg.clone()) {
                return Ok(PEnd::Reject(Halt::Cycle));
            }
            if G::ENABLED {
                self.guard.gauge(GaugeKind::Configs, seen.len())?;
                self.guard
                    .gauge(GaugeKind::StoreTuples, cfg.store.total_tuples())?;
            }
            let rule_idx = match select_rule(
                self.prog,
                self.tree,
                cfg.node,
                cfg.state,
                &cfg.store,
                self.collector,
            ) {
                Ok(Some(i)) => i,
                Ok(None) => return Ok(PEnd::Accept(cfg.store)),
                Err(h) => return Ok(PEnd::Reject(h)),
            };
            if self.steps >= self.limits.max_steps {
                return Ok(PEnd::Reject(Halt::StepLimit));
            }
            self.steps += 1;
            self.collector
                .step(cfg.node.0 as u64, cfg.state.0 as u32, depth);
            if G::ENABLED {
                self.guard.tick()?;
                if let Some(FaultKind::DropTransition) = self.guard.fault_at(FaultSite::Transition)
                {
                    // The injected fault erases the chosen rule: the party
                    // is stuck, which the protocol reports as an ordinary
                    // rejection.
                    return Ok(PEnd::Reject(Halt::Stuck));
                }
                if let Some(FaultKind::CorruptStore) = self.guard.fault_at(FaultSite::Store) {
                    cfg.store = self.prog.initial_store();
                }
            }
            let rule = &self.prog.rules()[rule_idx];
            match &rule.action {
                Action::Move(q, d) => match move_dir(self.tree, cfg.node, *d) {
                    Some(v) => {
                        let from = self.owner[cfg.node.0 as usize];
                        let to = self.owner[v.0 as usize];
                        if from != to {
                            // The computation walks over the boundary.
                            self.crossings += 1;
                            let msg = if depth > 0 {
                                Msg::ConfigNeedAnswer(*q, cfg.store.clone())
                            } else {
                                Msg::Config(*q, cfg.store.clone())
                            };
                            self.dialogue.push(msg);
                        }
                        cfg.node = v;
                        cfg.state = *q;
                    }
                    None => return Ok(PEnd::Reject(Halt::Stuck)),
                },
                Action::Update(q, psi, i) => {
                    self.collector.fo_eval(FoEval::Update);
                    let env = AttrEnv::of(self.tree, cfg.node);
                    let rel = eval_query(&cfg.store, &env, psi);
                    cfg.store.set(*i, rel);
                    cfg.state = *q;
                }
                Action::Atp(q, phi, p, i) => {
                    if depth >= self.limits.max_atp_depth {
                        return Ok(PEnd::Reject(Halt::AtpDepthLimit));
                    }
                    let here = self.owner[cfg.node.0 as usize];
                    let selected = phi
                        .select_in(self.tree, cfg.node, self.collector, self.guard)
                        .map_err(|e| *e.guard().expect("ExistsFormula fails only on trips"))?;
                    self.collector
                        .atp_enter(cfg.node.0 as u64, selected.len(), depth);
                    if G::ENABLED {
                        if let Err(e) = self.guard.enter(DepthKind::Atp) {
                            self.collector.atp_exit(depth);
                            return Err(e);
                        }
                    }
                    let far: Vec<NodeId> = selected
                        .iter()
                        .filter(|v| self.owner[v.0 as usize] != here)
                        .collect();
                    if !far.is_empty() {
                        // One request covers the other party's share.
                        self.atp_requests += 1;
                        self.dialogue
                            .push(Msg::AtpRequest(rule_idx, *p, cfg.store.clone()));
                    }
                    let mut acc = Relation::empty(cfg.store.arity(RegId(0)));
                    let mut far_acc = Relation::empty(cfg.store.arity(RegId(0)));
                    let mut sub_end = None;
                    for v in selected {
                        let sub = PConfig {
                            node: v,
                            state: *p,
                            store: cfg.store.clone(),
                        };
                        let is_far = self.owner[v.0 as usize] != here;
                        match self.run_chain(sub, depth + 1) {
                            Ok(PEnd::Accept(st)) => {
                                let r = st.get(RegId(0)).clone();
                                if is_far {
                                    far_acc.union_with(&r);
                                }
                                acc.union_with(&r);
                            }
                            Ok(PEnd::Reject(h)) => {
                                let h = if h.is_limit() { h } else { Halt::SubRejected };
                                sub_end = Some(Ok(PEnd::Reject(h)));
                                break;
                            }
                            Err(e) => {
                                sub_end = Some(Err(e));
                                break;
                            }
                        }
                    }
                    if G::ENABLED {
                        self.guard.exit(DepthKind::Atp);
                    }
                    if let Some(end) = sub_end {
                        self.collector.atp_exit(depth);
                        return end;
                    }
                    self.collector.atp_exit(depth);
                    if !far.is_empty() {
                        self.dialogue.push(Msg::Reply(far_acc));
                    }
                    cfg.store.set(*i, acc);
                    cfg.state = *q;
                }
            }
        }
    }
}

/// Execute the protocol for `prog` on the split string `f#g` over monadic
/// trees (`sym`, `attr` as in [`split_string_tree`]).
pub fn run_protocol(
    prog: &TwProgram,
    f: &[Value],
    g: &[Value],
    markers: &Markers,
    sym: SymId,
    attr: AttrId,
    limits: Limits,
) -> ProtocolReport {
    run_protocol_in(
        prog,
        f,
        g,
        markers,
        sym,
        attr,
        limits,
        &mut NullCollector,
        &mut NullGuard,
    )
    .expect("NullGuard never trips")
}

/// [`run_protocol`] with a collector and a resource guard.
///
/// The collector sees the simulated computation's steps, chain/`atp`
/// spans, and guard/update evaluations like the direct engine's. The
/// dialogue and its traffic counts are in the returned [`ProtocolReport`].
///
/// The guard is charged one fuel unit per simulated computation step plus
/// each `atp` look-ahead's
/// [`ExistsFormula::select_in`](twq_logic::ExistsFormula::select_in) charge, `atp`
/// nesting is tracked as [`DepthKind::Atp`], and the cycle table and
/// register store are gauged as [`GaugeKind::Configs`] /
/// [`GaugeKind::StoreTuples`]. Injected faults ([`FaultSite::Transition`],
/// [`FaultSite::Store`]) degrade the simulated computation — a dropped
/// transition strands the owning party (ordinary rejection), a corrupted
/// store resets its registers — without ever corrupting the dialogue
/// accounting. With [`NullGuard`] the call never fails.
#[allow(clippy::too_many_arguments)]
pub fn run_protocol_in<C: Collector, G: Guard>(
    prog: &TwProgram,
    f: &[Value],
    g: &[Value],
    markers: &Markers,
    sym: SymId,
    attr: AttrId,
    limits: Limits,
    collector: &mut C,
    guard: &mut G,
) -> Result<ProtocolReport, TwqError> {
    let tree = split_string_tree(f, g, markers, sym, attr);
    let delim = DelimTree::build(&tree);
    let dtree = delim.tree();
    // Ownership: original positions 0..=|f| (f plus the `#`) belong to I,
    // the rest to II; a delimiter belongs to its nearest original
    // ancestor-or-self's party (▽ and the top delimiters to I).
    let boundary = f.len(); // position index of `#`
    let mut owner = vec![Party::I; dtree.len()];
    for u in dtree.node_ids() {
        // Find the nearest ancestor-or-self that images an original node.
        let mut cur = u;
        let orig = loop {
            if let Some(o) = delim.original(cur) {
                break Some(o);
            }
            match dtree.parent(cur) {
                Some(p) => cur = p,
                None => break None,
            }
        };
        owner[u.0 as usize] = match orig {
            // Original positions on a monadic tree are depths.
            Some(o) => {
                if tree.depth(o) <= boundary {
                    Party::I
                } else {
                    Party::II
                }
            }
            None => Party::I,
        };
    }

    let mut exec = ProtoExec {
        prog,
        tree: dtree,
        owner,
        limits,
        steps: 0,
        crossings: 0,
        atp_requests: 0,
        dialogue: Vec::new(),
        collector,
        guard,
    };
    // Initialization: both parties announce their N-types.
    exec.dialogue.push(Msg::NType(Party::I));
    exec.dialogue.push(Msg::NType(Party::II));
    let init = PConfig {
        node: dtree.root(),
        state: prog.initial(),
        store: prog.initial_store(),
    };
    let halt = match exec.run_chain(init, 0) {
        Ok(PEnd::Accept(_)) => {
            exec.dialogue.push(Msg::Accept);
            Halt::Accept
        }
        Ok(PEnd::Reject(h)) => {
            exec.dialogue.push(Msg::Reject);
            h
        }
        Err(mut e) => {
            exec.collector.halt(Halt::StepLimit.kind());
            e.partial.fuel_spent = e.partial.fuel_spent.max(exec.steps);
            return Err(TwqError::Guard(e));
        }
    };
    let distinct: HashSet<&Msg> = exec.dialogue.iter().collect();
    // Deduplicated traffic: the proof's protocol caches request/answer
    // pairs, so a message value crosses the wire at most once per
    // direction; here (single execution order) at most once.
    let mut seen: HashSet<&Msg> = HashSet::new();
    let dedup_messages = exec.dialogue.iter().filter(|m| seen.insert(*m)).count() as u64;
    exec.collector.halt(halt.kind());
    Ok(ProtocolReport {
        halt,
        messages: exec.dialogue.len() as u64,
        dedup_messages,
        distinct_messages: distinct.len(),
        crossings: exec.crossings,
        atp_requests: exec.atp_requests,
        dialogue: exec.dialogue,
    })
}

/// A `tw^{r,l}` program over value strings for the protocol experiments:
/// accepts iff the whole string (including markers) carries **at most
/// `k` distinct values**, computed by one `atp` over all positions.
pub fn at_most_k_values_program(sym: SymId, a: AttrId, k: usize) -> TwProgram {
    use twq_logic::exists::selectors;
    use twq_logic::store::sbuild::*;
    use twq_logic::Var;
    let mut b = twq_automata::TwProgramBuilder::new();
    let q0 = b.state("q0");
    let q1 = b.state("q1");
    let q_node = b.state("q_node");
    let q_f = b.state("qF");
    b.initial(q0).final_state(q_f);
    let x1 = b.unary_register();
    b.rule_true(
        twq_tree::Label::DelimRoot,
        q0,
        Action::Atp(
            q1,
            selectors::descendants_labeled(twq_tree::Label::Sym(sym)),
            q_node,
            x1,
        ),
    );
    b.rule_true(
        twq_tree::Label::Sym(sym),
        q_node,
        Action::Update(q_f, eq(v(0), attr(a)), x1),
    );
    // Guard: ¬∃x₁…x_{k+1} pairwise distinct in X₁.
    let vars: Vec<Var> = (0..=k as u16).map(Var).collect();
    let mut conj = vec![];
    for &x in &vars {
        conj.push(rel(x1, [twq_logic::STerm::Var(x)]));
    }
    for i in 0..vars.len() {
        for j in i + 1..vars.len() {
            conj.push(not(eq(
                twq_logic::STerm::Var(vars[i]),
                twq_logic::STerm::Var(vars[j]),
            )));
        }
    }
    let mut too_many = and(conj);
    for &x in vars.iter().rev() {
        too_many = twq_logic::SFormula::Exists(x, Box::new(too_many));
    }
    b.rule(
        twq_tree::Label::DelimRoot,
        q1,
        not(too_many),
        Action::Move(q_f, twq_automata::Dir::Stay),
    );
    b.build().expect("at-most-k program is well-formed")
}

/// Oracle for [`at_most_k_values_program`] on a split string.
pub fn oracle_at_most_k_values(f: &[Value], g: &[Value], hash: Value, k: usize) -> bool {
    let mut vals: Vec<Value> = f.iter().chain(g.iter()).copied().collect();
    vals.push(hash);
    vals.sort_unstable();
    vals.dedup();
    vals.len() <= k
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_automata::run_on_tree;
    use twq_tree::Vocab;

    struct Setup {
        markers: Markers,
        sym: SymId,
        attr: AttrId,
        data: Vec<Value>,
    }

    fn setup() -> Setup {
        let mut vocab = Vocab::new();
        let markers = Markers::new(2, &mut vocab);
        let sym = vocab.sym("s");
        let attr = vocab.attr("a");
        let data: Vec<Value> = (100..106).map(|i| vocab.val_int(i)).collect();
        Setup {
            markers,
            sym,
            attr,
            data,
        }
    }

    #[test]
    fn protocol_agrees_with_direct_execution() {
        let s = setup();
        let prog = at_most_k_values_program(s.sym, s.attr, 4);
        for (fi, gi) in [(0..2, 2..4), (0..3, 0..3), (0..1, 3..6)] {
            let f: Vec<Value> = s.data[fi.clone()].to_vec();
            let g: Vec<Value> = s.data[gi.clone()].to_vec();
            let report = run_protocol(&prog, &f, &g, &s.markers, s.sym, s.attr, Limits::default());
            let tree = split_string_tree(&f, &g, &s.markers, s.sym, s.attr);
            let direct = run_on_tree(&prog, &tree, Limits::default());
            assert_eq!(report.accepted(), direct.accepted(), "{fi:?} {gi:?}");
            assert_eq!(
                report.accepted(),
                oracle_at_most_k_values(&f, &g, s.markers.hash(), 4),
            );
        }
    }

    #[test]
    fn atp_over_the_boundary_sends_request_and_reply() {
        let s = setup();
        let prog = at_most_k_values_program(s.sym, s.attr, 10);
        let f = vec![s.data[0], s.data[1]];
        let g = vec![s.data[2]];
        let report = run_protocol(&prog, &f, &g, &s.markers, s.sym, s.attr, Limits::default());
        assert!(report.accepted());
        assert_eq!(report.atp_requests, 1);
        assert!(report
            .dialogue
            .iter()
            .any(|m| matches!(m, Msg::AtpRequest(_, _, _))));
        assert!(report.dialogue.iter().any(|m| matches!(m, Msg::Reply(_))));
        // Dialogue: 2 N-types + request + reply + verdict at least.
        assert!(report.messages >= 5, "{}", report.messages);
    }

    #[test]
    fn walking_program_counts_crossings() {
        // A pure walker that traverses the whole string and accepts:
        // it must cross the boundary at least twice (out and back — the
        // close-delimiter climb recrosses).
        let s = setup();
        let prog = twq_automata::examples::traversal_program(&[s.sym]);
        let f = vec![s.data[0], s.data[1]];
        let g = vec![s.data[2], s.data[3]];
        let report = run_protocol(&prog, &f, &g, &s.markers, s.sym, s.attr, Limits::default());
        assert!(report.accepted());
        assert!(report.crossings >= 2, "crossings = {}", report.crossings);
        assert!(report
            .dialogue
            .iter()
            .any(|m| matches!(m, Msg::Config(_, _))));
    }

    #[test]
    fn distinct_messages_bounded_by_total() {
        let s = setup();
        let prog = at_most_k_values_program(s.sym, s.attr, 2);
        let f = vec![s.data[0]];
        let g = vec![s.data[1]];
        let report = run_protocol(&prog, &f, &g, &s.markers, s.sym, s.attr, Limits::default());
        assert!(report.distinct_messages as u64 <= report.messages);
        assert!(report.distinct_messages >= 3); // 2 N-types + verdict
                                                // Deduplicated traffic equals the distinct count (one execution
                                                // order) and respects the Lemma 4.5 round bound 2·|Δ|.
        assert_eq!(report.dedup_messages as usize, report.distinct_messages);
        assert!(report.dedup_messages <= 2 * report.distinct_messages as u64);
    }
}
