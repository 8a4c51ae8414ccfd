//! Direct execution of tree-walking programs (the transition relation `⊢`
//! of Definition 3.1).
//!
//! The engine runs on the **delimited** tree `delim(t)` (Section 3). A
//! computation is a deterministic chain of configurations `[u, q, τ]`; an
//! `atp(φ, p)` action suspends the chain, runs one subcomputation per node
//! selected by `φ`, and resumes with register `i` replaced by the union of
//! the subcomputations' first registers. Per the paper, *"when one
//! subcomputation rejects, the whole computation rejects"*.
//!
//! Because `tw` programs may diverge, every run takes explicit [`Limits`]
//! and reports a definite [`Halt`] — a query engine never hangs:
//!
//! * a repeated configuration within one chain is a **cycle** (reject);
//! * two simultaneously applicable rules violate the paper's determinism
//!   assumption and halt the run with [`Halt::Nondeterministic`];
//! * a move off the tree (the paper assumes automata never do this) is
//!   [`Halt::Stuck`], as is having no applicable rule in a non-final state.

use twq_exec::{BatchProfile, Pool};
use twq_guard::{
    DepthKind, FaultKind, FaultSite, GaugeKind, Guard, GuardError, NullGuard, TripReason, TwqError,
};
use twq_logic::store::AttrEnv;
use twq_logic::{eval_query, RegId, Relation, Store};
use twq_obs::{Collector, FoEval, HaltKind, MetricsCollector, NullCollector, RunMetrics};
use twq_tree::{DelimTree, NodeId, Tree};

use crate::program::{Action, Dir, State, TwProgram};

/// A configuration `[u, q, τ]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Config {
    /// The current node (in the delimited tree).
    pub node: NodeId,
    /// The current state.
    pub state: State,
    /// The register contents.
    pub store: Store,
}

/// Resource limits for a run.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum total transitions across the main computation and all
    /// subcomputations.
    pub max_steps: u64,
    /// Maximum `atp` nesting depth.
    pub max_atp_depth: u32,
    /// Cycle-detection sampling interval. Every `interval` steps a chain
    /// compares its configuration with the one configuration it keeps
    /// (Brent's tortoise, re-anchored at each power of two samples). With
    /// `1`, the default, every configuration is a sample, and a chain with
    /// preperiod `μ` and period `λ` is called within `O(μ + λ)` steps: a
    /// few bounded steps after its first repeat, not at it. `k > 1`
    /// compares every `k`-th configuration, at `1/k` of the comparisons,
    /// and calls the cycle within `O(μ + k·λ)` steps. `0` disables cycle
    /// detection entirely: no configuration is kept, a looping run is
    /// stopped only by `max_steps` (or a guard budget), and it reports
    /// [`Halt::StepLimit`] — never [`Halt::Cycle`]. Long-running compiled
    /// pebble walkers use a sparse interval.
    pub cycle_check_interval: u32,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_steps: 10_000_000,
            max_atp_depth: 64,
            cycle_check_interval: 1,
        }
    }
}

impl Limits {
    /// Limits tuned for very long deterministic walks (compiled pebble
    /// programs): high step budget, sparse cycle sampling.
    pub fn long_walk() -> Self {
        Limits {
            max_steps: 500_000_000,
            max_atp_depth: 64,
            cycle_check_interval: 4096,
        }
    }
}

/// Why a run halted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// The final state was reached.
    Accept,
    /// No rule applied in a non-final state (includes moves off the tree).
    Stuck,
    /// A configuration repeated within one computation chain.
    Cycle,
    /// Two rules applied simultaneously — the program is not deterministic.
    Nondeterministic,
    /// A subcomputation rejected, rejecting the whole computation.
    SubRejected,
    /// The step budget was exhausted.
    StepLimit,
    /// The `atp` nesting budget was exhausted.
    AtpDepthLimit,
}

impl Halt {
    /// Whether this halt means acceptance.
    pub fn accepted(self) -> bool {
        self == Halt::Accept
    }

    /// Whether this is a resource-limit halt (result unknown) rather than a
    /// definite accept/reject.
    pub fn is_limit(self) -> bool {
        matches!(self, Halt::StepLimit | Halt::AtpDepthLimit)
    }

    /// The evaluator-agnostic [`HaltKind`] reported to collectors.
    pub fn kind(self) -> HaltKind {
        match self {
            Halt::Accept => HaltKind::Accept,
            Halt::Stuck => HaltKind::Stuck,
            Halt::Cycle => HaltKind::Cycle,
            Halt::Nondeterministic => HaltKind::Nondeterministic,
            Halt::SubRejected => HaltKind::SubRejected,
            Halt::StepLimit => HaltKind::StepLimit,
            Halt::AtpDepthLimit => HaltKind::AtpDepthLimit,
        }
    }
}

/// Execution statistics and outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// How the run ended.
    pub halt: Halt,
    /// Total transitions taken (main + subcomputations).
    pub steps: u64,
    /// Number of `atp` invocations.
    pub atp_calls: u64,
    /// Number of subcomputations started.
    pub subcomputations: u64,
    /// Largest store (total tuples) observed in any configuration.
    pub max_store_tuples: usize,
    /// Most cycle-detection samples examined in one chain (one per
    /// `cycle_check_interval` steps; 0 when detection is disabled).
    pub max_chain_configs: usize,
}

impl RunReport {
    /// Whether the run accepted.
    pub fn accepted(&self) -> bool {
        self.halt.accepted()
    }
}

/// The move function `m_d` on the delimited tree.
pub fn move_dir(tree: &Tree, u: NodeId, d: Dir) -> Option<NodeId> {
    match d {
        Dir::Stay => Some(u),
        Dir::Left => tree.prev_sibling(u),
        Dir::Right => tree.next_sibling(u),
        Dir::Up => tree.parent(u),
        Dir::Down => tree.first_child(u),
    }
}

/// Select the unique rule applicable to `[u, q, τ]`: `Ok(None)` in the
/// final state, `Ok(Some(i))` for rule `i`, or why none or several apply
/// ([`Halt::Stuck`], [`Halt::Nondeterministic`]). The guards of
/// [`TwProgram::rules_for`]`(label(u), q)` are tried in that order, each
/// reported to `c` as one [`FoEval::Guard`]; a second match stops the
/// search. Every runner of `tw` programs selects its rules here.
pub fn select_rule<C: Collector>(
    prog: &TwProgram,
    tree: &Tree,
    u: NodeId,
    q: State,
    store: &Store,
    c: &mut C,
) -> Result<Option<usize>, Halt> {
    if q == prog.final_state() {
        return Ok(None);
    }
    let env = AttrEnv::of(tree, u);
    let mut chosen = None;
    for &idx in prog.rules_for(tree.label(u), q) {
        c.fo_eval(FoEval::Guard);
        if twq_logic::eval_guard(store, &env, &prog.rules()[idx].guard) {
            if chosen.is_some() {
                return Err(Halt::Nondeterministic);
            }
            chosen = Some(idx);
        }
    }
    chosen.map(Some).ok_or(Halt::Stuck)
}

pub(crate) struct Exec<'a, C: Collector, G: Guard> {
    pub prog: &'a TwProgram,
    pub tree: &'a Tree,
    pub limits: Limits,
    pub steps: u64,
    pub atp_calls: u64,
    pub subcomputations: u64,
    pub max_store_tuples: usize,
    pub max_chain_configs: usize,
    collector: &'a mut C,
    guard: &'a mut G,
    /// First guard trip, if any — surfaced as `Err(TwqError::Guard)` by
    /// [`run_in`]; internally it unwinds as a limit-style [`Halt`].
    trip: Option<GuardError>,
    /// Stores of finished chains and tortoises, reused for later ones:
    /// copying into one allocates only where a register outgrows it.
    spare: Vec<Store>,
}

/// What happened to one computation chain.
pub(crate) enum ChainEnd {
    /// Reached the final state with this store.
    Accept(Store),
    /// Halted without accepting.
    Reject(Halt),
}

impl ChainEnd {
    fn halt(&self) -> Halt {
        match self {
            ChainEnd::Accept(_) => Halt::Accept,
            ChainEnd::Reject(h) => *h,
        }
    }
}

impl<'a, C: Collector, G: Guard> Exec<'a, C, G> {
    pub(crate) fn new(
        prog: &'a TwProgram,
        tree: &'a Tree,
        limits: Limits,
        collector: &'a mut C,
        guard: &'a mut G,
    ) -> Self {
        Exec {
            prog,
            tree,
            limits,
            steps: 0,
            atp_calls: 0,
            subcomputations: 0,
            max_store_tuples: 0,
            max_chain_configs: 0,
            collector,
            guard,
            trip: None,
            spare: Vec::new(),
        }
    }

    /// A copy of `src`, in a spare buffer when there is one.
    fn copy_store(&mut self, src: &Store) -> Store {
        match self.spare.pop() {
            Some(mut st) => {
                st.clone_from(src);
                st
            }
            None => src.clone(),
        }
    }

    /// Record a guard trip and translate it into the limit-style [`Halt`]
    /// that unwinds the chain (mirroring `Halt::is_limit()`).
    fn record_trip(&mut self, e: GuardError) -> Halt {
        let halt = match e.reason {
            TripReason::Depth { .. } => Halt::AtpDepthLimit,
            _ => Halt::StepLimit,
        };
        if C::ENABLED {
            self.collector.trip(&e.reason.to_string());
        }
        if self.trip.is_none() {
            self.trip = Some(e);
        }
        halt
    }

    /// Charge one transition: enforce the step budget and the guard's fuel
    /// budget, count the step, and notify the collector. The single place
    /// step accounting happens.
    fn tick(&mut self, cfg: &Config, depth: u32) -> Result<(), Halt> {
        if self.steps >= self.limits.max_steps {
            return Err(Halt::StepLimit);
        }
        self.steps += 1;
        self.collector
            .step(cfg.node.0 as u64, cfg.state.0 as u32, depth);
        if G::ENABLED {
            if let Err(e) = self.guard.tick() {
                return Err(self.record_trip(e));
            }
        }
        Ok(())
    }

    /// Run one computation chain to completion.
    pub(crate) fn run_chain(&mut self, cfg: Config, depth: u32) -> ChainEnd {
        self.collector
            .chain_enter(cfg.node.0 as u64, cfg.state.0 as u32, depth);
        let mut tortoise = None;
        let end = self.chain_loop(cfg, depth, &mut tortoise);
        if let Some(t) = tortoise {
            self.spare.push(t.store);
        }
        self.collector.chain_exit(end.halt().kind(), depth);
        end
    }

    fn chain_loop(
        &mut self,
        mut cfg: Config,
        depth: u32,
        tortoise: &mut Option<Config>,
    ) -> ChainEnd {
        // Brent's cycle detection over the sampled configuration sequence:
        // one retained configuration (the "teleporting tortoise") and a
        // comparison per sample, O(1) memory where a seen-set grows with the
        // chain. The tortoise is re-anchored at every power of two, so a
        // chain with preperiod μ and period λ is caught within
        // O(μ + λ) samples. Chains that terminate are unaffected — the only
        // behavioural difference from exact first-revisit detection is that
        // a cycling chain may take a few more (bounded) steps to be called.
        let interval = self.limits.cycle_check_interval as u64;
        let mut power: u64 = 1;
        let mut lam: u64 = 0;
        let mut tracked: usize = 0;
        let mut local_step = 0u64;
        loop {
            let tuples = cfg.store.total_tuples();
            self.max_store_tuples = self.max_store_tuples.max(tuples);
            if G::ENABLED {
                if let Err(e) = self.guard.gauge(GaugeKind::StoreTuples, tuples) {
                    return ChainEnd::Reject(self.record_trip(e));
                }
            }
            if interval > 0 && local_step.is_multiple_of(interval) {
                tracked += 1;
                match tortoise {
                    Some(t) if *t == cfg => return ChainEnd::Reject(Halt::Cycle),
                    Some(t) => {
                        lam += 1;
                        if lam == power {
                            t.node = cfg.node;
                            t.state = cfg.state;
                            t.store.clone_from(&cfg.store);
                            power *= 2;
                            lam = 0;
                        }
                    }
                    None => {
                        *tortoise = Some(Config {
                            node: cfg.node,
                            state: cfg.state,
                            store: self.copy_store(&cfg.store),
                        })
                    }
                }
                if G::ENABLED {
                    if let Err(e) = self.guard.gauge(GaugeKind::Configs, tracked) {
                        return ChainEnd::Reject(self.record_trip(e));
                    }
                }
            }
            local_step += 1;
            self.max_chain_configs = self.max_chain_configs.max(tracked);
            let picked = select_rule(
                self.prog,
                self.tree,
                cfg.node,
                cfg.state,
                &cfg.store,
                self.collector,
            );
            let rule_idx = match picked {
                Ok(None) => return ChainEnd::Accept(cfg.store),
                Ok(Some(i)) => i,
                Err(h) => return ChainEnd::Reject(h),
            };
            if let Err(h) = self.tick(&cfg, depth) {
                return ChainEnd::Reject(h);
            }
            if G::ENABLED
                && self.guard.fault_at(FaultSite::Transition) == Some(FaultKind::DropTransition)
            {
                // Injected fault: the selected rule is lost, as if no rule
                // had applied — the chain ends stuck instead of progressing.
                return ChainEnd::Reject(Halt::Stuck);
            }
            let rule = &self.prog.rules()[rule_idx];
            match &rule.action {
                Action::Move(q, d) => {
                    match move_dir(self.tree, cfg.node, *d) {
                        Some(v) => {
                            cfg.node = v;
                            cfg.state = *q;
                        }
                        // The paper assumes the automaton never moves off
                        // the tree; doing so halts the run.
                        None => return ChainEnd::Reject(Halt::Stuck),
                    }
                }
                Action::Update(q, psi, i) => {
                    self.collector.fo_eval(FoEval::Update);
                    let env = AttrEnv::of(self.tree, cfg.node);
                    let rel = eval_query(&cfg.store, &env, psi);
                    if G::ENABLED
                        && self.guard.fault_at(FaultSite::Store) == Some(FaultKind::CorruptStore)
                    {
                        // Injected fault: the write lands on a store reset
                        // to its initial contents, wiping accumulated state.
                        cfg.store = self.prog.initial_store();
                    }
                    cfg.store.set(*i, rel);
                    cfg.state = *q;
                }
                Action::Atp(q, phi, p, i) => {
                    if depth >= self.limits.max_atp_depth {
                        return ChainEnd::Reject(Halt::AtpDepthLimit);
                    }
                    if G::ENABLED {
                        if let Err(e) = self.guard.enter(DepthKind::Atp) {
                            return ChainEnd::Reject(self.record_trip(e));
                        }
                    }
                    self.atp_calls += 1;
                    let selected =
                        match phi.select_in(self.tree, cfg.node, self.collector, self.guard) {
                            Ok(s) => s,
                            Err(e) => {
                                // A trip inside the look-ahead unwinds like
                                // one on a step.
                                let e = *e.guard().expect("ExistsFormula fails only on trips");
                                let h = self.record_trip(e);
                                if G::ENABLED {
                                    self.guard.exit(DepthKind::Atp);
                                }
                                return ChainEnd::Reject(h);
                            }
                        };
                    self.collector
                        .atp_enter(cfg.node.0 as u64, selected.len(), depth);
                    if C::ENABLED {
                        let ids: Vec<u64> = selected.iter().map(|v| v.0 as u64).collect();
                        self.collector.selected(&ids);
                    }
                    let mut acc = Relation::empty(cfg.store.arity(RegId(0)));
                    for v in selected {
                        self.subcomputations += 1;
                        let sub = Config {
                            node: v,
                            state: *p,
                            store: self.copy_store(&cfg.store),
                        };
                        match self.run_chain(sub, depth + 1) {
                            ChainEnd::Accept(st) => {
                                acc.union_with(st.get(RegId(0)));
                                self.spare.push(st);
                            }
                            ChainEnd::Reject(h) => {
                                // "When one subcomputation rejects, the
                                // whole computation rejects."
                                let h = if h.is_limit() { h } else { Halt::SubRejected };
                                self.collector.atp_exit(depth);
                                if G::ENABLED {
                                    self.guard.exit(DepthKind::Atp);
                                }
                                return ChainEnd::Reject(h);
                            }
                        }
                    }
                    self.collector.atp_exit(depth);
                    if G::ENABLED {
                        self.guard.exit(DepthKind::Atp);
                    }
                    cfg.store.set(*i, acc);
                    cfg.state = *q;
                }
            }
        }
    }

    /// Run from the initial configuration `γ₀ = [root, q₀, τ₀]`, report the
    /// halt to the collector, and surface any guard trip as a [`TwqError`]
    /// enriched with the engine's own progress counters.
    pub(crate) fn drive(&mut self) -> Result<RunReport, TwqError> {
        let init = Config {
            node: self.tree.root(),
            state: self.prog.initial(),
            store: self.prog.initial_store(),
        };
        let halt = self.run_chain(init, 0).halt();
        self.collector.halt(halt.kind());
        let report = self.report(halt);
        match self.trip.take() {
            None => Ok(report),
            Some(mut e) => {
                e.partial.fuel_spent = e.partial.fuel_spent.max(report.steps);
                e.partial.max_gauge = e.partial.max_gauge.max(report.max_store_tuples);
                Err(TwqError::Guard(e))
            }
        }
    }

    pub(crate) fn report(&self, halt: Halt) -> RunReport {
        RunReport {
            halt,
            steps: self.steps,
            atp_calls: self.atp_calls,
            subcomputations: self.subcomputations,
            max_store_tuples: self.max_store_tuples,
            max_chain_configs: self.max_chain_configs,
        }
    }
}

/// Run a program on a delimited tree from the initial configuration
/// `γ₀ = [root, q₀, τ₀]`.
pub fn run(prog: &TwProgram, delim: &DelimTree, limits: Limits) -> RunReport {
    run_in(prog, delim, limits, &mut NullCollector, &mut NullGuard).expect("NullGuard never trips")
}

/// [`run`] with a collector and a resource guard.
///
/// The collector sees every step (with node, state, and `atp` depth),
/// chain and `atp` spans with the nodes each `atp` selected, guard/update
/// evaluations, store sizes, cycle-check bookkeeping, guard trips, and the
/// final halt. A [`TraceCollector`](twq_obs::TraceCollector) turns those
/// events into a causal span tree; a [`MetricsCollector`] into
/// [`RunMetrics`].
///
/// The guard's fuel budget is charged once per transition and, inside
/// each `atp` look-ahead, as
/// [`ExistsFormula::select_in`](twq_logic::ExistsFormula::select_in)
/// charges it; `atp` nesting
/// is tracked as [`DepthKind::Atp`], store sizes and cycle-table sizes
/// feed [`GaugeKind::StoreTuples`] / [`GaugeKind::Configs`], and fault
/// plans may drop transitions or corrupt the store. On a trip the run
/// stops where it was and returns `Err(TwqError::Guard(_))` whose
/// [`twq_guard::Partial`] records the steps taken and the store
/// high-water mark — the `Result` analogue of a [`RunReport`] with
/// `halt.is_limit()`. Governance and observability compose: the collector
/// sees every step up to the trip. With [`NullGuard`] the call never
/// fails.
pub fn run_in<C: Collector, G: Guard>(
    prog: &TwProgram,
    delim: &DelimTree,
    limits: Limits,
    c: &mut C,
    g: &mut G,
) -> Result<RunReport, TwqError> {
    Exec::new(prog, delim.tree(), limits, c, g).drive()
}

/// Convenience: delimit `tree` and run.
pub fn run_on_tree(prog: &TwProgram, tree: &Tree, limits: Limits) -> RunReport {
    run(prog, &DelimTree::build(tree), limits)
}

/// Run `prog` on every tree in `trees`, fanned across `pool`. Reports come
/// back in input order and are identical to a serial [`run_on_tree`] loop —
/// with a 1-worker pool it *is* that loop.
///
/// Other batch shapes are a [`Pool::scoped`] call over [`run_in`] at the
/// call site: each item builds its own collector and guard, and the caller
/// folds the per-item results in input order ([`RunMetrics::merge`],
/// [`Trace::merge_batch`](twq_obs::Trace::merge_batch)), so the aggregate
/// is the same for any worker count.
pub fn run_batch(prog: &TwProgram, trees: &[Tree], limits: Limits, pool: &Pool) -> Vec<RunReport> {
    pool.scoped(trees.len(), |i| run_on_tree(prog, &trees[i], limits))
}

/// [`run_batch`] with per-run metrics plus a [`BatchProfile`]: each tree
/// gets its own [`MetricsCollector`], merged in input order, so the
/// aggregate equals what one collector observing the serial loop would
/// report (up to phase ordering); the profile carries per-item wall-clock
/// latencies (input order) and the pool's per-worker telemetry.
pub fn run_batch_profiled(
    prog: &TwProgram,
    trees: &[Tree],
    limits: Limits,
    pool: &Pool,
) -> (Vec<RunReport>, RunMetrics, BatchProfile) {
    let (runs, stats) = pool.scoped_with_stats(trees.len(), |i| {
        let mut c = MetricsCollector::new();
        let t0 = std::time::Instant::now();
        let report = run_in(
            prog,
            &DelimTree::build(&trees[i]),
            limits,
            &mut c,
            &mut NullGuard,
        )
        .expect("NullGuard never trips");
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        (report, c.into_metrics(), ns)
    });
    let mut merged = RunMetrics::new();
    let mut reports = Vec::with_capacity(runs.len());
    let mut latencies_ns = Vec::with_capacity(runs.len());
    for (report, m, ns) in runs {
        merged.merge(&m);
        reports.push(report);
        latencies_ns.push(ns);
    }
    (
        reports,
        merged,
        BatchProfile {
            latencies_ns,
            stats,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Action, TwProgramBuilder};
    use twq_logic::exists::selectors;
    use twq_logic::store::sbuild::*;
    use twq_tree::{parse_tree, Label, Vocab};

    fn accept_all() -> TwProgram {
        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        b.rule_true(Label::DelimRoot, q0, Action::Move(qf, Dir::Stay));
        b.build().unwrap()
    }

    #[test]
    fn minimal_acceptor_accepts() {
        let mut v = Vocab::new();
        let t = parse_tree("a(b,c)", &mut v).unwrap();
        let report = run_on_tree(&accept_all(), &t, Limits::default());
        assert!(report.accepted());
        assert_eq!(report.steps, 1);
    }

    #[test]
    fn program_with_no_rules_is_stuck() {
        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        let p = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let report = run_on_tree(&p, &t, Limits::default());
        assert_eq!(report.halt, Halt::Stuck);
        assert!(!report.accepted());
    }

    #[test]
    fn two_way_cycle_detected() {
        // ▽ → down to ⊳ → up to ▽ → down … never terminates: cycle.
        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        b.rule_true(Label::DelimRoot, q0, Action::Move(q0, Dir::Down));
        b.rule_true(Label::DelimOpen, q0, Action::Move(q0, Dir::Up));
        let p = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let report = run_on_tree(&p, &t, Limits::default());
        assert_eq!(report.halt, Halt::Cycle);
    }

    #[test]
    fn nondeterminism_reported() {
        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        b.rule_true(Label::DelimRoot, q0, Action::Move(qf, Dir::Stay));
        b.rule_true(Label::DelimRoot, q0, Action::Move(qf, Dir::Down));
        let p = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let report = run_on_tree(&p, &t, Limits::default());
        assert_eq!(report.halt, Halt::Nondeterministic);
    }

    #[test]
    fn guards_disambiguate_rules() {
        // Accept iff the root's attribute equals 1, by guarding on the
        // register that the first rule loads.
        let mut vocab = Vocab::new();
        let t = parse_tree("a[k=1](b)", &mut vocab).unwrap();
        let k = vocab.attr_opt("k").unwrap();
        let one = vocab.val_int(1);

        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let q1 = b.state("q1");
        let q2 = b.state("q2");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        let r = b.unary_register();
        // Walk ▽ ↓ ⊳ → a; load k; test.
        b.rule_true(Label::DelimRoot, q0, Action::Move(q0, Dir::Down));
        b.rule_true(Label::DelimOpen, q0, Action::Move(q1, Dir::Right));
        let a_sym = Label::Sym(vocab.sym_opt("a").unwrap());
        b.rule_true(a_sym, q1, Action::Update(q2, eq(v(0), attr(k)), r));
        b.rule(a_sym, q2, rel(r, [cst(one)]), Action::Move(qf, Dir::Stay));
        let p = b.build().unwrap();

        let report = run_on_tree(&p, &t, Limits::default());
        assert!(report.accepted(), "{:?}", report.halt);

        // Same program on k=2 gets stuck at the guard.
        let t2 = parse_tree("a[k=2](b)", &mut vocab).unwrap();
        let report2 = run_on_tree(&p, &t2, Limits::default());
        assert_eq!(report2.halt, Halt::Stuck);
    }

    #[test]
    fn atp_unions_subcomputation_results() {
        // Main: at ▽, atp over all original leaves (parents of △); each
        // subcomputation stores its a-attribute in X1 and accepts. The
        // main register ends with the set of all leaf values — we verify
        // by guarding acceptance on a specific value being present.
        let mut vocab = Vocab::new();
        let t = parse_tree("s[a=9](s[a=1],s[a=2])", &mut vocab).unwrap();
        let a = vocab.attr_opt("a").unwrap();
        let one = vocab.val_int(1);
        let two = vocab.val_int(2);
        let nine = vocab.val_int(9);
        let s_sym = Label::Sym(vocab.sym_opt("s").unwrap());

        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let q1 = b.state("q1");
        let qleaf = b.state("qleaf");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        let r = b.unary_register();
        b.rule_true(
            Label::DelimRoot,
            q0,
            Action::Atp(q1, selectors::delim_leaf_descendants(), qleaf, r),
        );
        // Leaves: store own a-value, accept.
        b.rule_true(s_sym, qleaf, Action::Update(qf, eq(v(0), attr(a)), r));
        // Main resumes at ▽ in q1: accept iff X1 contains 1 and 2 but not 9.
        b.rule(
            Label::DelimRoot,
            q1,
            and([
                rel(r, [cst(one)]),
                rel(r, [cst(two)]),
                not(rel(r, [cst(nine)])),
            ]),
            Action::Move(qf, Dir::Stay),
        );
        let p = b.build().unwrap();
        let report = run_on_tree(&p, &t, Limits::default());
        assert!(report.accepted(), "{:?}", report.halt);
        assert_eq!(report.atp_calls, 1);
        assert_eq!(report.subcomputations, 2);
    }

    #[test]
    fn rejecting_subcomputation_rejects_whole_run() {
        // The leaf subcomputation has no rule → stuck → whole run rejects.
        let mut vocab = Vocab::new();
        let t = parse_tree("s(s)", &mut vocab).unwrap();
        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let q1 = b.state("q1");
        let qleaf = b.state("qleaf");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        let r = b.unary_register();
        b.rule_true(
            Label::DelimRoot,
            q0,
            Action::Atp(q1, selectors::delim_leaf_descendants(), qleaf, r),
        );
        b.rule_true(Label::DelimRoot, q1, Action::Move(qf, Dir::Stay));
        let p = b.build().unwrap();
        let report = run_on_tree(&p, &t, Limits::default());
        assert_eq!(report.halt, Halt::SubRejected);
    }

    #[test]
    fn atp_with_empty_selection_yields_empty_register() {
        // Selecting δ-descendants of the root of a δ-free tree: no
        // subcomputations, register becomes ∅, computation continues.
        let mut vocab = Vocab::new();
        let t = parse_tree("s(s)", &mut vocab).unwrap();
        let delta = vocab.sym("delta");
        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let q1 = b.state("q1");
        let qsub = b.state("qsub");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        let r = b.unary_register();
        b.rule_true(
            Label::DelimRoot,
            q0,
            Action::Atp(
                q1,
                twq_logic::exists::selectors::descendants_labeled(Label::Sym(delta)),
                qsub,
                r,
            ),
        );
        // Accept iff register is empty.
        b.rule(
            Label::DelimRoot,
            q1,
            not(twq_logic::SFormula::Exists(
                twq_logic::Var(0),
                Box::new(rel(r, [v(0)])),
            )),
            Action::Move(qf, Dir::Stay),
        );
        let p = b.build().unwrap();
        let report = run_on_tree(&p, &t, Limits::default());
        assert!(report.accepted());
        assert_eq!(report.subcomputations, 0);
    }

    #[test]
    fn step_limit_enforced() {
        // An infinite walk bouncing between two states at two nodes with a
        // growing... actually any cycle is caught; to exercise StepLimit use
        // a limit smaller than the cycle length.
        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        b.rule_true(Label::DelimRoot, q0, Action::Move(q0, Dir::Down));
        b.rule_true(Label::DelimOpen, q0, Action::Move(q0, Dir::Up));
        let p = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let report = run_on_tree(
            &p,
            &t,
            Limits {
                max_steps: 1,
                max_atp_depth: 4,
                cycle_check_interval: 1,
            },
        );
        // With max_steps=1 we halt on the limit before closing the cycle.
        assert_eq!(report.halt, Halt::StepLimit);
    }

    #[test]
    fn cycle_check_interval_zero_disables_detection() {
        // Same looping program as `two_way_cycle_detected`, but with
        // cycle_check_interval = 0 the repeat is never noticed: the run is
        // stopped only by max_steps and reports StepLimit, never Cycle.
        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        b.rule_true(Label::DelimRoot, q0, Action::Move(q0, Dir::Down));
        b.rule_true(Label::DelimOpen, q0, Action::Move(q0, Dir::Up));
        let p = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let limits = Limits {
            max_steps: 1000,
            max_atp_depth: 4,
            cycle_check_interval: 0,
        };
        let report = run_on_tree(&p, &t, limits);
        assert_eq!(report.halt, Halt::StepLimit);
        assert_eq!(report.steps, 1000);
        assert_eq!(
            report.max_chain_configs, 0,
            "nothing recorded when disabled"
        );
        // Sanity: with the default interval the same program is a Cycle.
        let report = run_on_tree(
            &p,
            &t,
            Limits {
                cycle_check_interval: 1,
                ..limits
            },
        );
        assert_eq!(report.halt, Halt::Cycle);
    }

    #[test]
    fn guard_budget_trips_with_partial_report() {
        use twq_guard::{ResourceGuard, TripReason};
        // The looping program again, under a guard budget smaller than the
        // engine's own step limit.
        let mut b = TwProgramBuilder::new();
        let q0 = b.state("q0");
        let qf = b.state("qF");
        b.initial(q0).final_state(qf);
        b.rule_true(Label::DelimRoot, q0, Action::Move(q0, Dir::Down));
        b.rule_true(Label::DelimOpen, q0, Action::Move(q0, Dir::Up));
        let p = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let limits = Limits {
            max_steps: 1_000_000,
            max_atp_depth: 4,
            cycle_check_interval: 0,
        };
        let mut g = ResourceGuard::unlimited().with_budget(10);
        let err = run_in(
            &p,
            &DelimTree::build(&t),
            limits,
            &mut NullCollector,
            &mut g,
        )
        .unwrap_err();
        let trip = err.guard().expect("budget trip");
        assert_eq!(trip.reason, TripReason::Budget { limit: 10 });
        assert!(trip.partial.fuel_spent >= 10);
        assert!(err.is_limit());
    }

    #[test]
    fn guard_null_matches_unguarded_run() {
        let mut vocab = Vocab::new();
        let ex = crate::examples::example_32(&mut vocab);
        let t = parse_tree("sigma[a=9](delta[a=9](sigma[a=1],sigma[a=1]))", &mut vocab).unwrap();
        let dt = DelimTree::build(&t);
        let plain = run(&ex.program, &dt, Limits::default());
        let guarded = run_in(
            &ex.program,
            &dt,
            Limits::default(),
            &mut NullCollector,
            &mut NullGuard,
        );
        assert_eq!(guarded.unwrap(), plain);
        // A generously-budgeted ResourceGuard agrees too. It is charged one
        // unit per step plus each look-ahead's own charge: φ₁ from ▽, then
        // φ₂ from the δ-node φ₁ selects, each metered here on its own.
        let mut mc = MetricsCollector::new();
        let mut rg = twq_guard::ResourceGuard::unlimited().with_budget(1_000_000);
        let guarded = run_in(&ex.program, &dt, Limits::default(), &mut mc, &mut rg).unwrap();
        assert_eq!(plain, guarded);
        let metered = |phi: &twq_logic::ExistsFormula, u: NodeId| {
            let mut g = twq_guard::ResourceGuard::unlimited();
            phi.select_in(dt.tree(), u, &mut NullCollector, &mut g)
                .unwrap();
            g.fuel_spent()
        };
        let (phi1, phi2) = (
            selectors::descendants_labeled(Label::Sym(ex.delta)),
            selectors::delim_leaf_descendants(),
        );
        let root = dt.tree().root();
        let deltas = phi1.select(dt.tree(), root);
        assert_eq!(deltas.len(), 1);
        let lookahead =
            metered(&phi1, root) + deltas.iter().map(|v| metered(&phi2, v)).sum::<u64>();
        assert_eq!(rg.fuel_spent(), plain.steps + lookahead);
        // The collector riding along sees exactly the steps.
        assert_eq!(mc.metrics.steps, plain.steps);
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let mut vocab = Vocab::new();
        let ex = crate::examples::example_32(&mut vocab);
        let t = parse_tree("sigma[a=9](delta[a=9](sigma[a=1],sigma[a=1]))", &mut vocab).unwrap();
        let dt = twq_tree::DelimTree::build(&t);
        let mut c = twq_obs::TraceCollector::new();
        let report = run_in(&ex.program, &dt, Limits::default(), &mut c, &mut NullGuard).unwrap();
        assert_eq!(report, run(&ex.program, &dt, Limits::default()));
        let trace = c.finish("run");
        assert_eq!(
            trace.verdict(),
            Some(twq_obs::Verdict::Halt(HaltKind::Accept))
        );
        // The main chain starts at ▽ in the initial state, and the atp
        // subcomputations nest under it.
        let main = &trace.root.children[0];
        assert_eq!(
            main.kind,
            twq_obs::SpanKind::Chain {
                depth: 0,
                node: dt.tree().root().0 as u64,
                state: ex.program.initial().0 as u32,
            }
        );
        assert!(main.size() > 1);
    }

    #[test]
    fn run_batch_matches_serial_any_worker_count() {
        let mut vocab = Vocab::new();
        let ex = crate::examples::example_32(&mut vocab);
        let trees: Vec<Tree> = [
            "sigma[a=9](delta[a=9](sigma[a=1],sigma[a=1]))",
            "sigma[a=1](delta[a=2](sigma[a=2]))",
            "sigma[a=3]",
            "sigma[a=9](delta[a=9](sigma[a=1]),delta[a=9](sigma[a=9]))",
        ]
        .iter()
        .map(|s| parse_tree(s, &mut vocab).unwrap())
        .collect();
        let serial: Vec<RunReport> = trees
            .iter()
            .map(|t| run_on_tree(&ex.program, t, Limits::default()))
            .collect();
        for workers in [1, 2, 4] {
            let pool = Pool::new(workers);
            let batch = run_batch(&ex.program, &trees, Limits::default(), &pool);
            assert_eq!(batch, serial, "workers={workers}");
            let (reports, metrics, profile) =
                run_batch_profiled(&ex.program, &trees, Limits::default(), &pool);
            assert_eq!(reports, serial, "workers={workers}");
            assert_eq!(metrics.steps, serial.iter().map(|r| r.steps).sum::<u64>());
            assert_eq!(profile.latencies_ns.len(), trees.len());
        }
    }

    #[test]
    fn guarded_batch_matches_serial_including_trips() {
        use twq_guard::ResourceGuard;
        let mut vocab = Vocab::new();
        let ex = crate::examples::example_32(&mut vocab);
        let trees: Vec<Tree> = [
            "sigma[a=9](delta[a=9](sigma[a=1],sigma[a=1]))",
            "sigma[a=3]",
        ]
        .iter()
        .map(|s| parse_tree(s, &mut vocab).unwrap())
        .collect();
        // A budget that some runs exhaust and some do not; every item runs
        // under a fresh guard.
        let governed = |t: &Tree| {
            let mut g = ResourceGuard::unlimited().with_budget(5);
            let dt = DelimTree::build(t);
            run_in(
                &ex.program,
                &dt,
                Limits::default(),
                &mut NullCollector,
                &mut g,
            )
        };
        let serial: Vec<Result<RunReport, TwqError>> = trees.iter().map(governed).collect();
        for workers in [1, 3] {
            let batch = Pool::new(workers).scoped(trees.len(), |i| governed(&trees[i]));
            assert_eq!(batch.len(), serial.len());
            for (b, s) in batch.iter().zip(&serial) {
                match (b, s) {
                    (Ok(x), Ok(y)) => assert_eq!(x, y),
                    (Err(x), Err(y)) => {
                        assert_eq!(x.guard().unwrap().reason, y.guard().unwrap().reason)
                    }
                    _ => panic!("verdict shape diverged: {b:?} vs {s:?}"),
                }
            }
        }
    }

    #[test]
    fn move_directions() {
        let mut v = Vocab::new();
        let t = parse_tree("a(b,c)", &mut v).unwrap();
        let r = t.root();
        let b_node = t.node_at_path(&[1]).unwrap();
        let c_node = t.node_at_path(&[2]).unwrap();
        assert_eq!(move_dir(&t, r, Dir::Stay), Some(r));
        assert_eq!(move_dir(&t, r, Dir::Down), Some(b_node));
        assert_eq!(move_dir(&t, b_node, Dir::Right), Some(c_node));
        assert_eq!(move_dir(&t, c_node, Dir::Left), Some(b_node));
        assert_eq!(move_dir(&t, c_node, Dir::Up), Some(r));
        assert_eq!(move_dir(&t, r, Dir::Up), None);
        assert_eq!(move_dir(&t, b_node, Dir::Left), None);
        assert_eq!(move_dir(&t, c_node, Dir::Right), None);
        assert_eq!(move_dir(&t, b_node, Dir::Down), None);
    }
}
