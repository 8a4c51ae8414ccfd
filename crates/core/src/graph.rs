//! Configuration-graph evaluation — the upper-bound constructions of
//! Theorem 7.1(2) and 7.1(4).
//!
//! For `tw^l` the number of distinct configurations is polynomial in `|t|`
//! (each of the `k` unary registers holds at most one active value), and
//! for `tw^{r,l}` it is exponential. In both cases the run *including all
//! `atp` subcomputations* is a deterministic function of the starting
//! configuration, so the outcome of every configuration can be memoized
//! globally: each configuration is fully evaluated at most once, giving
//! total work `O(#configurations × step cost)` — the paper's
//! "construct the configuration graph in a bottom-up manner" argument made
//! executable. The [`GraphReport::distinct_configs`] counter is exactly
//! the quantity whose growth the E4/E6 experiments plot.

use std::collections::{HashMap, HashSet};

use twq_logic::store::AttrEnv;
use twq_logic::{eval_query, RegId, Relation};
use twq_obs::NullCollector;
use twq_tree::{DelimTree, Tree};

use crate::engine::{move_dir, select_rule, Config, Halt, Limits};
use crate::program::{Action, TwProgram};

/// Outcome of a fully evaluated configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Memo {
    /// The chain starting here accepts, with this final first register.
    Accept(Relation),
    /// The chain starting here rejects.
    Reject(Halt),
}

/// Statistics from a memoized run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphReport {
    /// How the run ended.
    pub halt: Halt,
    /// Distinct configurations evaluated (memo table size) — polynomial in
    /// `|t|` for `tw^l`, possibly exponential for `tw^{r,l}` (Thm 7.1).
    pub distinct_configs: usize,
    /// Total transitions taken across all first-time evaluations.
    pub steps: u64,
    /// `atp` invocations (memo hits included).
    pub atp_calls: u64,
    /// Largest store observed.
    pub max_store_tuples: usize,
}

impl GraphReport {
    /// Whether the run accepted.
    pub fn accepted(&self) -> bool {
        self.halt.accepted()
    }
}

struct GraphExec<'a> {
    prog: &'a TwProgram,
    tree: &'a Tree,
    limits: Limits,
    memo: HashMap<Config, Memo>,
    steps: u64,
    atp_calls: u64,
    max_store_tuples: usize,
}

impl<'a> GraphExec<'a> {
    /// Evaluate the chain starting at `cfg`, consulting and filling the
    /// global memo table.
    fn eval(&mut self, start: Config, depth: u32) -> Memo {
        // The configurations of the current chain: the cycle check, and the
        // keys that all share the final outcome (the run from each is a
        // suffix of the run from the first), so their order does not matter.
        let mut path: HashSet<Config> = HashSet::new();
        let mut cfg = start;
        let outcome = loop {
            if let Some(m) = self.memo.get(&cfg) {
                break m.clone();
            }
            if path.contains(&cfg) {
                break Memo::Reject(Halt::Cycle);
            }
            self.max_store_tuples = self.max_store_tuples.max(cfg.store.total_tuples());
            path.insert(cfg.clone());

            let rule_idx = match select_rule(
                self.prog,
                self.tree,
                cfg.node,
                cfg.state,
                &cfg.store,
                &mut NullCollector,
            ) {
                Ok(Some(i)) => i,
                Ok(None) => break Memo::Accept(cfg.store.get(RegId(0)).clone()),
                Err(h) => break Memo::Reject(h),
            };
            if self.steps >= self.limits.max_steps {
                break Memo::Reject(Halt::StepLimit);
            }
            self.steps += 1;
            let rule = &self.prog.rules()[rule_idx];
            match &rule.action {
                Action::Move(q, d) => match move_dir(self.tree, cfg.node, *d) {
                    Some(v) => {
                        cfg = Config {
                            node: v,
                            state: *q,
                            store: cfg.store,
                        };
                    }
                    None => break Memo::Reject(Halt::Stuck),
                },
                Action::Update(q, psi, i) => {
                    let env = AttrEnv::of(self.tree, cfg.node);
                    let rel = eval_query(&cfg.store, &env, psi);
                    let mut store = cfg.store;
                    store.set(*i, rel);
                    cfg = Config {
                        node: cfg.node,
                        state: *q,
                        store,
                    };
                }
                Action::Atp(q, phi, p, i) => {
                    if depth >= self.limits.max_atp_depth {
                        break Memo::Reject(Halt::AtpDepthLimit);
                    }
                    self.atp_calls += 1;
                    let selected = phi.select(self.tree, cfg.node);
                    let mut acc = Relation::empty(cfg.store.arity(RegId(0)));
                    let mut failed = None;
                    for v in selected {
                        let sub = Config {
                            node: v,
                            state: *p,
                            store: cfg.store.clone(),
                        };
                        match self.eval(sub, depth + 1) {
                            Memo::Accept(rel) => acc.union_with(&rel),
                            Memo::Reject(h) => {
                                failed = Some(if h.is_limit() { h } else { Halt::SubRejected });
                                break;
                            }
                        }
                    }
                    if let Some(h) = failed {
                        break Memo::Reject(h);
                    }
                    let mut store = cfg.store;
                    store.set(*i, acc);
                    cfg = Config {
                        node: cfg.node,
                        state: *q,
                        store,
                    };
                }
            }
        };
        // Every configuration on the path shares the outcome.
        for c in path {
            self.memo.insert(c, outcome.clone());
        }
        outcome
    }
}

/// Run a program via the memoized configuration-graph evaluator.
pub fn run_graph(prog: &TwProgram, delim: &DelimTree, limits: Limits) -> GraphReport {
    let tree = delim.tree();
    let mut exec = GraphExec {
        prog,
        tree,
        limits,
        memo: HashMap::new(),
        steps: 0,
        atp_calls: 0,
        max_store_tuples: 0,
    };
    let init = Config {
        node: tree.root(),
        state: prog.initial(),
        store: prog.initial_store(),
    };
    let halt = match exec.eval(init, 0) {
        Memo::Accept(_) => Halt::Accept,
        Memo::Reject(h) => h,
    };
    GraphReport {
        halt,
        distinct_configs: exec.memo.len(),
        steps: exec.steps,
        atp_calls: exec.atp_calls,
        max_store_tuples: exec.max_store_tuples,
    }
}

/// Convenience: delimit `tree` and run.
pub fn run_graph_on_tree(prog: &TwProgram, tree: &Tree, limits: Limits) -> GraphReport {
    run_graph(prog, &DelimTree::build(tree), limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_on_tree, Limits};
    use crate::examples;
    use twq_tree::generate::{random_tree, TreeGenConfig};
    use twq_tree::Vocab;

    /// The graph evaluator and the direct engine agree on acceptance for
    /// the Example 3.2 program over random trees.
    #[test]
    fn agrees_with_direct_engine() {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let mixed = TreeGenConfig::example32(&mut vocab, 40, &[1, 2]);
        let uniform = TreeGenConfig::example32(&mut vocab, 40, &[7]);
        let (mut accepts, mut rejects) = (0, 0);
        for seed in 0..10 {
            for cfg in [&mixed, &uniform] {
                let t = random_tree(cfg, seed);
                let direct = run_on_tree(&ex.program, &t, Limits::default());
                let graph = run_graph_on_tree(&ex.program, &t, Limits::default());
                assert_eq!(direct.accepted(), graph.accepted(), "seed {seed}");
                if direct.accepted() {
                    accepts += 1;
                } else {
                    rejects += 1;
                }
            }
        }
        // The workload must exercise both outcomes to be meaningful.
        assert!(accepts > 0 && rejects > 0, "accepts = {accepts}");
    }

    #[test]
    fn memoization_bounds_config_count() {
        // On a tree with many identical leaves, subcomputations from
        // distinct leaf nodes still differ (different node), but repeated
        // visits to the same configuration are free. distinct_configs must
        // not exceed (#states × #nodes × #store-values) for a tw^l-style
        // program with one unary register over one distinct value.
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let s = vocab.sym("sigma");
        let a = vocab.attr("a");
        let val = vocab.val_int(1);
        let mut t = twq_tree::generate::star_tree(s, 30);
        let ids: Vec<_> = t.node_ids().collect();
        for u in ids {
            t.set_attr(u, a, val);
        }
        let report = run_graph_on_tree(&ex.program, &t, Limits::default());
        assert!(report.accepted());
        let delim_size = twq_tree::DelimTree::build(&t).tree().len();
        // Coarse polynomial bound: states × delim nodes × (values+1)².
        let bound = ex.program.state_count() * delim_size * 4;
        assert!(
            report.distinct_configs <= bound,
            "{} > {}",
            report.distinct_configs,
            bound
        );
    }
}
