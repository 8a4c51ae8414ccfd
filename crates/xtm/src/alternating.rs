//! Alternating `xTM` evaluation — the `A…^X` classes of Section 6
//! ("Alternating complexity classes, denoted by an A in front of their
//! name, are defined w.r.t. alternating xTMs"), used by Theorem 7.1(2)/(4)
//! via `ALOGSPACE = PTIME` and `APSPACE = EXPTIME`.
//!
//! Acceptance is the usual game semantics: an existential configuration
//! accepts iff **some** applicable rule leads to an accepting
//! configuration, a universal one iff **all** do (with no applicable rule,
//! a universal configuration accepts vacuously and an existential one
//! rejects). The evaluator memoizes configurations; a configuration
//! re-entered along the current evaluation path is treated as rejecting,
//! which computes the least fixpoint for machines whose runs carry a
//! progress measure (every cycle-free machine, and in particular every
//! machine in [`crate::machines`]).

use std::collections::{HashMap, HashSet};

use twq_guard::{DepthKind, GaugeKind, Guard, GuardError, NullGuard, TwqError};
use twq_tree::{DelimTree, Value};

use crate::machine::{apply, enabled, Mode, Xtm, XtmConfig, XtmLimits};

/// Result of an alternating run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AltReport {
    /// Whether the initial configuration is accepting.
    pub accepted: bool,
    /// Distinct configurations evaluated.
    pub configs: usize,
    /// Largest tape footprint observed.
    pub space: usize,
    /// Whether a resource limit was hit (result is then "reject by fiat").
    pub truncated: bool,
}

struct AltExec<'a, G: Guard> {
    m: &'a Xtm,
    tree: &'a twq_tree::Tree,
    limits: XtmLimits,
    memo: HashMap<XtmConfig, bool>,
    in_progress: HashSet<XtmConfig>,
    space: usize,
    truncated: bool,
    guard: &'a mut G,
}

impl<G: Guard> AltExec<'_, G> {
    fn eval(&mut self, cfg: XtmConfig) -> Result<bool, GuardError> {
        if cfg.state == self.m.accept() {
            return Ok(true);
        }
        if let Some(&b) = self.memo.get(&cfg) {
            return Ok(b);
        }
        if self.in_progress.contains(&cfg) {
            // Least-fixpoint: an unfounded recursion does not accept.
            return Ok(false);
        }
        self.space = self.space.max(cfg.tape.len()).max(cfg.head + 1);
        if self.space > self.limits.max_space || self.memo.len() as u64 >= self.limits.max_steps {
            self.truncated = true;
            return Ok(false);
        }
        if G::ENABLED {
            self.guard.tick()?;
            self.guard.gauge(GaugeKind::TapeCells, self.space)?;
            self.guard.gauge(GaugeKind::Configs, self.memo.len())?;
        }
        self.in_progress.insert(cfg.clone());
        if G::ENABLED {
            if let Err(e) = self.guard.enter(DepthKind::Alternation) {
                self.in_progress.remove(&cfg);
                return Err(e);
            }
        }
        let (m, tree) = (self.m, self.tree);
        let succs = m
            .rules_for(tree, &cfg)
            .filter(|r| enabled(r, tree, &cfg))
            .filter_map(|r| apply(tree, &cfg, r));
        let mut result = Ok(!matches!(m.mode(cfg.state), Mode::Exist));
        for s in succs {
            match (m.mode(cfg.state), self.eval(s)) {
                (Mode::Exist, Ok(true)) => {
                    result = Ok(true);
                    break;
                }
                (Mode::Univ, Ok(false)) => {
                    result = Ok(false);
                    break;
                }
                (_, Ok(_)) => {}
                (_, Err(e)) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if G::ENABLED {
            self.guard.exit(DepthKind::Alternation);
        }
        self.in_progress.remove(&cfg);
        if let Ok(b) = result {
            self.memo.insert(cfg, b);
        }
        result
    }
}

/// Evaluate an alternating machine on a delimited tree.
pub fn run_alternating(m: &Xtm, delim: &DelimTree, limits: XtmLimits) -> AltReport {
    run_alternating_guarded(m, delim, limits, &mut NullGuard).expect("NullGuard never trips")
}

/// [`run_alternating`] under a resource [`Guard`]: one fuel unit per
/// configuration expanded, game-tree recursion tracked as
/// [`DepthKind::Alternation`], the memo table as [`GaugeKind::Configs`],
/// and tape footprint as [`GaugeKind::TapeCells`].
pub fn run_alternating_guarded<G: Guard>(
    m: &Xtm,
    delim: &DelimTree,
    limits: XtmLimits,
    guard: &mut G,
) -> Result<AltReport, TwqError> {
    let tree = delim.tree();
    let mut exec = AltExec {
        m,
        tree,
        limits,
        memo: HashMap::new(),
        in_progress: HashSet::new(),
        space: 0,
        truncated: false,
        guard,
    };
    let init = XtmConfig {
        node: tree.root(),
        state: m.initial(),
        head: 0,
        tape: Vec::new(),
        regs: vec![Value::BOT; m.reg_count() as usize],
    };
    match exec.eval(init) {
        Ok(accepted) => Ok(AltReport {
            accepted,
            configs: exec.memo.len(),
            space: exec.space.max(1),
            truncated: exec.truncated,
        }),
        Err(mut e) => {
            e.partial.max_gauge = e.partial.max_gauge.max(exec.space);
            Err(TwqError::Guard(e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{HeadMove, TreeDir, XtmBuilder, BLANK};
    use twq_tree::{parse_tree, Label, Vocab};

    #[test]
    fn deterministic_machine_agrees_with_direct_runner() {
        // A machine without branching behaves identically under both
        // semantics.
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
        let m = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a(b)", &mut v).unwrap();
        let dt = DelimTree::build(&t);
        let alt = run_alternating(&m, &dt, XtmLimits::default());
        let det = crate::machine::run_xtm(&m, &dt, XtmLimits::default());
        assert_eq!(alt.accepted, det.accepted());
    }

    #[test]
    fn existential_branching_picks_a_witness() {
        // From ▽: either move Down (and get stuck) or accept in place —
        // existential semantics accepts.
        let mut b = XtmBuilder::new();
        let s0 = b.state("s0");
        let dead = b.state("dead");
        let acc = b.state("acc");
        b.initial(s0).accept(acc);
        b.simple(
            s0,
            Label::DelimRoot,
            BLANK,
            dead,
            BLANK,
            HeadMove::Stay,
            TreeDir::Down,
        );
        b.simple(
            s0,
            Label::DelimRoot,
            BLANK,
            acc,
            BLANK,
            HeadMove::Stay,
            TreeDir::Stay,
        );
        let m = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let r = run_alternating(&m, &DelimTree::build(&t), XtmLimits::default());
        assert!(r.accepted);
    }

    #[test]
    fn universal_branching_requires_all() {
        // Same two branches from a universal state: reject.
        let mut b = XtmBuilder::new();
        let s0 = b.state_mode("s0", Mode::Univ);
        let dead = b.state("dead");
        let acc = b.state("acc");
        b.initial(s0).accept(acc);
        b.simple(
            s0,
            Label::DelimRoot,
            BLANK,
            dead,
            BLANK,
            HeadMove::Stay,
            TreeDir::Down,
        );
        b.simple(
            s0,
            Label::DelimRoot,
            BLANK,
            acc,
            BLANK,
            HeadMove::Stay,
            TreeDir::Stay,
        );
        let m = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let r = run_alternating(&m, &DelimTree::build(&t), XtmLimits::default());
        assert!(!r.accepted);
    }

    #[test]
    fn universal_with_no_successors_accepts_vacuously() {
        let mut b = XtmBuilder::new();
        let s0 = b.state_mode("s0", Mode::Univ);
        let acc = b.state("acc");
        b.initial(s0).accept(acc);
        let m = b.build().unwrap();
        let mut v = Vocab::new();
        let t = parse_tree("a", &mut v).unwrap();
        let r = run_alternating(&m, &DelimTree::build(&t), XtmLimits::default());
        assert!(r.accepted);
    }

    #[test]
    fn unfounded_cycle_rejects() {
        // s0 →(stay in place)→ s0: no progress, existential → reject.
        let mut b = XtmBuilder::new();
        let s0 = b.state("s0");
        let acc = b.state("acc");
        b.initial(s0).accept(acc);
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
        let r = run_alternating(&m, &DelimTree::build(&t), XtmLimits::default());
        assert!(!r.accepted);
    }
}
