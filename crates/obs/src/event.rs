//! Structured run events: the span-style trace vocabulary shared by every
//! evaluator, fed to [`EventSink`](crate::sink::EventSink)s by an enabled
//! [`Collector`](crate::collect::Collector).

use crate::json::Json;

/// Why a run (or one computation chain) ended — the evaluator-neutral
/// union of the engines' halt enums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HaltKind {
    /// The final/accepting state was reached.
    Accept,
    /// No rule applied (includes moves off the tree or tape).
    Stuck,
    /// A configuration repeated.
    Cycle,
    /// Several rules applied in a deterministic run.
    Nondeterministic,
    /// A subcomputation rejected, rejecting the whole computation.
    SubRejected,
    /// The step budget was exhausted.
    StepLimit,
    /// The `atp` nesting budget was exhausted.
    AtpDepthLimit,
    /// The tape-space budget was exhausted (`xTM` runs).
    SpaceLimit,
}

impl HaltKind {
    /// A stable lowercase name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            HaltKind::Accept => "accept",
            HaltKind::Stuck => "stuck",
            HaltKind::Cycle => "cycle",
            HaltKind::Nondeterministic => "nondeterministic",
            HaltKind::SubRejected => "sub_rejected",
            HaltKind::StepLimit => "step_limit",
            HaltKind::AtpDepthLimit => "atp_depth_limit",
            HaltKind::SpaceLimit => "space_limit",
        }
    }

    /// Whether this halt means acceptance.
    pub fn accepted(self) -> bool {
        self == HaltKind::Accept
    }
}

/// Which first-order evaluation primitive was invoked. Each evaluator
/// reports the primitives it actually exercises;
/// [`RunMetrics`](crate::metrics::RunMetrics) tallies them per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FoEval {
    /// A rule-guard sentence over the store (`eval_guard`).
    Guard,
    /// A store-update query (`eval_query`).
    Update,
    /// An `atp` node-selection (`φ.select`).
    Select,
    /// One tree-atom evaluation inside the FO model checker.
    Atom,
    /// A full FO sentence check (`eval_sentence`).
    Sentence,
    /// One XPath AST-node evaluation (a whole frontier, set-at-a-time).
    Path,
    /// One XPath filter application (to a whole frontier).
    Pred,
}

impl FoEval {
    /// Number of variants (sizes the per-kind counter array).
    pub const COUNT: usize = 7;

    /// All variants, in counter-index order.
    pub const ALL: [FoEval; FoEval::COUNT] = [
        FoEval::Guard,
        FoEval::Update,
        FoEval::Select,
        FoEval::Atom,
        FoEval::Sentence,
        FoEval::Path,
        FoEval::Pred,
    ];

    /// A stable lowercase name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FoEval::Guard => "guard",
            FoEval::Update => "update",
            FoEval::Select => "select",
            FoEval::Atom => "atom",
            FoEval::Sentence => "sentence",
            FoEval::Path => "path",
            FoEval::Pred => "pred",
        }
    }
}

/// One structured trace event. Events are `Copy` so the ring-buffer sink
/// can retain the last `N` of a multi-million-step run for free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A computation chain started (`depth` 0 is the main computation;
    /// deeper chains are `atp` subcomputations).
    ChainEnter {
        /// `atp` nesting depth.
        depth: u32,
        /// Node the chain starts on.
        node: u64,
        /// State the chain starts in.
        state: u32,
    },
    /// A computation chain ended.
    ChainExit {
        /// `atp` nesting depth.
        depth: u32,
        /// How the chain ended.
        halt: HaltKind,
    },
    /// One transition of the walking loop.
    Step {
        /// `atp` nesting depth.
        depth: u32,
        /// Node before the step.
        node: u64,
        /// State before the step.
        state: u32,
    },
    /// An `atp` look-ahead began: `fanout` subcomputations will run.
    AtpEnter {
        /// `atp` nesting depth of the *caller*.
        depth: u32,
        /// Node the `atp` was issued from.
        node: u64,
        /// Number of nodes `φ` selected.
        fanout: u32,
    },
    /// The `atp` look-ahead finished and the caller resumed.
    AtpExit {
        /// `atp` nesting depth of the caller.
        depth: u32,
    },
    /// A first-order evaluation primitive ran.
    Fo {
        /// Which primitive.
        kind: FoEval,
    },
    /// A protocol message was sent.
    Message {
        /// Message kind (the `Δ` alphabet class).
        kind: &'static str,
    },
    /// A named phase completed.
    Phase {
        /// Phase name.
        name: &'static str,
        /// Wall-clock duration in nanoseconds.
        nanos: u64,
    },
}

impl Event {
    /// The event as a JSON object (one JSONL record).
    pub fn to_json(&self) -> Json {
        match *self {
            Event::ChainEnter { depth, node, state } => Json::obj([
                ("ev", Json::str("chain_enter")),
                ("depth", depth.into()),
                ("node", node.into()),
                ("state", state.into()),
            ]),
            Event::ChainExit { depth, halt } => Json::obj([
                ("ev", Json::str("chain_exit")),
                ("depth", depth.into()),
                ("halt", Json::str(halt.name())),
            ]),
            Event::Step { depth, node, state } => Json::obj([
                ("ev", Json::str("step")),
                ("depth", depth.into()),
                ("node", node.into()),
                ("state", state.into()),
            ]),
            Event::AtpEnter {
                depth,
                node,
                fanout,
            } => Json::obj([
                ("ev", Json::str("atp_enter")),
                ("depth", depth.into()),
                ("node", node.into()),
                ("fanout", fanout.into()),
            ]),
            Event::AtpExit { depth } => {
                Json::obj([("ev", Json::str("atp_exit")), ("depth", depth.into())])
            }
            Event::Fo { kind } => Json::obj([
                ("ev", Json::str("fo_eval")),
                ("kind", Json::str(kind.name())),
            ]),
            Event::Message { kind } => {
                Json::obj([("ev", Json::str("message")), ("kind", Json::str(kind))])
            }
            Event::Phase { name, nanos } => Json::obj([
                ("ev", Json::str("phase")),
                ("name", Json::str(name)),
                ("nanos", nanos.into()),
            ]),
        }
    }

    /// One human-readable line, indented by span depth.
    pub fn render(&self) -> String {
        match *self {
            Event::ChainEnter { depth, node, state } => format!(
                "{}> chain @ node {node}, state {state}",
                "  ".repeat(depth as usize)
            ),
            Event::ChainExit { depth, halt } => {
                format!("{}< chain: {}", "  ".repeat(depth as usize), halt.name())
            }
            Event::Step { depth, node, state } => format!(
                "{}. step @ node {node}, state {state}",
                "  ".repeat(depth as usize)
            ),
            Event::AtpEnter {
                depth,
                node,
                fanout,
            } => format!(
                "{}> atp @ node {node}, fanout {fanout}",
                "  ".repeat(depth as usize)
            ),
            Event::AtpExit { depth } => format!("{}< atp", "  ".repeat(depth as usize)),
            Event::Fo { kind } => format!("# fo {}", kind.name()),
            Event::Message { kind } => format!("# msg {kind}"),
            Event::Phase { name, nanos } => format!("# phase {name}: {nanos} ns"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(HaltKind::SubRejected.name(), "sub_rejected");
        assert!(HaltKind::Accept.accepted());
        assert!(!HaltKind::Cycle.accepted());
        for (i, k) in FoEval::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k:?} out of order");
        }
    }

    #[test]
    fn event_json_has_tag() {
        let ev = Event::AtpEnter {
            depth: 1,
            node: 7,
            fanout: 3,
        };
        let j = ev.to_json();
        assert_eq!(j.get("ev").and_then(Json::as_str), Some("atp_enter"));
        assert_eq!(j.get("fanout").and_then(Json::as_i64), Some(3));
    }

    #[test]
    fn render_indents_by_depth() {
        let ev = Event::Step {
            depth: 2,
            node: 4,
            state: 1,
        };
        assert!(ev.render().starts_with("    . step"));
    }
}
