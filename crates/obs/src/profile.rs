//! The profiling collectors behind `experiments --profile`.
//!
//! * [`FlameProfiler`] folds a run's hook calls into *self-weight per
//!   span stack* — the exact shape flamegraph tools consume. The stack
//!   vocabulary is the walking model's own: a frame per computation chain
//!   (named by its entry state), a frame per `atp` look-ahead, and leaf
//!   frames for first-order evaluation primitives. Weights are
//!   deterministic sample counts (one per engine step or FO primitive),
//!   not wall-clock, so profiles of deterministic runs are byte-identical
//!   across machines and worker counts.
//! * [`Tail`] is a flight recorder: it keeps the last `N` chain, step,
//!   `atp`, FO and phase hook calls, so a `Stuck` or
//!   `Nondeterministic` halt has a post-mortem without paying for a full
//!   trace.
//!
//! Both are [`Collector`]s; pair them with a
//! [`MetricsCollector`](crate::collect::MetricsCollector) to profile one
//! run three ways.

use std::collections::{BTreeMap, VecDeque};

use crate::collect::Collector;
use crate::event::{FoEval, HaltKind};

/// One frame of the span stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Frame {
    /// A computation chain, named by the state it started in.
    Chain(u32),
    /// An `atp` look-ahead span.
    Atp,
    /// A first-order evaluation primitive (leaf frames only).
    Fo(FoEval),
}

impl Frame {
    /// Render one frame with `namer` resolving state ids to names.
    fn render(&self, namer: &dyn Fn(u32) -> String) -> String {
        match *self {
            Frame::Chain(q) => namer(q),
            Frame::Atp => "atp".to_owned(),
            Frame::Fo(kind) => format!("fo_{}", kind.name()),
        }
    }
}

/// The default state renderer: `state<id>`.
fn default_namer(q: u32) -> String {
    format!("state{q}")
}

/// Folds a run into collapsed-stack self weights.
///
/// Run an evaluator under it (it is a [`Collector`]), then render with
/// [`FlameProfiler::collapsed`] (flamegraph-collapsed lines, sorted) or
/// rank with [`FlameProfiler::top_self`].
#[derive(Debug, Clone, Default)]
pub struct FlameProfiler {
    stack: Vec<Frame>,
    weights: BTreeMap<Vec<Frame>, u64>,
    total: u64,
}

impl FlameProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total samples attributed so far.
    pub fn total_weight(&self) -> u64 {
        self.total
    }

    /// Whether any samples were attributed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    fn bump(&mut self, stack: Vec<Frame>) {
        *self.weights.entry(stack).or_insert(0) += 1;
        self.total += 1;
    }

    /// Flamegraph-collapsed lines (`frame;frame;frame weight`), sorted by
    /// stack for deterministic output, with `namer` resolving state ids.
    /// Prepend `prefix` (plus `;`) to every line when non-empty — used to
    /// tag stacks with their experiment id when several runs share a file.
    pub fn collapsed_with(&self, prefix: &str, namer: impl Fn(u32) -> String) -> String {
        let mut out = String::new();
        for (stack, &w) in &self.weights {
            if !prefix.is_empty() {
                out.push_str(prefix);
                out.push(';');
            }
            if stack.is_empty() {
                out.push_str("(root)");
            } else {
                for (i, f) in stack.iter().enumerate() {
                    if i > 0 {
                        out.push(';');
                    }
                    out.push_str(&f.render(&namer));
                }
            }
            out.push(' ');
            out.push_str(&w.to_string());
            out.push('\n');
        }
        out
    }

    /// [`FlameProfiler::collapsed_with`] with the default `state<id>`
    /// names and no prefix.
    pub fn collapsed(&self) -> String {
        self.collapsed_with("", default_namer)
    }

    /// The `k` stacks with the most self weight, descending (ties broken
    /// by stack order), rendered with `namer`.
    pub fn top_self(&self, k: usize, namer: impl Fn(u32) -> String) -> Vec<(String, u64)> {
        let mut ranked: Vec<(&Vec<Frame>, u64)> =
            self.weights.iter().map(|(s, &w)| (s, w)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        ranked.truncate(k);
        ranked
            .into_iter()
            .map(|(stack, w)| {
                let name = if stack.is_empty() {
                    "(root)".to_owned()
                } else {
                    stack
                        .iter()
                        .map(|f| f.render(&namer))
                        .collect::<Vec<_>>()
                        .join(";")
                };
                (name, w)
            })
            .collect()
    }
}

impl Collector for FlameProfiler {
    fn chain_enter(&mut self, _node: u64, state: u32, _depth: u32) {
        self.stack.push(Frame::Chain(state));
    }

    fn chain_exit(&mut self, _halt: HaltKind, _depth: u32) {
        // Pop through any dangling atp frames to the chain's own.
        while let Some(f) = self.stack.pop() {
            if matches!(f, Frame::Chain(_)) {
                break;
            }
        }
    }

    fn step(&mut self, _node: u64, _state: u32, _depth: u32) {
        self.bump(self.stack.clone());
    }

    fn atp_enter(&mut self, _node: u64, _fanout: usize, _depth: u32) {
        self.stack.push(Frame::Atp);
    }

    fn atp_exit(&mut self, _depth: u32) {
        if self.stack.last() == Some(&Frame::Atp) {
            self.stack.pop();
        }
    }

    fn fo_eval(&mut self, kind: FoEval) {
        let mut stack = self.stack.clone();
        stack.push(Frame::Fo(kind));
        self.bump(stack);
    }
}

/// One hook call retained by a [`Tail`], with the hook's arguments in
/// order.
#[derive(Debug, Clone, Copy)]
enum Entry {
    ChainEnter(u64, u32, u32),
    ChainExit(HaltKind, u32),
    Step(u64, u32, u32),
    AtpEnter(u64, usize, u32),
    AtpExit(u32),
    Fo(FoEval),
    Phase(&'static str, u64),
}

impl Entry {
    /// One human-readable line, indented by span depth.
    fn render(&self) -> String {
        let indent = |depth: u32| "  ".repeat(depth as usize);
        match *self {
            Entry::ChainEnter(node, state, depth) => {
                format!("{}> chain @ node {node}, state {state}", indent(depth))
            }
            Entry::ChainExit(halt, depth) => format!("{}< chain: {}", indent(depth), halt.name()),
            Entry::Step(node, state, depth) => {
                format!("{}. step @ node {node}, state {state}", indent(depth))
            }
            Entry::AtpEnter(node, fanout, depth) => {
                format!("{}> atp @ node {node}, fanout {fanout}", indent(depth))
            }
            Entry::AtpExit(depth) => format!("{}< atp", indent(depth)),
            Entry::Fo(kind) => format!("# fo {}", kind.name()),
            Entry::Phase(name, nanos) => format!("# phase {name}: {nanos} ns"),
        }
    }
}

/// Keeps only the last `capacity` chain, step, `atp`, FO and phase hook
/// calls, and counts the ones that fell out of the window.
/// Entries are `Copy`, so retaining the tail of a multi-million-step run
/// costs no allocation per hook.
#[derive(Debug)]
pub struct Tail {
    capacity: usize,
    buf: VecDeque<Entry>,
    dropped: u64,
}

impl Tail {
    /// A tail holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tail {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many entries fell out of the window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained tail as a human-readable post-mortem, oldest first,
    /// one line per entry.
    pub fn post_mortem(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!("… {} earlier events dropped\n", self.dropped));
        }
        for e in &self.buf {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    fn push(&mut self, e: Entry) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(e);
    }
}

impl Collector for Tail {
    fn chain_enter(&mut self, node: u64, state: u32, depth: u32) {
        self.push(Entry::ChainEnter(node, state, depth));
    }

    fn chain_exit(&mut self, halt: HaltKind, depth: u32) {
        self.push(Entry::ChainExit(halt, depth));
    }

    fn step(&mut self, node: u64, state: u32, depth: u32) {
        self.push(Entry::Step(node, state, depth));
    }

    fn atp_enter(&mut self, node: u64, fanout: usize, depth: u32) {
        self.push(Entry::AtpEnter(node, fanout, depth));
    }

    fn atp_exit(&mut self, depth: u32) {
        self.push(Entry::AtpExit(depth));
    }

    fn fo_eval(&mut self, kind: FoEval) {
        self.push(Entry::Fo(kind));
    }

    fn phase(&mut self, name: &'static str, nanos: u64) {
        self.push(Entry::Phase(name, nanos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic run: 2 steps in the main chain, an atp spawning one
    /// subchain with 1 step and an FO guard check, then 1 more main step.
    fn drive<C: Collector>(c: &mut C) {
        c.chain_enter(0, 0, 0);
        c.step(0, 0, 0);
        c.step(1, 0, 0);
        c.atp_enter(1, 1, 0);
        c.chain_enter(2, 3, 1);
        c.step(2, 3, 1);
        c.fo_eval(FoEval::Guard);
        c.chain_exit(HaltKind::Accept, 1);
        c.atp_exit(0);
        c.step(1, 1, 0);
        c.phase("run", 42);
        c.chain_exit(HaltKind::Stuck, 0);
    }

    #[test]
    fn collapsed_stacks_attribute_self_time() {
        let mut p = FlameProfiler::new();
        drive(&mut p);
        assert_eq!(p.total_weight(), 5);
        let out = p.collapsed();
        assert_eq!(
            out,
            "state0 3\nstate0;atp;state3 1\nstate0;atp;state3;fo_guard 1\n"
        );
    }

    #[test]
    fn prefix_and_namer() {
        let mut p = FlameProfiler::new();
        drive(&mut p);
        let out = p.collapsed_with("E1", |q| format!("q{q}"));
        assert!(out.starts_with("E1;q0 3\n"), "{out}");
        assert!(out.contains("E1;q0;atp;q3;fo_guard 1"), "{out}");
    }

    #[test]
    fn top_self_ranks() {
        let mut p = FlameProfiler::new();
        drive(&mut p);
        let top = p.top_self(2, default_namer);
        assert_eq!(top[0], ("state0".to_owned(), 3));
        assert_eq!(top[1].1, 1);
        assert_eq!(p.top_self(10, default_namer).len(), 3);
    }

    #[test]
    fn stack_is_balanced_after_a_run() {
        let mut p = FlameProfiler::new();
        drive(&mut p);
        assert!(p.stack.is_empty(), "chain/atp spans must balance");
        // A second run folds into the same profile.
        drive(&mut p);
        assert_eq!(p.total_weight(), 10);
    }

    #[test]
    fn tail_keeps_the_last_entries() {
        let mut t = Tail::new(4);
        drive(&mut t);
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 8);
        assert_eq!(
            t.post_mortem(),
            "… 8 earlier events dropped\n\
             < atp\n\
             . step @ node 1, state 1\n\
             # phase run: 42 ns\n\
             < chain: stuck\n"
        );
    }

    #[test]
    fn tail_renders_every_entry_kind() {
        let mut t = Tail::new(16);
        drive(&mut t);
        assert_eq!(t.dropped(), 0);
        let pm = t.post_mortem();
        for line in [
            "> chain @ node 0, state 0",
            "  > chain @ node 2, state 3",
            "> atp @ node 1, fanout 1",
            "  . step @ node 2, state 3",
            "# fo guard",
            "  < chain: accept",
        ] {
            assert!(pm.lines().any(|l| l == line), "{line:?} missing from {pm}");
        }
    }
}
