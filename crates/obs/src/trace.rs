//! Causal run traces: every run reconstructed as a span tree.
//!
//! A [`Trace`] records one evaluator run as a tree of [`Span`]s. Each span
//! is addressed by a *causal ID* — the ordinal path from the root
//! (`r`, `r.0`, `r.0.2`, …) — which depends only on the order the
//! evaluator opened spans, never on worker scheduling: a single run is
//! always recorded on one thread, and batch traces are merged in item
//! index order (the `twq-exec::Pool::scoped` contract), so `--jobs 1`
//! and `--jobs N` produce byte-identical traces.
//!
//! Spans carry semantic provenance beyond structure: the walk path
//! through the engine (`steps`), atp look-ahead subtree verdicts, FO
//! quantifier witness valuations (`witness`), xpath axis-step node
//! frontiers (`frontier`), and guard-trip context (`note`).
//!
//! [`diff`] aligns two traces of the same (program, tree) pair in
//! preorder and pinpoints the first divergent span as a [`Divergence`] —
//! the machine-readable payload the fuzz oracle embeds in repros.

use crate::collect::Collector;
use crate::event::HaltKind;
use crate::json::Json;

/// Default cap on attached spans per trace.
pub const DEFAULT_MAX_SPANS: usize = 1 << 16;
/// Default cap on recorded walk steps per span.
pub const DEFAULT_MAX_STEPS_PER_SPAN: usize = 1 << 12;

/// What a span represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole run (always the root).
    Run,
    /// A deterministic merge of per-item runs (batch root).
    Batch,
    /// One computation chain (depth 0 = the main computation).
    Chain {
        /// atp nesting depth.
        depth: u32,
        /// Start node.
        node: u64,
        /// Start state.
        state: u32,
    },
    /// An `atp` look-ahead over its selected subtree roots.
    Atp {
        /// The node the look-ahead was issued at.
        node: u64,
        /// Number of selected nodes.
        fanout: u32,
    },
    /// An FO quantifier evaluation.
    Quant {
        /// `true` for `∃`, `false` for `∀`.
        exists: bool,
        /// The variable slot being bound.
        var: u32,
    },
    /// An xpath axis step.
    Axis {
        /// Axis kind name (`child`, `descendant`, …).
        axis: String,
    },
    /// A resource-guard trip (leaf; `note` carries the reason).
    Trip,
}

impl SpanKind {
    fn name(&self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Batch => "batch",
            SpanKind::Chain { .. } => "chain",
            SpanKind::Atp { .. } => "atp",
            SpanKind::Quant { .. } => "quant",
            SpanKind::Axis { .. } => "axis",
            SpanKind::Trip => "trip",
        }
    }
}

/// How a span (or a whole trace) resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// An engine halt.
    Halt(HaltKind),
    /// A boolean outcome (FO truth, routed acceptance).
    Bool(bool),
    /// A resource guard tripped before a verdict.
    Trip,
}

impl Verdict {
    /// The acceptance this verdict implies, if it implies one.
    pub fn accepted(&self) -> Option<bool> {
        match self {
            Verdict::Halt(h) => Some(h.accepted()),
            Verdict::Bool(b) => Some(*b),
            Verdict::Trip => None,
        }
    }

    /// Whether two verdicts agree. Same-variant verdicts must be equal;
    /// a halt and a boolean agree iff they imply the same acceptance;
    /// a trip agrees only with a trip.
    pub fn agrees(&self, other: &Verdict) -> bool {
        match (self, other) {
            (Verdict::Halt(a), Verdict::Halt(b)) => a == b,
            (Verdict::Bool(a), Verdict::Bool(b)) => a == b,
            (Verdict::Trip, Verdict::Trip) => true,
            (Verdict::Trip, _) | (_, Verdict::Trip) => false,
            (a, b) => a.accepted() == b.accepted(),
        }
    }

    fn render(&self) -> String {
        match self {
            Verdict::Halt(h) => format!("halt={}", h.name()),
            Verdict::Bool(b) => format!("{b}"),
            Verdict::Trip => "trip".to_owned(),
        }
    }
}

/// One node of a trace: what happened, how it resolved, and its causal
/// children in the order the evaluator spawned them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What this span represents.
    pub kind: SpanKind,
    /// How it resolved (`None` for pure-structure spans like `Atp`).
    pub verdict: Option<Verdict>,
    /// The node whose binding decided a quantifier (witness for a true
    /// `∃`, counterexample for a false `∀`).
    pub witness: Option<u64>,
    /// The walk path `(node, state)` taken inside this span, capped at
    /// the collector's per-span step limit.
    pub steps: Vec<(u64, u32)>,
    /// Steps not recorded because the per-span cap was hit.
    pub steps_dropped: u64,
    /// Node frontier this span produced (atp selection, axis result).
    pub frontier: Vec<u64>,
    /// Free-form context (trip reason, batch item label).
    pub note: String,
    /// Child spans, in causal order.
    pub children: Vec<Span>,
}

impl Span {
    fn new(kind: SpanKind) -> Span {
        Span {
            kind,
            verdict: None,
            witness: None,
            steps: Vec::new(),
            steps_dropped: 0,
            frontier: Vec::new(),
            note: String::new(),
            children: Vec::new(),
        }
    }

    /// Total spans in this subtree (including `self`).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Span::size).sum::<usize>()
    }

    /// One-line rendering of the span head (no children).
    pub fn head(&self) -> String {
        self.head_with(&Namer::plain())
    }

    fn head_with(&self, namer: &Namer) -> String {
        let mut s = match &self.kind {
            SpanKind::Run => "run".to_owned(),
            SpanKind::Batch => format!("batch of {}", self.children.len()),
            SpanKind::Chain { depth, node, state } => format!(
                "chain d{depth} start=({}, {})",
                (namer.node)(*node),
                (namer.state)(*state)
            ),
            SpanKind::Atp { node, fanout } => {
                format!("atp @{} fanout={fanout}", (namer.node)(*node))
            }
            SpanKind::Quant { exists, var } => {
                format!("{}x{var}", if *exists { "∃" } else { "∀" })
            }
            SpanKind::Axis { axis } => format!("axis {axis}"),
            SpanKind::Trip => "trip".to_owned(),
        };
        if !self.steps.is_empty() {
            let total = self.steps.len() as u64 + self.steps_dropped;
            s.push_str(&format!(" [{total} step(s)]"));
        }
        if let Some(v) = &self.verdict {
            s.push_str(&format!(" → {}", v.render()));
        }
        if let Some(w) = self.witness {
            s.push_str(&format!(" witness={}", (namer.node)(w)));
        }
        if !self.frontier.is_empty() {
            let shown: Vec<String> = self
                .frontier
                .iter()
                .take(8)
                .map(|n| (namer.node)(*n))
                .collect();
            let ell = if self.frontier.len() > 8 { ", …" } else { "" };
            s.push_str(&format!(" frontier=[{}{}]", shown.join(","), ell));
        }
        if !self.note.is_empty() {
            s.push_str(&format!(" ({})", self.note));
        }
        s
    }

    fn to_json(&self) -> Json {
        let mut fields: Vec<(&'static str, Json)> = vec![("k", Json::str(self.kind.name()))];
        match &self.kind {
            SpanKind::Chain { depth, node, state } => {
                fields.push(("depth", Json::from(*depth)));
                fields.push(("node", Json::from(*node)));
                fields.push(("state", Json::from(*state)));
            }
            SpanKind::Atp { node, fanout } => {
                fields.push(("node", Json::from(*node)));
                fields.push(("fanout", Json::from(*fanout)));
            }
            SpanKind::Quant { exists, var } => {
                fields.push(("exists", Json::from(*exists)));
                fields.push(("var", Json::from(*var)));
            }
            SpanKind::Axis { axis } => fields.push(("axis", Json::str(axis.as_str()))),
            SpanKind::Run | SpanKind::Batch | SpanKind::Trip => {}
        }
        match &self.verdict {
            Some(Verdict::Halt(h)) => fields.push(("halt", Json::str(h.name()))),
            Some(Verdict::Bool(b)) => fields.push(("bool", Json::from(*b))),
            Some(Verdict::Trip) => fields.push(("tripped", Json::from(true))),
            None => {}
        }
        if let Some(w) = self.witness {
            fields.push(("witness", Json::from(w)));
        }
        if !self.steps.is_empty() {
            let steps: Vec<Json> = self
                .steps
                .iter()
                .flat_map(|(n, q)| [Json::from(*n), Json::from(*q)])
                .collect();
            fields.push(("steps", Json::Arr(steps)));
        }
        if self.steps_dropped > 0 {
            fields.push(("steps_dropped", Json::from(self.steps_dropped)));
        }
        if !self.frontier.is_empty() {
            let fr: Vec<Json> = self.frontier.iter().map(|n| Json::from(*n)).collect();
            fields.push(("frontier", Json::Arr(fr)));
        }
        if !self.note.is_empty() {
            fields.push(("note", Json::str(self.note.as_str())));
        }
        if !self.children.is_empty() {
            fields.push((
                "spans",
                Json::Arr(self.children.iter().map(Span::to_json).collect()),
            ));
        }
        Json::obj(fields)
    }

    fn from_json(j: &Json) -> Result<Span, String> {
        let kind_name = j
            .get("k")
            .and_then(Json::as_str)
            .ok_or_else(|| "span missing \"k\"".to_owned())?;
        let u64_field = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_i64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("{kind_name} span missing {key:?}"))
        };
        let kind = match kind_name {
            "run" => SpanKind::Run,
            "batch" => SpanKind::Batch,
            "chain" => SpanKind::Chain {
                depth: u64_field("depth")? as u32,
                node: u64_field("node")?,
                state: u64_field("state")? as u32,
            },
            "atp" => SpanKind::Atp {
                node: u64_field("node")?,
                fanout: u64_field("fanout")? as u32,
            },
            "quant" => SpanKind::Quant {
                exists: j.get("exists").and_then(Json::as_bool).unwrap_or(true),
                var: u64_field("var")? as u32,
            },
            "axis" => SpanKind::Axis {
                axis: j
                    .get("axis")
                    .and_then(Json::as_str)
                    .ok_or("axis span missing \"axis\"")?
                    .to_owned(),
            },
            "trip" => SpanKind::Trip,
            other => return Err(format!("unknown span kind {other:?}")),
        };
        let verdict = if let Some(h) = j.get("halt").and_then(Json::as_str) {
            Some(Verdict::Halt(halt_from_name(h)?))
        } else if let Some(b) = j.get("bool").and_then(Json::as_bool) {
            Some(Verdict::Bool(b))
        } else if j.get("tripped").and_then(Json::as_bool) == Some(true) {
            Some(Verdict::Trip)
        } else {
            None
        };
        let mut span = Span::new(kind);
        span.verdict = verdict;
        span.witness = j.get("witness").and_then(Json::as_i64).map(|v| v as u64);
        if let Some(arr) = j.get("steps").and_then(Json::as_arr) {
            if arr.len() % 2 != 0 {
                return Err("span \"steps\" must have even length".to_owned());
            }
            span.steps = arr
                .chunks(2)
                .map(|c| {
                    let n = c[0].as_i64().ok_or("non-integer step node")? as u64;
                    let q = c[1].as_i64().ok_or("non-integer step state")? as u32;
                    Ok((n, q))
                })
                .collect::<Result<_, String>>()?;
        }
        span.steps_dropped = j.get("steps_dropped").and_then(Json::as_i64).unwrap_or(0) as u64;
        if let Some(arr) = j.get("frontier").and_then(Json::as_arr) {
            span.frontier = arr
                .iter()
                .map(|v| {
                    v.as_i64()
                        .map(|n| n as u64)
                        .ok_or("non-integer frontier node")
                })
                .collect::<Result<_, _>>()?;
        }
        span.note = j
            .get("note")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        if let Some(arr) = j.get("spans").and_then(Json::as_arr) {
            span.children = arr.iter().map(Span::from_json).collect::<Result<_, _>>()?;
        }
        Ok(span)
    }
}

fn halt_from_name(s: &str) -> Result<HaltKind, String> {
    Ok(match s {
        "accept" => HaltKind::Accept,
        "stuck" => HaltKind::Stuck,
        "cycle" => HaltKind::Cycle,
        "nondeterministic" => HaltKind::Nondeterministic,
        "sub_rejected" => HaltKind::SubRejected,
        "step_limit" => HaltKind::StepLimit,
        "atp_depth_limit" => HaltKind::AtpDepthLimit,
        "space_limit" => HaltKind::SpaceLimit,
        other => return Err(format!("unknown halt kind {other:?}")),
    })
}

/// How much of the run a trace captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDepth {
    /// The full span tree.
    Full,
    /// Only the root verdict (evaluators with no collector seam).
    VerdictOnly,
}

/// A recorded run: a labeled span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Which evaluator produced this trace (e.g. `run`, `run_in`).
    pub label: String,
    /// Capture depth.
    pub depth: TraceDepth,
    /// The root span (causal ID `r`).
    pub root: Span,
    /// Spans not attached because the trace-wide cap was hit.
    pub dropped_spans: u64,
}

impl Trace {
    /// A verdict-only trace for evaluators without a collector seam
    /// (e.g. the routed graph evaluator). Diffing against it compares
    /// root verdicts only.
    pub fn verdict_only(label: &str, verdict: Verdict, note: &str) -> Trace {
        let mut root = Span::new(SpanKind::Run);
        root.verdict = Some(verdict);
        root.note = note.to_owned();
        Trace {
            label: label.to_owned(),
            depth: TraceDepth::VerdictOnly,
            root,
            dropped_spans: 0,
        }
    }

    /// Merge per-item traces into one batch trace, in item index order.
    /// Callers must pass `items` positionally — `Pool::scoped` already
    /// returns results in index order, so batch traces are identical
    /// for any worker count.
    pub fn merge_batch(label: &str, items: Vec<Trace>) -> Trace {
        let mut root = Span::new(SpanKind::Batch);
        let mut dropped = 0;
        for (i, item) in items.into_iter().enumerate() {
            dropped += item.dropped_spans;
            let mut child = item.root;
            child.note = if item.label.is_empty() {
                format!("item {i}")
            } else {
                format!("item {i}: {}", item.label)
            };
            root.children.push(child);
        }
        Trace {
            label: label.to_owned(),
            depth: TraceDepth::Full,
            root,
            dropped_spans: dropped,
        }
    }

    /// The trace's overall verdict (the root span's).
    pub fn verdict(&self) -> Option<Verdict> {
        self.root.verdict
    }

    /// Total spans recorded.
    pub fn size(&self) -> usize {
        self.root.size()
    }

    /// Serialize to a [`Json`] value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label.as_str())),
            (
                "depth",
                Json::str(match self.depth {
                    TraceDepth::Full => "full",
                    TraceDepth::VerdictOnly => "verdict",
                }),
            ),
            ("dropped_spans", Json::from(self.dropped_spans)),
            ("root", self.root.to_json()),
        ])
    }

    /// Serialize to one JSONL line.
    pub fn to_json_line(&self) -> String {
        self.to_json().render()
    }

    /// Parse a trace from a [`Json`] value.
    pub fn from_json(j: &Json) -> Result<Trace, String> {
        let label = j
            .get("label")
            .and_then(Json::as_str)
            .ok_or("trace missing \"label\"")?
            .to_owned();
        let depth = match j.get("depth").and_then(Json::as_str) {
            Some("verdict") => TraceDepth::VerdictOnly,
            _ => TraceDepth::Full,
        };
        let root = Span::from_json(j.get("root").ok_or("trace missing \"root\"")?)?;
        Ok(Trace {
            label,
            depth,
            root,
            dropped_spans: j.get("dropped_spans").and_then(Json::as_i64).unwrap_or(0) as u64,
        })
    }

    /// Parse one JSONL line.
    pub fn from_json_line(line: &str) -> Result<Trace, String> {
        Trace::from_json(&Json::parse(line).map_err(|e| e.to_string())?)
    }

    /// Render the trace as an indented walk transcript with causal IDs.
    pub fn render(&self) -> String {
        self.render_with(&Namer::plain())
    }

    /// Render with domain names for states and nodes.
    pub fn render_with(&self, namer: &Namer) -> String {
        let mut out = String::new();
        out.push_str(&format!("trace {} ({} span(s)", self.label, self.size()));
        if self.dropped_spans > 0 {
            out.push_str(&format!(", {} dropped", self.dropped_spans));
        }
        out.push_str(")\n");
        render_span(&self.root, "r", 0, namer, &mut out);
        out
    }
}

/// Maps raw state/node IDs to human names when rendering transcripts.
pub struct Namer<'a> {
    /// State ID → name.
    pub state: &'a dyn Fn(u32) -> String,
    /// Node ID → label.
    pub node: &'a dyn Fn(u64) -> String,
}

impl Namer<'_> {
    /// Identity namer: `q3` / `n7`.
    pub fn plain() -> Namer<'static> {
        Namer {
            state: &|q| format!("q{q}"),
            node: &|n| format!("n{n}"),
        }
    }
}

impl std::fmt::Debug for Namer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Namer")
    }
}

fn render_span(sp: &Span, id: &str, indent: usize, namer: &Namer, out: &mut String) {
    let pad = "  ".repeat(indent);
    out.push_str(&format!("{pad}{id} {}\n", sp.head_with(namer)));
    if !sp.steps.is_empty() {
        let shown: Vec<String> = sp
            .steps
            .iter()
            .take(24)
            .map(|(n, q)| format!("({}, {})", (namer.node)(*n), (namer.state)(*q)))
            .collect();
        let mut walk = shown.join(" → ");
        let hidden = sp.steps.len().saturating_sub(24) as u64 + sp.steps_dropped;
        if hidden > 0 {
            walk.push_str(&format!(" → … (+{hidden} more)"));
        }
        out.push_str(&format!("{pad}    walk: {walk}\n"));
    }
    for (i, child) in sp.children.iter().enumerate() {
        render_span(child, &format!("{id}.{i}"), indent + 1, namer, out);
    }
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// A [`Collector`] that records the run as a span tree.
///
/// Recording is bounded: at most `max_spans` spans are attached per trace
/// and at most `max_steps_per_span` walk steps per span; overflow is
/// counted in [`Trace::dropped_spans`] / [`Span::steps_dropped`] rather
/// than growing without bound. The caps are fixed per collector, so
/// recording stays deterministic.
#[derive(Debug)]
pub struct TraceCollector {
    stack: Vec<Span>,
    attached: usize,
    dropped: u64,
    max_spans: usize,
    max_steps_per_span: usize,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// A collector with the default caps.
    pub fn new() -> TraceCollector {
        TraceCollector::with_caps(DEFAULT_MAX_SPANS, DEFAULT_MAX_STEPS_PER_SPAN)
    }

    /// A collector with explicit caps.
    pub fn with_caps(max_spans: usize, max_steps_per_span: usize) -> TraceCollector {
        TraceCollector {
            stack: vec![Span::new(SpanKind::Run)],
            attached: 0,
            dropped: 0,
            max_spans,
            max_steps_per_span,
        }
    }

    fn open(&mut self, kind: SpanKind) {
        self.stack.push(Span::new(kind));
    }

    fn close(&mut self, verdict: Option<Verdict>) {
        if self.stack.len() <= 1 {
            return; // unbalanced close; keep the root
        }
        let mut sp = self.stack.pop().expect("non-empty stack");
        if sp.verdict.is_none() {
            sp.verdict = verdict;
        }
        self.attach(sp);
    }

    fn attach(&mut self, sp: Span) {
        if self.attached >= self.max_spans {
            self.dropped += sp.size() as u64;
            return;
        }
        self.attached += 1;
        self.current().children.push(sp);
    }

    fn current(&mut self) -> &mut Span {
        self.stack.last_mut().expect("non-empty stack")
    }

    /// Finish recording and return the trace.
    pub fn finish(mut self, label: &str) -> Trace {
        // Close any spans an early return left open (e.g. a guard trip
        // mid-walk); they keep whatever verdict they already had.
        while self.stack.len() > 1 {
            self.close(None);
        }
        Trace {
            label: label.to_owned(),
            depth: TraceDepth::Full,
            root: self.stack.pop().expect("root span"),
            dropped_spans: self.dropped,
        }
    }
}

impl Collector for TraceCollector {
    fn chain_enter(&mut self, node: u64, state: u32, depth: u32) {
        self.open(SpanKind::Chain { depth, node, state });
    }

    fn chain_exit(&mut self, halt: HaltKind, _depth: u32) {
        self.close(Some(Verdict::Halt(halt)));
    }

    fn step(&mut self, node: u64, state: u32, _depth: u32) {
        let cap = self.max_steps_per_span;
        let sp = self.current();
        if sp.steps.len() < cap {
            sp.steps.push((node, state));
        } else {
            sp.steps_dropped += 1;
        }
    }

    fn atp_enter(&mut self, node: u64, fanout: usize, _depth: u32) {
        self.open(SpanKind::Atp {
            node,
            fanout: u32::try_from(fanout).unwrap_or(u32::MAX),
        });
    }

    fn atp_exit(&mut self, _depth: u32) {
        self.close(None);
    }

    fn quant_enter(&mut self, exists: bool, var: u32) {
        self.open(SpanKind::Quant { exists, var });
    }

    fn quant_exit(&mut self, holds: bool, witness: Option<u64>) {
        self.current().witness = witness;
        self.close(Some(Verdict::Bool(holds)));
    }

    fn axis_enter(&mut self, axis: &'static str) {
        self.open(SpanKind::Axis {
            axis: axis.to_owned(),
        });
    }

    fn axis_exit(&mut self, frontier: &[u64]) {
        self.current().frontier = frontier.to_vec();
        self.close(None);
    }

    fn selected(&mut self, nodes: &[u64]) {
        self.current().frontier.extend_from_slice(nodes);
    }

    fn trip(&mut self, reason: &str) {
        let mut sp = Span::new(SpanKind::Trip);
        sp.verdict = Some(Verdict::Trip);
        sp.note = reason.to_owned();
        self.attach(sp);
    }

    fn halt(&mut self, halt: HaltKind) {
        // The run's overall verdict lands on the root span.
        self.stack[0].verdict = Some(Verdict::Halt(halt));
    }
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// The first point two traces of the same (program, tree) pair disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Causal ID of the first divergent span (`r`, `r.0.2`, …).
    pub at: String,
    /// Label of the left trace.
    pub left_label: String,
    /// Label of the right trace.
    pub right_label: String,
    /// One-line rendering of the left span (or "absent").
    pub left: String,
    /// One-line rendering of the right span (or "absent").
    pub right: String,
    /// The left span's acceptance at the divergence, if it implies one.
    pub left_accepted: Option<bool>,
    /// The right span's acceptance at the divergence, if it implies one.
    pub right_accepted: Option<bool>,
    /// What differed (verdict, structure, walk, …).
    pub note: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first divergence at {}: {} [{}] vs {} [{}] ({})",
            self.at, self.left_label, self.left, self.right_label, self.right, self.note
        )
    }
}

impl Divergence {
    /// Serialize to a [`Json`] value (embedded in fuzz repros).
    pub fn to_json(&self) -> Json {
        let acc = |a: Option<bool>| match a {
            Some(b) => Json::from(b),
            None => Json::Null,
        };
        Json::obj([
            ("at", Json::str(self.at.as_str())),
            ("left_label", Json::str(self.left_label.as_str())),
            ("right_label", Json::str(self.right_label.as_str())),
            ("left", Json::str(self.left.as_str())),
            ("right", Json::str(self.right.as_str())),
            ("left_accepted", acc(self.left_accepted)),
            ("right_accepted", acc(self.right_accepted)),
            ("note", Json::str(self.note.as_str())),
        ])
    }

    /// Parse from a [`Json`] value.
    pub fn from_json(j: &Json) -> Result<Divergence, String> {
        let s = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("divergence missing {key:?}"))
        };
        Ok(Divergence {
            at: s("at")?,
            left_label: s("left_label")?,
            right_label: s("right_label")?,
            left: s("left")?,
            right: s("right")?,
            left_accepted: j.get("left_accepted").and_then(Json::as_bool),
            right_accepted: j.get("right_accepted").and_then(Json::as_bool),
            note: s("note")?,
        })
    }
}

/// Align two traces of the same input and return the first divergent
/// span, or `None` if they agree. Spans are compared in preorder: a
/// span's own head (kind, verdict, witness, walk, frontier) is compared
/// before its children, and a missing/extra child is itself a
/// divergence. If either trace is [`TraceDepth::VerdictOnly`], only the
/// root verdicts are compared.
pub fn diff(a: &Trace, b: &Trace) -> Option<Divergence> {
    if a.depth == TraceDepth::VerdictOnly || b.depth == TraceDepth::VerdictOnly {
        let va = a.root.verdict;
        let vb = b.root.verdict;
        let agree = match (va, vb) {
            (Some(x), Some(y)) => x.agrees(&y),
            (None, None) => true,
            _ => false,
        };
        if agree {
            return None;
        }
        return Some(Divergence {
            at: "r".to_owned(),
            left_label: a.label.clone(),
            right_label: b.label.clone(),
            left: a.root.head(),
            right: b.root.head(),
            left_accepted: va.and_then(|v| v.accepted()),
            right_accepted: vb.and_then(|v| v.accepted()),
            note: "verdict mismatch".to_owned(),
        });
    }
    diff_span(&a.root, &b.root, "r", &a.label, &b.label)
}

fn verdicts_disagree(a: &Span, b: &Span) -> bool {
    match (&a.verdict, &b.verdict) {
        (Some(x), Some(y)) => !x.agrees(y),
        (None, None) => false,
        _ => true,
    }
}

fn diff_span(a: &Span, b: &Span, id: &str, la: &str, lb: &str) -> Option<Divergence> {
    let mismatch = |note: &str| {
        Some(Divergence {
            at: id.to_owned(),
            left_label: la.to_owned(),
            right_label: lb.to_owned(),
            left: a.head(),
            right: b.head(),
            left_accepted: a.verdict.and_then(|v| v.accepted()),
            right_accepted: b.verdict.and_then(|v| v.accepted()),
            note: note.to_owned(),
        })
    };
    if a.kind != b.kind {
        return mismatch("span kind mismatch");
    }
    if verdicts_disagree(a, b) {
        return mismatch("verdict mismatch");
    }
    if a.witness != b.witness {
        return mismatch("witness mismatch");
    }
    if a.steps != b.steps || a.steps_dropped != b.steps_dropped {
        return mismatch("walk path mismatch");
    }
    if a.frontier != b.frontier {
        return mismatch("frontier mismatch");
    }
    for i in 0..a.children.len().max(b.children.len()) {
        let child_id = format!("{id}.{i}");
        match (a.children.get(i), b.children.get(i)) {
            (Some(ca), Some(cb)) => {
                if let Some(d) = diff_span(ca, cb, &child_id, la, lb) {
                    return Some(d);
                }
            }
            (Some(ca), None) => {
                return Some(Divergence {
                    at: child_id,
                    left_label: la.to_owned(),
                    right_label: lb.to_owned(),
                    left: ca.head(),
                    right: "absent".to_owned(),
                    left_accepted: ca.verdict.and_then(|v| v.accepted()),
                    right_accepted: None,
                    note: "span only on the left".to_owned(),
                });
            }
            (None, Some(cb)) => {
                return Some(Divergence {
                    at: child_id,
                    left_label: la.to_owned(),
                    right_label: lb.to_owned(),
                    left: "absent".to_owned(),
                    right: cb.head(),
                    left_accepted: None,
                    right_accepted: cb.verdict.and_then(|v| v.accepted()),
                    note: "span only on the right".to_owned(),
                });
            }
            (None, None) => unreachable!(),
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Explanation
// ---------------------------------------------------------------------------

/// Answer "why accepted / why rejected" from a trace's witnesses: the
/// root verdict plus the decisive evidence found in the span tree — the
/// accepting walk, the first rejecting chain, quantifier witnesses and
/// counterexamples, and any guard trips.
pub fn explain_verdict(trace: &Trace, namer: &Namer) -> String {
    let mut out = String::new();
    let verdict = trace.verdict();
    match verdict {
        Some(v) => out.push_str(&format!("{}: {}\n", trace.label, v.render())),
        None => out.push_str(&format!("{}: no verdict recorded\n", trace.label)),
    }
    let accepted = verdict.and_then(|v| v.accepted());
    let mut lines = Vec::new();
    collect_evidence(&trace.root, "r", accepted, namer, &mut lines);
    if lines.is_empty() {
        lines.push("  (no decisive span recorded)".to_owned());
    }
    for l in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

fn collect_evidence(
    sp: &Span,
    id: &str,
    accepted: Option<bool>,
    namer: &Namer,
    out: &mut Vec<String>,
) {
    match &sp.kind {
        SpanKind::Chain { depth, .. } => {
            let rejecting = matches!(sp.verdict, Some(Verdict::Halt(h)) if h != HaltKind::Accept);
            let decisive = match accepted {
                Some(true) => *depth == 0 && !rejecting,
                _ => rejecting,
            };
            if decisive {
                if let Some((n, q)) = sp.steps.last() {
                    out.push(format!(
                        "  {id} {}: ended at ({}, {})",
                        sp.head_with(namer),
                        (namer.node)(*n),
                        (namer.state)(*q),
                    ));
                } else {
                    out.push(format!("  {id} {}", sp.head_with(namer)));
                }
                // For a rejection, the first rejecting chain suffices.
                if accepted != Some(true) {
                    return;
                }
            }
        }
        SpanKind::Quant { exists, var } => {
            if let (Some(Verdict::Bool(holds)), Some(w)) = (&sp.verdict, sp.witness) {
                let role = if *exists == *holds {
                    "witness"
                } else {
                    "counterexample"
                };
                out.push(format!(
                    "  {id} {}x{var} = {} by {} {}",
                    if *exists { "∃" } else { "∀" },
                    holds,
                    role,
                    (namer.node)(w),
                ));
            }
        }
        SpanKind::Trip => {
            out.push(format!("  {id} guard trip: {}", sp.note));
        }
        _ => {}
    }
    for (i, child) in sp.children.iter().enumerate() {
        collect_evidence(child, &format!("{id}.{i}"), accepted, namer, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_collector() -> TraceCollector {
        let mut c = TraceCollector::new();
        c.chain_enter(0, 0, 0);
        c.step(0, 0, 0);
        c.step(1, 1, 0);
        c.atp_enter(1, 2, 0);
        c.selected(&[3, 5]);
        c.chain_enter(3, 2, 1);
        c.step(3, 2, 1);
        c.chain_exit(HaltKind::Accept, 1);
        c.chain_enter(5, 2, 1);
        c.chain_exit(HaltKind::Accept, 1);
        c.atp_exit(0);
        c.chain_exit(HaltKind::Accept, 0);
        c.halt(HaltKind::Accept);
        c
    }

    #[test]
    fn records_a_nested_span_tree() {
        let t = sample_collector().finish("run");
        assert_eq!(t.verdict(), Some(Verdict::Halt(HaltKind::Accept)));
        assert_eq!(t.root.children.len(), 1);
        let chain = &t.root.children[0];
        assert!(matches!(chain.kind, SpanKind::Chain { depth: 0, .. }));
        assert_eq!(chain.steps, vec![(0, 0), (1, 1)]);
        let atp = &chain.children[0];
        assert!(matches!(atp.kind, SpanKind::Atp { fanout: 2, .. }));
        assert_eq!(atp.frontier, vec![3, 5]);
        assert_eq!(atp.children.len(), 2);
    }

    #[test]
    fn json_round_trips() {
        let t = sample_collector().finish("run");
        let line = t.to_json_line();
        let back = Trace::from_json_line(&line).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn diff_of_identical_traces_is_empty() {
        let a = sample_collector().finish("run");
        let b = sample_collector().finish("run_in");
        assert_eq!(diff(&a, &b), None);
    }

    #[test]
    fn diff_pinpoints_a_subtree_verdict_flip() {
        let a = sample_collector().finish("run");
        let mut b = sample_collector().finish("other");
        // Flip the second atp subtree chain's verdict.
        b.root.children[0].children[0].children[1].verdict = Some(Verdict::Halt(HaltKind::Stuck));
        let d = diff(&a, &b).expect("divergence");
        assert_eq!(d.at, "r.0.0.1");
        assert_eq!(d.note, "verdict mismatch");
        assert_eq!(d.left_accepted, Some(true));
        assert_eq!(d.right_accepted, Some(false));
    }

    #[test]
    fn diff_pinpoints_structural_divergence() {
        let a = sample_collector().finish("run");
        let mut b = sample_collector().finish("other");
        b.root.children[0].children[0].children.pop();
        let d = diff(&a, &b).expect("divergence");
        assert_eq!(d.at, "r.0.0.1");
        assert_eq!(d.right, "absent");
    }

    #[test]
    fn verdict_only_diff_compares_roots() {
        let full = sample_collector().finish("run");
        let same = Trace::verdict_only("routed", Verdict::Bool(true), "");
        assert_eq!(diff(&full, &same), None);
        let flipped = Trace::verdict_only("routed", Verdict::Bool(false), "evaluator=Graph");
        let d = diff(&full, &flipped).expect("divergence");
        assert_eq!(d.at, "r");
        assert_eq!(d.left_accepted, Some(true));
        assert_eq!(d.right_accepted, Some(false));
    }

    #[test]
    fn verdict_agreement_is_acceptance_based_across_variants() {
        assert!(Verdict::Halt(HaltKind::Accept).agrees(&Verdict::Bool(true)));
        assert!(Verdict::Halt(HaltKind::Stuck).agrees(&Verdict::Bool(false)));
        assert!(!Verdict::Halt(HaltKind::Accept).agrees(&Verdict::Bool(false)));
        assert!(!Verdict::Halt(HaltKind::Stuck).agrees(&Verdict::Halt(HaltKind::Cycle)));
        assert!(!Verdict::Trip.agrees(&Verdict::Bool(false)));
        assert!(Verdict::Trip.agrees(&Verdict::Trip));
    }

    #[test]
    fn quantifier_witnesses_are_recorded() {
        let mut c = TraceCollector::new();
        c.quant_enter(true, 0);
        c.quant_enter(true, 1);
        c.quant_exit(true, Some(4));
        c.quant_exit(true, Some(2));
        let t = c.finish("eval");
        let outer = &t.root.children[0];
        assert!(matches!(
            outer.kind,
            SpanKind::Quant {
                exists: true,
                var: 0
            }
        ));
        assert_eq!(outer.witness, Some(2));
        assert_eq!(outer.children[0].witness, Some(4));
    }

    #[test]
    fn trip_spans_attach_in_place() {
        let mut c = TraceCollector::new();
        c.chain_enter(0, 0, 0);
        c.step(0, 0, 0);
        c.trip("fuel budget exhausted (limit 10)");
        let t = c.finish("run_in");
        let chain = &t.root.children[0];
        let trip = &chain.children[0];
        assert!(matches!(trip.kind, SpanKind::Trip));
        assert_eq!(trip.verdict, Some(Verdict::Trip));
        assert!(trip.note.contains("fuel"));
    }

    #[test]
    fn span_cap_counts_dropped() {
        let mut c = TraceCollector::with_caps(2, 4);
        for _ in 0..5 {
            c.chain_enter(0, 0, 0);
            c.chain_exit(HaltKind::Accept, 0);
        }
        let t = c.finish("run");
        assert_eq!(t.root.children.len(), 2);
        assert_eq!(t.dropped_spans, 3);
    }

    #[test]
    fn step_cap_counts_dropped() {
        let mut c = TraceCollector::with_caps(16, 3);
        c.chain_enter(0, 0, 0);
        for i in 0..10 {
            c.step(i, 0, 0);
        }
        c.chain_exit(HaltKind::Accept, 0);
        let t = c.finish("run");
        let chain = &t.root.children[0];
        assert_eq!(chain.steps.len(), 3);
        assert_eq!(chain.steps_dropped, 7);
    }

    #[test]
    fn batch_merge_is_positional() {
        let items = vec![
            sample_collector().finish("a"),
            sample_collector().finish("b"),
        ];
        let t = Trace::merge_batch("batch", items);
        assert!(matches!(t.root.kind, SpanKind::Batch));
        assert_eq!(t.root.children.len(), 2);
        assert!(t.root.children[0].note.contains("item 0"));
        assert!(t.root.children[1].note.contains("item 1"));
        // Same per-item traces in the same order → identical merge.
        let again = Trace::merge_batch(
            "batch",
            vec![
                sample_collector().finish("a"),
                sample_collector().finish("b"),
            ],
        );
        assert_eq!(t.to_json_line(), again.to_json_line());
    }

    #[test]
    fn render_carries_causal_ids_and_walks() {
        let t = sample_collector().finish("run");
        let text = t.render();
        assert!(text.contains("r run"), "{text}");
        assert!(text.contains("r.0 chain d0"), "{text}");
        assert!(text.contains("r.0.0 atp"), "{text}");
        assert!(text.contains("walk: (n0, q0) → (n1, q1)"), "{text}");
    }

    #[test]
    fn explain_names_the_accepting_walk_and_witness() {
        let mut c = TraceCollector::new();
        c.quant_enter(true, 2);
        c.quant_exit(true, Some(7));
        let mut t = c.finish("eval_sentence");
        t.root.verdict = Some(Verdict::Bool(true));
        let text = explain_verdict(&t, &Namer::plain());
        assert!(text.contains("eval_sentence: true"), "{text}");
        assert!(text.contains("∃x2 = true by witness n7"), "{text}");
    }

    #[test]
    fn divergence_json_round_trips() {
        let d = Divergence {
            at: "r.0.1".to_owned(),
            left_label: "run".to_owned(),
            right_label: "run_routed".to_owned(),
            left: "chain d0 start=(n0, q0) → halt=accept".to_owned(),
            right: "absent".to_owned(),
            left_accepted: Some(true),
            right_accepted: None,
            note: "span only on the left".to_owned(),
        };
        let back = Divergence::from_json(&d.to_json()).unwrap();
        assert_eq!(d, back);
    }
}
