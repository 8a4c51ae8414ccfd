//! Spans recorded around each library call of a traced run.
//!
//! A span has a layer name, start and end (ns since the run began), its
//! parent span and the request it belongs to. Spans are kept in a Vec
//! allocated up front — once it is full, later spans are still
//! aggregated but not kept — and written as JSONL when the run ends.
//! Self time (a span's duration minus its children's) is aggregated per
//! layer as spans close, so every per-layer metric covers the whole
//! traced window. A request's own self time is the part of it no layer
//! span covers: `unattributed`.

use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// A layer, named after the crate whose public function the span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Root span of one request.
    Request,
    /// Root span of one set-up.
    Setup,
    ParseXml,
    XPathParse,
    ParseFo,
    Rewrite,
    Stream,
    Walk,
    IndexBuild,
    IndexPlan,
    IndexEval,
    FoSelect,
    AutomataRun,
}

const LAYERS: usize = 13;

impl Layer {
    const ALL: [Layer; LAYERS] = [
        Layer::Request,
        Layer::Setup,
        Layer::ParseXml,
        Layer::XPathParse,
        Layer::ParseFo,
        Layer::Rewrite,
        Layer::Stream,
        Layer::Walk,
        Layer::IndexBuild,
        Layer::IndexPlan,
        Layer::IndexEval,
        Layer::FoSelect,
        Layer::AutomataRun,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Setup => "setup",
            Layer::ParseXml => "tree.parse_xml",
            Layer::XPathParse => "xpath.parse",
            Layer::ParseFo => "logic.parse_fo",
            Layer::Rewrite => "rewrite.rewrite",
            Layer::Stream => "rewrite.stream",
            Layer::Walk => "xpath.walk",
            Layer::IndexBuild => "index.build",
            Layer::IndexPlan => "index.plan",
            Layer::IndexEval => "index.eval",
            Layer::FoSelect => "logic.select",
            Layer::AutomataRun => "automata.run",
        }
    }
}

const NONE: u32 = u32::MAX;

/// One recorded span.
struct Span {
    layer: Layer,
    /// Index of the parent span in the kept spans, or `NONE`.
    parent: u32,
    /// Request number, or `NONE` for set-up spans.
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    slot: u32,
}

/// Counts made at the layer boundaries, from what the calls return.
#[derive(Debug, Default)]
pub struct Counters {
    pub xml_bytes: u64,
    pub rules_fired: u64,
    pub planned: u64,
    pub streamed: u64,
    pub stream_nodes: u64,
    pub walk_nodes: u64,
    pub built_nodes: u64,
    pub postings_bytes: u64,
    pub xpath_plans: u64,
    pub xpath_indexed: u64,
    /// `|actual − estimated| / actual`, in %, per cost-model decision.
    pub cost_err_pct: Vec<f64>,
    pub fo_queries: u64,
    pub fo_indexed: u64,
    pub trees: u64,
    pub accepted: u64,
    pub steps: u64,
    pub atp_calls: u64,
    /// Per-tree run time summed over the pool's workers.
    pub task_ns: u64,
    /// `automata.run` wall time × workers: the pool's capacity.
    pub pool_ns: u64,
    pub batches: u64,
    pub steals: u64,
    pub idle_spins: u64,
    /// `automata.run` time of Example 3.2 batches.
    pub ex32_ns: u64,
}

/// A per-layer metric as printed and reported.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    unkept: u64,
    stack: Vec<Open>,
    root: Layer,
    request: u32,
    last_ns: u64,
    self_ns: [u64; LAYERS],
    req_self_ns: [u64; LAYERS],
    calls: [u64; LAYERS],
    requests: u64,
    request_ns: u64,
    pub n: Counters,
}

impl Tracer {
    /// A tracer that keeps up to `keep` spans.
    pub fn new(keep: usize) -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(keep),
            unkept: 0,
            stack: Vec::with_capacity(8),
            root: Layer::Setup,
            request: NONE,
            last_ns: 0,
            self_ns: [0; LAYERS],
            req_self_ns: [0; LAYERS],
            calls: [0; LAYERS],
            requests: 0,
            request_ns: 0,
            n: Counters::default(),
        }
    }

    /// A tracer that records nothing: `span` just calls through.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(0)
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.open(layer);
        let r = f();
        self.close();
        r
    }

    /// Duration of the span that closed last.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    pub fn begin_setup(&mut self) {
        if self.on {
            self.request = NONE;
            self.open(Layer::Setup);
        }
    }

    pub fn end_setup(&mut self) {
        if self.on {
            self.close();
        }
    }

    pub fn begin_request(&mut self) {
        self.request = self.requests as u32;
        self.open(Layer::Request);
    }

    /// Close the request's root span and return its duration in ns.
    pub fn end_request(&mut self) -> u64 {
        self.close();
        self.requests += 1;
        self.request_ns += self.last_ns;
        self.last_ns
    }

    fn open(&mut self, layer: Layer) {
        let parent = self.stack.last().map_or(NONE, |o| o.slot);
        if self.stack.is_empty() {
            self.root = layer;
        }
        let slot = if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                layer,
                parent,
                request: self.request,
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.unkept += 1;
            NONE
        };
        // Stamp last, so the bookkeeping above is not inside the span.
        let start_ns = self.now();
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            slot,
        });
    }

    fn close(&mut self) {
        // Stamp first, for the same reason.
        let end_ns = self.now();
        let o = self.stack.pop().expect("close without open");
        let dur = end_ns - o.start_ns;
        let own = dur.saturating_sub(o.child_ns);
        let l = o.layer as usize;
        self.self_ns[l] += own;
        if self.root == Layer::Request {
            self.req_self_ns[l] += own;
        }
        self.calls[l] += 1;
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
        }
        if o.slot != NONE {
            let s = &mut self.spans[o.slot as usize];
            s.start_ns = o.start_ns;
            s.end_ns = end_ns;
        }
        self.last_ns = dur;
    }

    /// Kept and recorded span counts.
    pub fn span_counts(&self) -> (usize, u64) {
        (self.spans.len(), self.spans.len() as u64 + self.unkept)
    }

    /// Write the kept spans as JSONL, one object per line; `id` is the
    /// line number and `parent` refers to it.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let opt = |x: u32| {
            if x == NONE {
                "null".to_owned()
            } else {
                x.to_string()
            }
        };
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer.name(),
                opt(s.parent),
                opt(s.request),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }

    /// Self time, share of request time and calls per layer, as a table.
    pub fn layer_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<18} {:>12} {:>8} {:>10}",
            "layer", "self ms", "share", "calls"
        );
        for layer in Layer::ALL {
            let l = layer as usize;
            if self.calls[l] == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<18} {:>12.3} {:>8.4} {:>10}",
                if layer == Layer::Request {
                    "unattributed"
                } else {
                    layer.name()
                },
                self.self_ns[l] as f64 / 1e6,
                ratio(self.req_self_ns[l], self.request_ns),
                self.calls[l]
            );
        }
        out
    }

    /// The per-layer metrics. Metrics of a layer the workload does not
    /// reach read 0. `overhead_pct` is measured by the caller.
    pub fn metrics(&self, overhead_pct: f64) -> Vec<Metric> {
        let n = &self.n;
        let share = |l: Layer| ratio(self.req_self_ns[l as usize], self.request_ns);
        let per = |l: Layer, units: u64| ratio(self.self_ns[l as usize], units);
        let calls = |l: Layer| self.calls[l as usize];
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("tree.parse_xml.share", "ratio", share(Layer::ParseXml)),
            m(
                "tree.parse_xml.ns_per_byte",
                "ns/byte",
                per(Layer::ParseXml, n.xml_bytes),
            ),
            m(
                "xpath.parse.ns_per_query",
                "ns/query",
                per(Layer::XPathParse, calls(Layer::XPathParse)),
            ),
            m(
                "logic.parse_fo.ns_per_query",
                "ns/query",
                per(Layer::ParseFo, calls(Layer::ParseFo)),
            ),
            m("rewrite.rewrite.share", "ratio", share(Layer::Rewrite)),
            m(
                "rewrite.rewrite.ns_per_query",
                "ns/query",
                per(Layer::Rewrite, calls(Layer::Rewrite)),
            ),
            m(
                "rewrite.rewrite.rules_fired_per_query",
                "count/query",
                ratio(n.rules_fired, calls(Layer::Rewrite)),
            ),
            m("rewrite.stream.share", "ratio", share(Layer::Stream)),
            m(
                "rewrite.stream.ns_per_node",
                "ns/node",
                per(Layer::Stream, n.stream_nodes),
            ),
            m(
                "rewrite.plan.streaming_ratio",
                "ratio",
                ratio(n.streamed, n.planned),
            ),
            m("xpath.walk.share", "ratio", share(Layer::Walk)),
            m(
                "xpath.walk.ns_per_node",
                "ns/node",
                per(Layer::Walk, n.walk_nodes),
            ),
            m(
                "xpath.walk.calls_per_request",
                "count/request",
                ratio(calls(Layer::Walk), self.requests),
            ),
            m("index.build.share", "ratio", share(Layer::IndexBuild)),
            m(
                "index.build.ns_per_node",
                "ns/node",
                per(Layer::IndexBuild, n.built_nodes),
            ),
            m(
                "index.postings_bytes_per_node",
                "bytes/node",
                ratio(n.postings_bytes, n.built_nodes),
            ),
            m(
                "index.plan.ns_per_query",
                "ns/query",
                per(Layer::IndexPlan, calls(Layer::IndexPlan)),
            ),
            m(
                "index.plan.indexed_ratio",
                "ratio",
                ratio(n.xpath_indexed, n.xpath_plans),
            ),
            m(
                "index.plan.cost_err_pct_p50",
                "%",
                median(&mut n.cost_err_pct.clone()),
            ),
            m(
                "index.fo.indexed_ratio",
                "ratio",
                ratio(n.fo_indexed, n.fo_queries),
            ),
            m("index.eval.share", "ratio", share(Layer::IndexEval)),
            m(
                "index.eval.ns_per_query",
                "ns/query",
                per(Layer::IndexEval, calls(Layer::IndexEval)),
            ),
            m("automata.run.share", "ratio", share(Layer::AutomataRun)),
            m(
                "automata.run.ns_per_step",
                "ns/step",
                ratio(n.task_ns, n.steps),
            ),
            m(
                "automata.run.steps_per_tree",
                "count/tree",
                ratio(n.steps, n.trees),
            ),
            m(
                "automata.run.atp_calls_per_tree",
                "count/tree",
                ratio(n.atp_calls, n.trees),
            ),
            m(
                "automata.run.accept_ratio",
                "ratio",
                ratio(n.accepted, n.trees),
            ),
            m(
                "automata.ex32.share",
                "ratio",
                ratio(n.ex32_ns, self.request_ns),
            ),
            m("exec.pool.busy_ratio", "ratio", ratio(n.task_ns, n.pool_ns)),
            m(
                "exec.pool.steals_per_batch",
                "count/batch",
                ratio(n.steals, n.batches),
            ),
            m(
                "exec.pool.idle_spins_per_batch",
                "count/batch",
                ratio(n.idle_spins, n.batches),
            ),
            m("unattributed.share", "ratio", share(Layer::Request)),
            m("trace.overhead_pct", "%", overhead_pct),
        ]
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
