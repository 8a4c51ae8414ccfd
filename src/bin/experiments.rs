//! Regenerate every experiment table in `EXPERIMENTS.md`.
//!
//! The paper (Neven, PODS 2002) is pure theory — no tables or figures —
//! so the "evaluation" this binary reproduces is the set of theorems,
//! lemmas, and the worked example, each exercised on concrete workloads
//! with the *shape* of the result (agreement, polynomial vs. exponential
//! scaling, message bounds) printed as a table.
//!
//! Every table flows through the `twq-obs` reporting layer, so the same
//! stream renders two ways:
//!
//! ```sh
//! cargo run --release --bin experiments              # aligned text tables
//! cargo run --release --bin experiments -- --json    # one JSON record per row
//! cargo run --release --bin experiments -- --profile # + hot-state profiles
//! ```
//!
//! `--profile` re-runs one representative workload per complexity-class
//! experiment (E1, E3–E6) under a [`MetricsCollector`] and reports the
//! top-k states by interpreter steps — per-state evidence for the
//! theorem's resource claim. It also times every row of the parallel
//! sweeps (p50/p90/p99 latency histograms), prints the pool's per-worker
//! telemetry, surfaces a ring-buffer post-mortem when a profiled run
//! halts abnormally (`Stuck`/`Nondeterministic` or any guard-limit
//! halt), and closes with a `PROF` summary of
//! the session's metric registry. `--flame <path>` (implies `--profile`)
//! additionally writes the profiled runs' self-time stacks in
//! flamegraph-collapsed form (`E1;q0;atp;q_sel 1234`).
//!
//! Resource governance (`twq-guard`) is wired in through three flags:
//!
//! * `--budget N` — cap every evaluator invocation at `N` fuel units;
//! * `--timeout MS` — give every invocation a wall-clock deadline;
//! * `--faults SPEC` — inject deterministic faults (dropped transitions,
//!   corrupted stores, synthetic exhaustion) from a seeded plan. `SPEC` is
//!   either a bare seed (`--faults 7`, default rates) or the compact
//!   `FaultPlan` string `SEED:KIND=RATE,...` with per-million rates over
//!   `fuel|deadline|drop|corrupt`, e.g. `--faults 7:drop=5000,corrupt=0`.
//!
//! `--collisions K` additionally makes every generated data tree draw its
//! attribute values from a `K`-value per-seed pool (the hostile
//! collision-heavy corpus of `twq-fuzz`), stressing the value-comparison
//! paths of E1's register automaton.
//!
//! Each evaluator call in a row goes through its `*_in` / `*_guarded`
//! entry with a fresh guard built from these flags; without any of them
//! that is `ResourceGuard::unlimited()`, which never trips. A governed run
//! that trips a limit prints its row with an explicit `limit-tripped`
//! marker instead of hanging or aborting the sweep.
//!
//! `--trace PATH` records one representative run per experiment (E1–E7)
//! as a causal trace (`twq-obs`) and writes them as labeled JSONL —
//! machine-readable provenance for every table. The regular output is
//! byte-identical with and without the flag.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use twq::analyze::{analyze, prune, severity_counts};
use twq::automata::{examples, run_graph, run_in, Limits, RunReport, State, TwClass, TwProgram};
use twq::exec::{Pool, PoolStats};
use twq::guard::{FaultPlan, NullGuard, ResourceGuard, TripReason, TwqError};
use twq::logic::eval_sentence_in;
use twq::logic::types::{count_classes, TypeConfig};
use twq::obs::{
    col, Cell, FlameProfiler, HaltKind, Histogram, HumanReporter, JsonlReporter, MetricsCollector,
    NullCollector, Registry, Reporter, RingBufferSink, RunMetrics, TeeSink, Trace, TraceCollector,
    Verdict,
};
use twq::protocol::{
    at_most_k_values_program, counting_table, encode, encode_shuffled, in_lm, lm_sentence,
    random_hyperset, run_protocol_in, split_string_tree, HyperGenConfig, Markers,
};
use twq::sim::{
    compile_logspace, compile_logspace_guarded, compile_pspace, compile_pspace_guarded,
    delta_count_mod3, eliminate_store_guarded,
};
use twq::tree::generate::{monadic_tree, random_tree, TreeGenConfig};
use twq::tree::{DelimTree, Label, Value, Vocab};
use twq::xpath::{compile, eval_from_in, parse_xpath};
use twq::xtm::machine::{run_xtm_in, XtmLimits, XtmReport};
use twq::xtm::tm::tm_leaf_count_even;
use twq::xtm::{encode as xenc, machines, run_alternating_guarded, run_tm, to_bytes};

/// Resource-governance settings from `--budget`, `--timeout`, `--faults`.
/// Each evaluator call gets a **fresh** guard built from these, so the
/// budget and deadline are per invocation, not per sweep; with no flag set
/// the guard is unlimited and never trips.
#[derive(Debug, Clone, Default)]
struct Gov {
    budget: Option<u64>,
    timeout_ms: Option<u64>,
    faults: Option<FaultPlan>,
}

impl Gov {
    fn active(&self) -> bool {
        self.budget.is_some() || self.timeout_ms.is_some() || self.faults.is_some()
    }

    fn guard(&self) -> ResourceGuard {
        let mut g = ResourceGuard::unlimited();
        if let Some(fuel) = self.budget {
            g = g.with_budget(fuel);
        }
        if let Some(ms) = self.timeout_ms {
            g = g.with_deadline(Duration::from_millis(ms));
        }
        if let Some(plan) = &self.faults {
            g = g.with_faults(plan.clone());
        }
        g
    }
}

/// Whether any row ended in `limit-tripped(...)`; `--strict` turns this
/// into a nonzero exit so CI sweeps cannot silently under-measure.
static TRIPPED: AtomicBool = AtomicBool::new(false);

/// Guard trips by reason, counted across the whole session (rows run on
/// pool workers, hence atomics) and reported by the `--profile` summary
/// as `guard/trips/<reason>` counters.
static TRIP_COUNTS: [(&str, AtomicU64); 6] = [
    ("budget", AtomicU64::new(0)),
    ("deadline", AtomicU64::new(0)),
    ("depth", AtomicU64::new(0)),
    ("mem", AtomicU64::new(0)),
    ("cancelled", AtomicU64::new(0)),
    ("error", AtomicU64::new(0)),
];

/// The row marker for a governed run that hit a limit.
fn trip_cell(e: &TwqError) -> Cell {
    TRIPPED.store(true, Ordering::Relaxed);
    let idx = match e.guard().map(|g| &g.reason) {
        Some(TripReason::Budget { .. }) => 0,
        Some(TripReason::Deadline { .. }) => 1,
        Some(TripReason::Depth { .. }) => 2,
        Some(TripReason::Mem { .. }) => 3,
        Some(TripReason::Cancelled) => 4,
        None => 5,
    };
    let (reason, count) = &TRIP_COUNTS[idx];
    count.fetch_add(1, Ordering::Relaxed);
    Cell::str(format!("limit-tripped({reason})"))
}

/// Session-wide profiling state behind `--profile` / `--flame`.
struct Prof {
    /// Whether `--profile` (or `--flame`, which implies it) is on.
    active: bool,
    /// Where `--flame` writes the collapsed stacks, if anywhere.
    flame_path: Option<String>,
    /// Flamegraph-collapsed lines accumulated across the profiled runs,
    /// each prefixed with its experiment id.
    flame: String,
    /// The session metric registry: sweep latency histograms, pool
    /// telemetry totals, per-run step counters, guard trips. Dumped as
    /// the closing `PROF` section.
    registry: Registry,
}

/// Session-wide trace capture behind `--trace PATH`: each experiment
/// re-runs one representative workload under a trace collector and
/// records the resulting causal [`Trace`] as a labeled JSONL line.
/// When inactive no traced re-runs happen at all, so the table output
/// stays byte-identical to a flagless invocation.
struct Tracer {
    /// Where `--trace` writes the JSONL lines, if anywhere.
    path: Option<String>,
    /// One `to_json_line()` per recorded trace, labeled `<EXP>:<entry>`.
    lines: Vec<String>,
}

impl Tracer {
    fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Record one representative trace under an experiment label.
    fn record(&mut self, id: &str, mut trace: Trace) {
        trace.label = format!("{id}:{}", trace.label);
        self.lines.push(trace.to_json_line());
    }
}

/// Run `f` under a fresh [`TraceCollector`] and finish the trace as
/// `label` (the evaluator's name in the recorded JSONL).
fn traced<R>(label: &str, f: impl FnOnce(&mut TraceCollector) -> R) -> (R, Trace) {
    let mut c = TraceCollector::new();
    let out = f(&mut c);
    (out, c.finish(label))
}

/// [`Pool::scoped`] plus, when profiling, per-row wall-clock latencies
/// and the pool's per-worker telemetry. The inactive arm is the exact
/// `Pool::scoped` call the harness always made, so non-profile output is
/// unchanged byte for byte.
fn scoped_rows<T: Send>(
    pool: &Pool,
    active: bool,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, Option<(Histogram, PoolStats)>) {
    if !active {
        return (pool.scoped(n, f), None);
    }
    let (timed, stats) = pool.scoped_with_stats(n, |i| {
        let t0 = Instant::now();
        let v = f(i);
        (v, t0.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    });
    let mut h = Histogram::new();
    let mut rows = Vec::with_capacity(timed.len());
    for (v, ns) in timed {
        h.record(ns);
        rows.push(v);
    }
    (rows, Some((h, stats)))
}

/// Print a profiled sweep's latency summary and per-worker telemetry,
/// and fold both into the session registry (`latency/<id>` histogram,
/// `pool/*` counters).
fn pool_telemetry(rep: &mut dyn Reporter, prof: &mut Prof, id: &str, t: &(Histogram, PoolStats)) {
    let (h, stats) = t;
    rep.note(&format!("latency ({id}): {}", h.summary("ns")));
    rep.table(
        Some("pool"),
        2,
        &[
            col("worker", 7),
            col("tasks", 6),
            col("steals", 7),
            col("steal-fails", 12),
            col("idle", 6),
            col("chunk", 6),
        ],
    );
    for (w, ws) in stats.workers.iter().enumerate() {
        rep.row(&[
            w.into(),
            ws.tasks.into(),
            ws.steals.into(),
            ws.steal_failures.into(),
            ws.idle_spins.into(),
            ws.chunk.into(),
        ]);
    }
    prof.registry.hist_merge(&format!("latency/{id}"), h);
    let tot = stats.totals();
    prof.registry.counter_add("pool/tasks", tot.tasks);
    prof.registry.counter_add("pool/steals", tot.steals);
    prof.registry
        .counter_add("pool/steal_failures", tot.steal_failures);
    prof.registry.counter_add("pool/idle_spins", tot.idle_spins);
}

/// Everything `--profile` captures from one representative run: the
/// aggregate metrics, the self-time flame profile, and a short
/// flight-recorder tail for post-mortems.
struct Capture {
    metrics: RunMetrics,
    flame: FlameProfiler,
    ring: RingBufferSink,
}

impl Capture {
    /// Run `f` under a collector whose event stream is teed into a flame
    /// profiler and a ring buffer, then package everything observed.
    fn collect<R>(f: impl FnOnce(&mut MetricsCollector) -> R) -> (R, Capture) {
        let mut flame = FlameProfiler::new();
        let mut ring = RingBufferSink::new(16);
        let (out, metrics) = {
            let mut tee = TeeSink::new(&mut flame, &mut ring);
            let mut mc = MetricsCollector::with_sink(&mut tee);
            let out = f(&mut mc);
            (out, mc.into_metrics())
        };
        (
            out,
            Capture {
                metrics,
                flame,
                ring,
            },
        )
    }
}

/// Emit one profiled run: the one-line summary, hot states, top self-time
/// stacks, a ring-buffer post-mortem when the run halted abnormally, plus
/// the registry and `--flame` feeds.
fn emit_capture(
    rep: &mut dyn Reporter,
    prof: &mut Prof,
    id: &str,
    what: &str,
    prog: &TwProgram,
    cap: &Capture,
) {
    profile_note(rep, what, &cap.metrics);
    hot_states(rep, prog, &cap.metrics, "hot-states");
    let namer = |q: u32| prog.state_name(State(q as u16)).to_owned();
    if !cap.flame.is_empty() {
        rep.table(
            Some("self-time"),
            2,
            &[col("stack", 44), col("samples", 9), col("share", 7)],
        );
        let total = cap.flame.total_weight().max(1);
        for (stack, w) in cap.flame.top_self(5, namer) {
            rep.row(&[
                Cell::str(stack),
                w.into(),
                Cell::float(w as f64 / total as f64, 3),
            ]);
        }
    }
    // Anomalous halts get a flight-recorder dump: stuck walks and
    // nondeterministic splits (the original post-mortems), and since the
    // trace layer landed also guard trips — fuel, deadline, and depth
    // limit halts — which previously vanished into a bare `limit-tripped`
    // row marker.
    if matches!(
        cap.metrics.halt,
        Some(
            HaltKind::Stuck
                | HaltKind::Nondeterministic
                | HaltKind::StepLimit
                | HaltKind::AtpDepthLimit
                | HaltKind::SpaceLimit
        )
    ) {
        rep.note(&format!(
            "post-mortem ({what}): halted {}, last {} event(s) follow",
            cap.metrics.halt.map_or("?", |h| h.name()),
            cap.ring.len()
        ));
        for line in cap.ring.post_mortem().lines() {
            rep.note(&format!("  {line}"));
        }
    }
    if prof.flame_path.is_some() {
        prof.flame.push_str(&cap.flame.collapsed_with(id, namer));
    }
    prof.registry
        .counter_add(&format!("run/{id}/steps"), cap.metrics.steps);
    prof.registry
        .counter_add(&format!("run/{id}/samples"), cap.flame.total_weight());
}

/// The closing `PROF` section: everything the session registry
/// accumulated — pool telemetry totals, per-run step counters, guard
/// trips, and the latency histograms with their quantiles.
fn prof_summary(rep: &mut dyn Reporter, prof: &mut Prof) {
    for (name, count) in &TRIP_COUNTS {
        let n = count.load(Ordering::Relaxed);
        if n > 0 {
            prof.registry.counter_add(&format!("guard/trips/{name}"), n);
        }
    }
    rep.experiment("PROF", "session metric registry (twq-prof)");
    let snap = prof.registry.snapshot();
    if !snap.counters.is_empty() {
        rep.table(Some("counters"), 0, &[col("name", 32), col("value", 12)]);
        for (name, v) in &snap.counters {
            rep.row(&[Cell::str(name.clone()), (*v).into()]);
        }
    }
    if !snap.hists.is_empty() {
        rep.table(
            Some("histograms"),
            0,
            &[
                col("name", 24),
                col("n", 6),
                col("p50", 10),
                col("p90", 10),
                col("p99", 10),
                col("max", 10),
            ],
        );
        for (name, h) in &snap.hists {
            rep.row(&[
                Cell::str(name.clone()),
                h.count().into(),
                h.p50().unwrap_or(0).into(),
                h.p90().unwrap_or(0).into(),
                h.p99().unwrap_or(0).into(),
                h.max().unwrap_or(0).into(),
            ]);
        }
    }
}

fn main() {
    let (mut json, mut profile, mut strict, mut do_analyze) = (false, false, false, false);
    let mut gov = Gov::default();
    let mut jobs: Option<usize> = None;
    let mut collisions: Option<usize> = None;
    let mut flame_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let usage = "expected --json, --profile, --flame PATH, --trace PATH, --analyze, --strict, \
                 --jobs N, --budget N, --timeout MS, --collisions K, and/or \
                 --faults SEED[:KIND=RATE,...]";
    let numeric = |flag: &str, v: Option<&String>| -> u64 {
        v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} requires a numeric value ({usage})");
            std::process::exit(2);
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--profile" => profile = true,
            "--flame" => {
                flame_path = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--flame requires a path ({usage})");
                    std::process::exit(2);
                }));
            }
            "--trace" => {
                trace_path = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--trace requires a path ({usage})");
                    std::process::exit(2);
                }));
            }
            "--strict" => strict = true,
            "--analyze" => do_analyze = true,
            "--jobs" => jobs = Some(numeric("--jobs", it.next()) as usize),
            "--budget" => gov.budget = Some(numeric("--budget", it.next())),
            "--timeout" => gov.timeout_ms = Some(numeric("--timeout", it.next())),
            "--collisions" => collisions = Some(numeric("--collisions", it.next()) as usize),
            "--faults" => {
                let spec = it.next().map(String::as_str).unwrap_or("");
                gov.faults = Some(spec.parse::<FaultPlan>().unwrap_or_else(|e| {
                    eprintln!("--faults: {e} ({usage})");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument `{other}` ({usage})");
                std::process::exit(2);
            }
        }
    }
    // `--flame` needs the profiled runs it dumps stacks for.
    profile |= flame_path.is_some();
    let mut prof = Prof {
        active: profile,
        flame_path,
        flame: String::new(),
        registry: Registry::new(),
    };
    let mut tracer = Tracer {
        path: trace_path,
        lines: Vec::new(),
    };
    // Rows within E1–E6 are computed across this pool (default: all cores)
    // and printed serially in input order, so the output is independent of
    // the worker count; `--jobs 1` computes inline exactly as the serial
    // harness did.
    let pool = match jobs {
        Some(n) => Pool::new(n),
        None => Pool::with_default_parallelism(),
    };
    let mut rep: Box<dyn Reporter> = if json {
        Box::new(JsonlReporter::stdout())
    } else {
        Box::new(HumanReporter::stdout())
    };
    let rep = rep.as_mut();
    if gov.active() {
        rep.note(&format!(
            "governance: budget {:?}, timeout {:?} ms, fault plan {} (per invocation)",
            gov.budget,
            gov.timeout_ms,
            gov.faults
                .as_ref()
                .map_or_else(|| "none".to_owned(), |p| p.to_string())
        ));
    }
    if let Some(k) = collisions {
        rep.note(&format!(
            "collisions: generated trees draw attribute values from a {k}-value per-seed pool"
        ));
    }
    if do_analyze {
        e0_analyze(rep);
    }
    e1_example32(rep, &mut prof, &mut tracer, &gov, collisions, &pool);
    e2_xpath(rep, &mut prof, &mut tracer, &gov, &pool);
    e3_logspace_pebbles(rep, &mut prof, &mut tracer, &gov, &pool);
    e4_twl_ptime(rep, &mut prof, &mut tracer, &gov, &pool);
    e5_twr_pspace(rep, &mut prof, &mut tracer, &gov, &pool);
    e6_twrl_exptime(rep, &mut prof, &mut tracer, &gov, &pool);
    e7_lm_fo(rep, &mut tracer, &gov);
    e8_protocol(rep, &gov);
    e9_counting(rep);
    e10_types(rep);
    e11_xtm_vs_tm(rep, &gov);
    e12_prop72(rep, &gov);
    e13_alternation(rep, &gov);
    if prof.active {
        prof_summary(rep, &mut prof);
    }
    if let Some(path) = &prof.flame_path {
        if let Err(e) = std::fs::write(path, &prof.flame) {
            eprintln!("--flame: cannot write {path}: {e}");
            std::process::exit(4);
        }
        rep.note(&format!(
            "flame: wrote {} stack line(s) to {path}",
            prof.flame.lines().count()
        ));
    }
    if let Some(path) = &tracer.path {
        let mut out = tracer.lines.join("\n");
        out.push('\n');
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("--trace: cannot write {path}: {e}");
            std::process::exit(4);
        }
        rep.note(&format!(
            "trace: wrote {} causal trace(s) to {path}",
            tracer.lines.len()
        ));
    }
    if strict && TRIPPED.load(Ordering::Relaxed) {
        eprintln!("--strict: at least one row ended in limit-tripped");
        std::process::exit(3);
    }
    if !json {
        println!("\nall experiments completed.");
    }
}

/// The `--analyze` view: every program the sweeps run, through the full
/// static analyzer — inferred class, diagnostic counts, and what the
/// semantics-preserving prune would remove. E1 and E4 actually run the
/// pruned program (see their notes); this table is the evidence that the
/// rest are already clean.
fn e0_analyze(rep: &mut dyn Reporter) {
    rep.experiment(
        "E0",
        "static analysis: class inference and prune over all programs",
    );
    let mut vocab = Vocab::new();
    let base = TreeGenConfig::example32(&mut vocab, 1, &[1]);
    let a = vocab.attr_opt("a").unwrap();
    let id = vocab.attr("id");
    let machine = machines::leaf_count_even(&base.symbols);
    let roster: Vec<(&str, TwProgram)> = vec![
        ("example_32 (E1)", examples::example_32(&mut vocab).program),
        (
            "parent_child_match (E4)",
            examples::parent_child_match_program(&base.symbols, a),
        ),
        (
            "distinct_values>=4 (E6)",
            examples::distinct_values_at_least(&base.symbols, a, 4),
        ),
        (
            "logspace pebbles (E3)",
            compile_logspace(&machine, &base.symbols, id, &mut vocab)
                .unwrap()
                .program,
        ),
        (
            "pspace store (E5)",
            compile_pspace(&machine, &base.symbols, id, &mut vocab)
                .unwrap()
                .program,
        ),
        (
            "delta_count_mod3 (E12)",
            delta_count_mod3(
                Label::Sym(base.symbols[0]),
                Label::Sym(base.symbols[1]),
                &mut vocab,
            ),
        ),
        (
            "at_most_4_values (E8)",
            at_most_k_values_program(base.symbols[0], a, 4),
        ),
        ("traversal (E8)", examples::traversal_program(&base.symbols)),
    ];
    rep.table(
        None,
        0,
        &[
            col("program", 26),
            col("class", 8),
            col("errors", 7),
            col("warns", 6),
            col("infos", 6),
            col("pruned rules", 13),
            col("pruned states", 14),
        ],
    );
    for (name, prog) in &roster {
        let an = analyze(prog);
        let (errors, warnings, infos) = severity_counts(&an.diagnostics);
        let pr = prune(prog);
        rep.row(&[
            (*name).into(),
            Cell::str(an.inference.class.to_string()),
            errors.into(),
            warnings.into(),
            infos.into(),
            pr.removed_rules.len().into(),
            pr.removed_states.len().into(),
        ]);
    }
}

/// The `--profile` view: top-k states by interpreter steps, with the
/// share of the run's total each is responsible for.
fn hot_states(rep: &mut dyn Reporter, prog: &TwProgram, m: &RunMetrics, label: &'static str) {
    rep.table(
        Some(label),
        2,
        &[col("state", 20), col("steps", 10), col("share", 7)],
    );
    let total = m.steps.max(1);
    for (q, steps) in m.top_states(5) {
        rep.row(&[
            Cell::str(prog.state_name(State(q as u16))),
            steps.into(),
            Cell::float(steps as f64 / total as f64, 3),
        ]);
    }
}

/// The `--profile` one-line summary of a measured run.
fn profile_note(rep: &mut dyn Reporter, what: &str, m: &RunMetrics) {
    rep.note(&format!(
        "profile ({what}): halt {}, steps {}, max atp depth {}, max atp fan-out {}, \
         max store tuples {}, max tracked configs {}",
        m.halt.map_or("?", |h| h.name()),
        m.steps,
        m.max_atp_depth,
        m.max_atp_fanout,
        m.max_store_tuples,
        m.max_tracked_configs,
    ));
}

fn e1_example32(
    rep: &mut dyn Reporter,
    prof: &mut Prof,
    tracer: &mut Tracer,
    gov: &Gov,
    collisions: Option<usize>,
    pool: &Pool,
) {
    rep.experiment(
        "E1",
        "Example 3.2: the worked tw^{r,l} automaton vs its oracle",
    );
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    // The sweep runs the statically pruned program — identical language
    // by construction (twq-analyze), so the oracle agreement below also
    // certifies the prune.
    let pruned = prune(&ex.program);
    let prog = pruned.program;
    rep.note(&format!(
        "pre-pruned: {} rule(s), {} state(s) removed",
        pruned.removed_rules.len(),
        pruned.removed_states.len()
    ));
    rep.table(
        None,
        0,
        &[
            col("n", 6),
            col("accepts", 8),
            col("steps", 10),
            col("subcomps", 10),
            col("configs(gr)", 12),
            col("agree", 9),
        ],
    );
    let sizes = [20usize, 60, 180, 540];
    // Prepare (serial): generator configs need the vocabulary. Half the
    // trials use a single-value pool (always accepted) so the table shows
    // both verdicts at every size.
    let cfgs: Vec<(TreeGenConfig, TreeGenConfig)> = sizes
        .iter()
        .map(|&n| {
            let mut mixed = TreeGenConfig::example32(&mut vocab, n, &[1, 2]);
            let mut uniform = TreeGenConfig::example32(&mut vocab, n, &[7]);
            // `--collisions K`: draw attribute values from a K-value
            // per-seed pool (the twq-fuzz hostile corpus knob).
            mixed.collision_pool = collisions;
            uniform.collision_pool = collisions;
            (mixed, uniform)
        })
        .collect();
    struct E1Row {
        acc: u64,
        steps: u64,
        subs: u64,
        configs: u64,
        agree: bool,
        done: u64,
        trip: Option<TwqError>,
    }
    // Execute (parallel): one row per size, printed in order below.
    let (rows, telemetry) = scoped_rows(pool, prof.active, sizes.len(), |i| {
        let (mixed, uniform) = &cfgs[i];
        let (mut acc, mut steps, mut subs, mut configs, mut agree) = (0u64, 0u64, 0u64, 0u64, true);
        let trials = 10;
        let mut done = 0u64;
        let mut trip: Option<TwqError> = None;
        for seed in 0..trials {
            let cfg = if seed % 2 == 0 { mixed } else { uniform };
            let t = random_tree(cfg, seed);
            let dt = DelimTree::build(&t);
            let r = match run_in(
                &prog,
                &dt,
                Limits::default(),
                &mut NullCollector,
                &mut gov.guard(),
            ) {
                Ok(r) => r,
                Err(e) => {
                    trip = Some(e);
                    continue;
                }
            };
            let g = run_graph(&prog, &dt, Limits::default());
            let oracle = examples::oracle_example_32(&t, ex.delta, ex.attr);
            agree &= r.accepted() == oracle && g.accepted() == oracle;
            acc += u64::from(r.accepted());
            steps += r.steps;
            subs += r.subcomputations;
            configs += g.distinct_configs as u64;
            done += 1;
        }
        E1Row {
            acc,
            steps,
            subs,
            configs,
            agree,
            done,
            trip,
        }
    });
    for (i, row) in rows.into_iter().enumerate() {
        let agree_cell = match &row.trip {
            Some(e) => trip_cell(e),
            None => row.agree.into(),
        };
        let d = row.done.max(1);
        rep.row(&[
            sizes[i].into(),
            Cell::str(format!("{}/{}", row.acc, row.done)),
            (row.steps / d).into(),
            (row.subs / d).into(),
            (row.configs / d).into(),
            agree_cell,
        ]);
    }
    if let Some(t) = &telemetry {
        pool_telemetry(rep, prof, "E1", t);
    }
    if prof.active {
        let cfg = TreeGenConfig::example32(&mut vocab, 540, &[1, 2]);
        let dt = DelimTree::build(&random_tree(&cfg, 0));
        let (_, cap) =
            Capture::collect(|mc| run_in(&prog, &dt, Limits::default(), mc, &mut NullGuard));
        emit_capture(rep, prof, "E1", "n=540, seed 0", &prog, &cap);
    }
    if tracer.active() {
        let cfg = TreeGenConfig::example32(&mut vocab, 60, &[1, 2]);
        let dt = DelimTree::build(&random_tree(&cfg, 0));
        let (_, t) = traced("run", |c| {
            run_in(&prog, &dt, Limits::default(), c, &mut NullGuard)
        });
        tracer.record("E1", t);
    }
}

fn e2_xpath(rep: &mut dyn Reporter, prof: &mut Prof, tracer: &mut Tracer, gov: &Gov, pool: &Pool) {
    rep.experiment("E2", "Section 2.3: XPath ≡ compiled FO(∃*) selector");
    let mut vocab = Vocab::new();
    let queries = [
        "sigma/delta",
        "//delta[sigma]",
        "sigma//sigma[@a=1] | delta",
    ];
    rep.table(
        None,
        0,
        &[
            col("n", 6),
            col("query", 34),
            col("selected", 9),
            col("agree", 7),
        ],
    );
    // Prepare (serial): trees and parsed queries need the vocabulary.
    let mut trees = Vec::new();
    let mut inputs = Vec::new();
    for n in [30usize, 90, 270] {
        let cfg = TreeGenConfig::example32(&mut vocab, n, &[1, 2]);
        trees.push(random_tree(&cfg, 3));
        for q in queries {
            let path = parse_xpath(q, &mut vocab).unwrap();
            inputs.push((n, q, trees.len() - 1, path));
        }
    }
    // Execute (parallel): direct evaluation vs the compiled selector.
    let (rows, telemetry) = scoped_rows(pool, prof.active, inputs.len(), |i| {
        let (_, _, ti, path) = &inputs[i];
        let t = &trees[*ti];
        eval_from_in(t, path, t.root(), &mut NullCollector, &mut gov.guard()).map(|d| {
            let agree = d == compile(path).select(t, t.root());
            (d.len(), agree)
        })
    });
    for (i, row) in rows.into_iter().enumerate() {
        let (n, q, _, _) = &inputs[i];
        match row {
            Ok((selected, agree)) => {
                rep.row(&[(*n).into(), (*q).into(), selected.into(), agree.into()])
            }
            Err(e) => rep.row(&[(*n).into(), (*q).into(), 0usize.into(), trip_cell(&e)]),
        }
    }
    if let Some(t) = &telemetry {
        pool_telemetry(rep, prof, "E2", t);
    }
    if tracer.active() {
        // Representative: the smallest tree under the union-with-filter
        // query — each axis step's node frontier lands in the trace.
        let (_, _, ti, path) = &inputs[2];
        let t = &trees[*ti];
        let (out, mut tr) = traced("xpath", |c| {
            eval_from_in(t, path, t.root(), c, &mut NullGuard)
        });
        tr.root.verdict = out.ok().map(|s| Verdict::Bool(!s.is_empty()));
        tracer.record("E2", tr);
    }
}

fn e3_logspace_pebbles(
    rep: &mut dyn Reporter,
    prof: &mut Prof,
    tracer: &mut Tracer,
    gov: &Gov,
    pool: &Pool,
) {
    let profile = prof.active;
    rep.experiment(
        "E3",
        "Theorem 7.1(1): logspace xTM ≡ compiled TW pebble walker (unique IDs)",
    );
    let mut vocab = Vocab::new();
    let base = TreeGenConfig::example32(&mut vocab, 1, &[1]);
    let id = vocab.attr("id");
    for (name, machine) in [
        ("leaf_count_even", machines::leaf_count_even(&base.symbols)),
        (
            "leftmost_depth_even",
            machines::leftmost_depth_even(&base.symbols),
        ),
    ] {
        let prog = match compile_logspace_guarded(
            &machine,
            &base.symbols,
            id,
            &mut vocab,
            &mut gov.guard(),
        ) {
            Ok(p) => p,
            Err(e) => {
                rep.note(&format!("{name}: compilation limit-tripped: {e}"));
                continue;
            }
        };
        rep.note(&format!(
            "{name}: compiled to class {} ({} states, {} pebble registers)",
            prog.program.classify(),
            prog.program.state_count(),
            prog.program.reg_count()
        ));
        rep.table(
            Some(name),
            2,
            &[
                col("n", 4),
                col("xTM-steps", 10),
                col("cells", 7),
                col("TW-steps", 12),
                col("agree", 7),
            ],
        );
        let sizes = [4usize, 6, 8];
        // Prepare (serial): trees and unique ids need the vocabulary.
        // Chains give leftmost_depth_even a growing spine; random trees
        // exercise leaf_count_even. The leaf count of a chain is 1 (odd),
        // and the spine is n-1.
        let dts: Vec<DelimTree> = sizes
            .iter()
            .map(|&n| {
                let t = if name == "leftmost_depth_even" {
                    let one = vocab.val_int(1);
                    monadic_tree(base.symbols[0], vocab.attr_opt("a").unwrap(), &vec![one; n])
                } else {
                    let cfg = TreeGenConfig {
                        nodes: n,
                        ..base.clone()
                    };
                    random_tree(&cfg, 2)
                };
                let mut dt = DelimTree::build(&t);
                dt.assign_unique_ids(id, &mut vocab);
                dt
            })
            .collect();
        enum E3Row {
            XtmTrip(TwqError),
            ProgTrip(XtmReport, TwqError),
            Done(XtmReport, RunReport, Option<Box<Capture>>),
        }
        // Execute (parallel): the xTM and the compiled walker per size.
        let (rows, telemetry) = scoped_rows(pool, profile, sizes.len(), |i| {
            let dt = &dts[i];
            let xr = match run_xtm_in(
                &machine,
                dt,
                XtmLimits::default(),
                &mut NullCollector,
                &mut gov.guard(),
            ) {
                Ok(r) => r,
                Err(e) => return E3Row::XtmTrip(e),
            };
            if profile && sizes[i] == 8 {
                let (r, cap) = Capture::collect(|mc| {
                    run_in(&prog.program, dt, Limits::long_walk(), mc, &mut NullGuard)
                });
                E3Row::Done(xr, r.expect("NullGuard never trips"), Some(Box::new(cap)))
            } else {
                match run_in(
                    &prog.program,
                    dt,
                    Limits::long_walk(),
                    &mut NullCollector,
                    &mut gov.guard(),
                ) {
                    Ok(r) => E3Row::Done(xr, r, None),
                    Err(e) => E3Row::ProgTrip(xr, e),
                }
            }
        });
        let mut captured: Option<Box<Capture>> = None;
        for (i, row) in rows.into_iter().enumerate() {
            let n = sizes[i];
            match row {
                E3Row::XtmTrip(e) => rep.row(&[
                    n.into(),
                    0u64.into(),
                    0usize.into(),
                    0u64.into(),
                    trip_cell(&e),
                ]),
                E3Row::ProgTrip(xr, e) => rep.row(&[
                    n.into(),
                    xr.steps.into(),
                    xr.space.into(),
                    0u64.into(),
                    trip_cell(&e),
                ]),
                E3Row::Done(xr, pr, cap) => {
                    if let Some(cap) = cap {
                        captured = Some(cap);
                    }
                    rep.row(&[
                        n.into(),
                        xr.steps.into(),
                        xr.space.into(),
                        pr.steps.into(),
                        (xr.accepted() == pr.accepted()).into(),
                    ]);
                }
            }
        }
        if let Some(t) = &telemetry {
            pool_telemetry(rep, prof, "E3", t);
        }
        if let Some(cap) = captured {
            emit_capture(rep, prof, "E3", "n=8", &prog.program, &cap);
        }
        if tracer.active() {
            // Both sides of the Theorem 7.1(1) equivalence, on the
            // smallest tree: the xTM and its compiled pebble walker.
            let (_, xt) = traced("run_xtm", |c| {
                run_xtm_in(&machine, &dts[0], XtmLimits::default(), c, &mut NullGuard)
            });
            tracer.record(&format!("E3/{name}/xtm"), xt);
            let (_, pt) = traced("run", |c| {
                run_in(
                    &prog.program,
                    &dts[0],
                    Limits::long_walk(),
                    c,
                    &mut NullGuard,
                )
            });
            tracer.record(&format!("E3/{name}"), pt);
        }
    }
}

fn e4_twl_ptime(
    rep: &mut dyn Reporter,
    prof: &mut Prof,
    tracer: &mut Tracer,
    gov: &Gov,
    pool: &Pool,
) {
    let profile = prof.active;
    rep.experiment(
        "E4",
        "Theorem 7.1(2): tw^l configuration count grows polynomially (PTIME)",
    );
    let mut vocab = Vocab::new();
    let cfg0 = TreeGenConfig::example32(&mut vocab, 1, &[1]);
    let a = vocab.attr_opt("a").unwrap();
    let prog = examples::parent_child_match_program(&cfg0.symbols, a);
    assert_eq!(prog.classify(), TwClass::TwL);
    // Certify-then-prune: the PTIME bound below is only claimed for
    // tw^l, so the sweep statically rejects any drift out of the class
    // and runs the pruned (language-identical) program.
    twq::analyze::certify(&prog, TwClass::TwL).expect("parent_child_match is tw^l");
    let pruned = prune(&prog);
    let prog = pruned.program;
    rep.note(&format!(
        "pre-pruned: {} rule(s), {} state(s) removed",
        pruned.removed_rules.len(),
        pruned.removed_states.len()
    ));
    rep.table(
        None,
        0,
        &[
            col("n", 6),
            col("configs", 12),
            col("configs/node", 14),
            col("bound |Q|·N·(n+1)", 18),
        ],
    );
    let sizes = [20usize, 60, 180, 540];
    // Prepare (serial): every node gets a distinct value, so no
    // parent-child match exists and the program performs its full
    // polynomial sweep (worst case). Attribute values need the vocabulary.
    let dts: Vec<DelimTree> = sizes
        .iter()
        .map(|&n| {
            let cfg = TreeGenConfig {
                nodes: n,
                attributes: vec![],
                ..cfg0.clone()
            };
            let mut t = random_tree(&cfg, 9);
            let ids: Vec<_> = t.node_ids().collect();
            for (i, u) in ids.into_iter().enumerate() {
                let val = vocab.val_int(1000 + i as i64);
                t.set_attr(u, a, val);
            }
            DelimTree::build(&t)
        })
        .collect();
    enum E4Row {
        Trip(TwqError),
        Done(usize, usize, Option<Box<Capture>>),
    }
    // Execute (parallel): the breadth-first configuration sweep per size.
    let (rows, telemetry) = scoped_rows(pool, profile, sizes.len(), |i| {
        let dt = &dts[i];
        // The direct engine is the governed witness: if the workload fits
        // the budget there, the breadth-first sweep is measured ungoverned.
        if gov.active() {
            let governed = run_in(
                &prog,
                dt,
                Limits::default(),
                &mut NullCollector,
                &mut gov.guard(),
            );
            if let Err(e) = governed {
                return E4Row::Trip(e);
            }
        }
        let g = run_graph(&prog, dt, Limits::default());
        assert!(!g.accepted(), "distinct values admit no match");
        let cap = if profile && sizes[i] == 20 {
            let (_, cap) =
                Capture::collect(|mc| run_in(&prog, dt, Limits::default(), mc, &mut NullGuard));
            Some(Box::new(cap))
        } else {
            None
        };
        E4Row::Done(g.distinct_configs, dt.tree().len(), cap)
    });
    let mut captured: Option<Box<Capture>> = None;
    for (i, row) in rows.into_iter().enumerate() {
        let n = sizes[i];
        match row {
            E4Row::Trip(e) => {
                rep.row(&[n.into(), 0usize.into(), Cell::float(0.0, 2), trip_cell(&e)]);
            }
            E4Row::Done(distinct_configs, dn, cap) => {
                if let Some(cap) = cap {
                    captured = Some(cap);
                }
                let bound = prog.state_count() * dn * (n + 1);
                rep.row(&[
                    n.into(),
                    distinct_configs.into(),
                    Cell::float(distinct_configs as f64 / dn as f64, 2),
                    bound.into(),
                ]);
                assert!(distinct_configs <= bound);
            }
        }
    }
    if let Some(t) = &telemetry {
        pool_telemetry(rep, prof, "E4", t);
    }
    if let Some(cap) = captured {
        emit_capture(rep, prof, "E4", "direct engine, n=20", &prog, &cap);
    }
    if tracer.active() {
        let (_, t) = traced("run", |c| {
            run_in(&prog, &dts[0], Limits::default(), c, &mut NullGuard)
        });
        tracer.record("E4", t);
    }
}

fn e5_twr_pspace(
    rep: &mut dyn Reporter,
    prof: &mut Prof,
    tracer: &mut Tracer,
    gov: &Gov,
    pool: &Pool,
) {
    let profile = prof.active;
    rep.experiment(
        "E5",
        "Theorem 7.1(3): compiled tw^r keeps a linear store (PSPACE shape)",
    );
    let mut vocab = Vocab::new();
    let base = TreeGenConfig::example32(&mut vocab, 1, &[1]);
    let id = vocab.attr("id");
    let machine = machines::leaf_count_even(&base.symbols);
    let prog =
        match compile_pspace_guarded(&machine, &base.symbols, id, &mut vocab, &mut gov.guard()) {
            Ok(p) => p,
            Err(e) => {
                rep.note(&format!("compilation limit-tripped: {e}"));
                return;
            }
        };
    rep.table(
        None,
        0,
        &[
            col("n", 6),
            col("N(delim)", 8),
            col("steps", 10),
            col("max tuples", 12),
            col("agree", 7),
        ],
    );
    let sizes = [8usize, 16, 32, 64];
    // Prepare (serial): unique ids mutate the vocabulary.
    let dts: Vec<DelimTree> = sizes
        .iter()
        .map(|&n| {
            let cfg = TreeGenConfig {
                nodes: n,
                ..base.clone()
            };
            let t = random_tree(&cfg, 5);
            let mut dt = DelimTree::build(&t);
            dt.assign_unique_ids(id, &mut vocab);
            dt
        })
        .collect();
    enum E5Row {
        Trip(TwqError),
        Done(XtmReport, RunReport, Option<Box<Capture>>),
    }
    // Execute (parallel): the xTM and the compiled tw^r walker per size.
    let (rows, telemetry) = scoped_rows(pool, profile, sizes.len(), |i| {
        let dt = &dts[i];
        let xr = match run_xtm_in(
            &machine,
            dt,
            XtmLimits::default(),
            &mut NullCollector,
            &mut gov.guard(),
        ) {
            Ok(r) => r,
            Err(e) => return E5Row::Trip(e),
        };
        if profile && sizes[i] == 64 {
            let (r, cap) = Capture::collect(|mc| {
                run_in(&prog.program, dt, Limits::long_walk(), mc, &mut NullGuard)
            });
            E5Row::Done(xr, r.expect("NullGuard never trips"), Some(Box::new(cap)))
        } else {
            match run_in(
                &prog.program,
                dt,
                Limits::long_walk(),
                &mut NullCollector,
                &mut gov.guard(),
            ) {
                Ok(r) => E5Row::Done(xr, r, None),
                Err(e) => E5Row::Trip(e),
            }
        }
    });
    let mut captured: Option<Box<Capture>> = None;
    for (i, row) in rows.into_iter().enumerate() {
        let n = sizes[i];
        let dn = dts[i].tree().len();
        match row {
            E5Row::Trip(e) => rep.row(&[
                n.into(),
                dn.into(),
                0u64.into(),
                0usize.into(),
                trip_cell(&e),
            ]),
            E5Row::Done(xr, sr, cap) => {
                if let Some(cap) = cap {
                    captured = Some(cap);
                }
                rep.row(&[
                    n.into(),
                    dn.into(),
                    sr.steps.into(),
                    sr.max_store_tuples.into(),
                    (xr.accepted() == sr.accepted()).into(),
                ]);
            }
        }
    }
    if let Some(t) = &telemetry {
        pool_telemetry(rep, prof, "E5", t);
    }
    if let Some(cap) = captured {
        emit_capture(rep, prof, "E5", "n=64", &prog.program, &cap);
    }
    if tracer.active() {
        let (_, t) = traced("run", |c| {
            run_in(
                &prog.program,
                &dts[0],
                Limits::long_walk(),
                c,
                &mut NullGuard,
            )
        });
        tracer.record("E5", t);
    }
}

fn e6_twrl_exptime(
    rep: &mut dyn Reporter,
    prof: &mut Prof,
    tracer: &mut Tracer,
    gov: &Gov,
    pool: &Pool,
) {
    let profile = prof.active;
    rep.experiment(
        "E6",
        "Theorem 7.1(4): tw^{r,l} registers range over subsets (EXPTIME bound)",
    );
    let mut vocab = Vocab::new();
    let cfg0 = TreeGenConfig::example32(&mut vocab, 1, &[1]);
    let a = vocab.attr_opt("a").unwrap();
    rep.table(
        None,
        0,
        &[
            col("k", 4),
            col("accepts", 10),
            col("store tuples", 14),
            col("tw^l-style bound", 22),
            col("tw^{r,l} bound 2^v", 22),
        ],
    );
    let ks = [2usize, 4, 6, 8];
    // Prepare (serial): attribute value pools mutate the vocabulary.
    let items: Vec<(TwProgram, DelimTree)> = ks
        .iter()
        .map(|&k| {
            let values: Vec<Value> = (1..=k as i64).map(|i| vocab.val_int(i)).collect();
            let prog = examples::distinct_values_at_least(&cfg0.symbols, a, k);
            let cfg = TreeGenConfig {
                nodes: 30,
                attributes: vec![(a, values)],
                ..cfg0.clone()
            };
            let t = random_tree(&cfg, 11);
            (prog, DelimTree::build(&t))
        })
        .collect();
    enum E6Row {
        Trip(TwqError),
        Done(RunReport, Option<Box<Capture>>),
    }
    // Execute (parallel): the register walker per k.
    let (rows, telemetry) = scoped_rows(pool, profile, ks.len(), |i| {
        let (prog, dt) = &items[i];
        if profile && ks[i] == 8 {
            let (r, cap) =
                Capture::collect(|mc| run_in(prog, dt, Limits::default(), mc, &mut NullGuard));
            E6Row::Done(r.expect("NullGuard never trips"), Some(Box::new(cap)))
        } else {
            match run_in(
                prog,
                dt,
                Limits::default(),
                &mut NullCollector,
                &mut gov.guard(),
            ) {
                Ok(r) => E6Row::Done(r, None),
                Err(e) => E6Row::Trip(e),
            }
        }
    });
    let mut captured: Option<(TwProgram, Box<Capture>)> = None;
    for (i, row) in rows.into_iter().enumerate() {
        let k = ks[i];
        let (prog, dt) = &items[i];
        let n = dt.tree().len();
        match row {
            E6Row::Trip(e) => rep.row(&[
                k.into(),
                trip_cell(&e),
                0usize.into(),
                (prog.state_count() * n * (k + 1)).into(),
                Cell::str(format!("{}·2^{}", prog.state_count() * n, k)),
            ]),
            E6Row::Done(r, cap) => {
                if let Some(cap) = cap {
                    captured = Some((prog.clone(), cap));
                }
                rep.row(&[
                    k.into(),
                    r.accepted().into(),
                    r.max_store_tuples.into(),
                    (prog.state_count() * n * (k + 1)).into(),
                    Cell::str(format!("{}·2^{}", prog.state_count() * n, k)),
                ]);
            }
        }
    }
    if let Some(t) = &telemetry {
        pool_telemetry(rep, prof, "E6", t);
    }
    if let Some((pr, cap)) = captured {
        emit_capture(rep, prof, "E6", "k=8", &pr, &cap);
    }
    if tracer.active() {
        let (prog, dt) = &items[0];
        let (_, t) = traced("run", |c| {
            run_in(prog, dt, Limits::default(), c, &mut NullGuard)
        });
        tracer.record("E6", t);
    }
}

fn e7_lm_fo(rep: &mut dyn Reporter, tracer: &mut Tracer, gov: &Gov) {
    rep.experiment("E7", "Lemma 4.2: L^m is FO-definable (sentence ≡ decoder)");
    let mut vocab = Vocab::new();
    let markers = Markers::new(2, &mut vocab);
    let data: Vec<Value> = (100..104).map(|i| vocab.val_int(i)).collect();
    let sym = vocab.sym("s");
    let attr = vocab.attr("a");
    rep.table(
        None,
        0,
        &[
            col("m", 3),
            col("formula size", 14),
            col("in-L^m", 8),
            col("out-L^m", 8),
            col("agree", 7),
        ],
    );
    for m in [1usize, 2] {
        let phi = lm_sentence(m, attr, &markers);
        let cfg = HyperGenConfig {
            level: m,
            data: data.clone(),
            max_members: 2,
        };
        let (mut inn, mut out, mut agree) = (0, 0, true);
        let mut trip: Option<TwqError> = None;
        for seed in 0..10u64 {
            let h1 = random_hyperset(&cfg, seed);
            let h2 = random_hyperset(&cfg, seed + 500);
            for (f, g) in [
                (encode(&h1, &markers), encode_shuffled(&h1, &markers, seed)),
                (encode(&h1, &markers), encode(&h2, &markers)),
            ] {
                let mut w = f.clone();
                w.push(markers.hash());
                w.extend(g.iter().copied());
                let expect = in_lm(m, &w, &markers);
                let t = split_string_tree(&f, &g, &markers, sym, attr);
                let got = match eval_sentence_in(&t, &phi, &mut NullCollector, &mut gov.guard()) {
                    Ok(b) => b,
                    Err(e) => {
                        trip = Some(e);
                        continue;
                    }
                };
                agree &= got == expect;
                if expect {
                    inn += 1;
                } else {
                    out += 1;
                }
            }
        }
        let agree_cell = match &trip {
            Some(e) => trip_cell(e),
            None => agree.into(),
        };
        rep.row(&[
            m.into(),
            phi.size().into(),
            Cell::int(inn),
            Cell::int(out),
            agree_cell,
        ]);
    }
    if tracer.active() {
        // Representative: the m=1 sentence on an in-L^m pair, with the
        // quantifier witnesses that satisfy it in the trace.
        let phi = lm_sentence(1, attr, &markers);
        let cfg = HyperGenConfig {
            level: 1,
            data: data.clone(),
            max_members: 2,
        };
        let h = random_hyperset(&cfg, 0);
        let f = encode(&h, &markers);
        let g = encode_shuffled(&h, &markers, 0);
        let t = split_string_tree(&f, &g, &markers, sym, attr);
        let (verdict, mut tr) = traced("eval_sentence", |c| {
            eval_sentence_in(&t, &phi, c, &mut NullGuard)
        });
        tr.root.verdict = verdict.ok().map(Verdict::Bool);
        tracer.record("E7", tr);
    }
}

fn e8_protocol(rep: &mut dyn Reporter, gov: &Gov) {
    rep.experiment(
        "E8",
        "Lemma 4.5: protocol ≡ direct run; alphabet does not grow with input",
    );
    let mut vocab = Vocab::new();
    let markers = Markers::new(2, &mut vocab);
    let data: Vec<Value> = (100..103).map(|i| vocab.val_int(i)).collect();
    let sym = vocab.sym("s");
    let attr = vocab.attr("a");
    let atp_prog = at_most_k_values_program(sym, attr, 4);
    let walker = examples::traversal_program(&[sym]);
    rep.table(
        None,
        0,
        &[
            col("program", 18),
            col("|f|=|g|", 6),
            col("verdict", 8),
            col("messages", 10),
            col("distinct", 10),
            col("crossings", 11),
            col("agree", 7),
        ],
    );
    for (name, prog) in [
        ("atp(at-most-4)", &atp_prog),
        ("walking traversal", &walker),
    ] {
        for len in [2usize, 4, 8, 16, 32] {
            let f: Vec<Value> = (0..len).map(|i| data[i % data.len()]).collect();
            let g: Vec<Value> = (0..len).map(|i| data[(i + 1) % data.len()]).collect();
            let p = match run_protocol_in(
                prog,
                &f,
                &g,
                &markers,
                sym,
                attr,
                Limits::default(),
                &mut NullCollector,
                &mut gov.guard(),
            ) {
                Ok(p) => p,
                Err(e) => {
                    rep.row(&[
                        name.into(),
                        len.into(),
                        trip_cell(&e),
                        0u64.into(),
                        0usize.into(),
                        0u64.into(),
                        Cell::str("-"),
                    ]);
                    continue;
                }
            };
            let t = split_string_tree(&f, &g, &markers, sym, attr);
            let d = twq::automata::run_on_tree(prog, &t, Limits::default());
            rep.row(&[
                name.into(),
                len.into(),
                if p.accepted() { "accept" } else { "reject" }.into(),
                p.messages.into(),
                p.distinct_messages.into(),
                p.crossings.into(),
                (p.accepted() == d.accepted()).into(),
            ]);
        }
    }
}

fn e9_counting(rep: &mut dyn Reporter) {
    rep.experiment(
        "E9",
        "Lemma 4.6 / Theorem 4.1: hypersets out-tower any dialogue bound",
    );
    rep.table(
        None,
        0,
        &[
            col("m", 3),
            col("|D|", 5),
            col("exp_m(|D|) hypersets", 28),
            col("(|Δ|+1)^(2|Δ|) dialogues", 30),
            col("pigeonhole", 12),
        ],
    );
    for row in counting_table(&[1, 2, 3, 4, 5, 6, 7], &[2, 3], 0) {
        rep.row(&[
            u64::from(row.m).into(),
            Cell::int(i64::try_from(row.d).unwrap_or(i64::MAX)),
            row.hypersets.into(),
            row.dialogues.into(),
            match row.pigeonhole {
                Some(true) => "YES",
                Some(false) => "not yet",
                None => "(towering)",
            }
            .into(),
        ]);
    }
}

fn e10_types(rep: &mut dyn Reporter) {
    rep.experiment(
        "E10",
        "Lemma 4.3(2): realized ≡_k classes stay bounded as strings grow",
    );
    let mut vocab = Vocab::new();
    let s = vocab.sym("s");
    let a = vocab.attr("a");
    let pool: Vec<Value> = [1i64, 2].iter().map(|&i| vocab.val_int(i)).collect();
    let cfg = TypeConfig {
        k: 1,
        labels: vec![Label::Sym(s)],
        attrs: vec![a],
        dvalues: pool.clone(),
    };
    rep.table(
        None,
        0,
        &[
            col("max len", 8),
            col("# strings", 10),
            col("# ≡_1 classes", 16),
        ],
    );
    for max_len in [2usize, 3, 4, 5] {
        let mut trees = Vec::new();
        for len in 1..=max_len {
            for mask in 0..(1u32 << len) {
                let vals: Vec<Value> = (0..len)
                    .map(|i| pool[usize::from(mask >> i & 1 == 1)])
                    .collect();
                trees.push(monadic_tree(s, a, &vals));
            }
        }
        let classes = count_classes(trees.iter(), &cfg);
        rep.row(&[max_len.into(), trees.len().into(), classes.into()]);
    }
    // Lemma 4.3(1) companion: types compose over concatenation (the
    // checker panics on any violation).
    let checked = twq::logic::types::check_composition_on_strings(s, a, &pool, 4, &cfg);
    rep.note(&format!(
        "Lemma 4.3(1) composition: {checked} class pairs verified, no violations"
    ));
}

fn e11_xtm_vs_tm(rep: &mut dyn Reporter, gov: &Gov) {
    rep.experiment(
        "E11",
        "Theorem 6.2: xTM on trees ≡ ordinary TM on encodings",
    );
    let mut vocab = Vocab::new();
    let base = TreeGenConfig::example32(&mut vocab, 1, &[1]);
    let pairs: Vec<(&str, twq::xtm::Xtm, twq::xtm::Tm)> = vec![
        (
            "leaf_count_even",
            machines::leaf_count_even(&base.symbols),
            tm_leaf_count_even(),
        ),
        (
            "node_count_even",
            machines::node_count_even(&base.symbols),
            twq::xtm::tm::tm_node_count_even(),
        ),
        (
            "leftmost_depth_even",
            machines::leftmost_depth_even(&base.symbols),
            twq::xtm::tm::tm_leftmost_depth_even(),
        ),
    ];
    rep.table(
        None,
        0,
        &[
            col("language", 20),
            col("n", 6),
            col("xTM steps", 11),
            col("TM steps", 11),
            col("|encoding|", 12),
            col("agree", 7),
        ],
    );
    for (name, xtm, tm) in &pairs {
        for n in [30usize, 90, 270] {
            let cfg = TreeGenConfig {
                nodes: n,
                ..base.clone()
            };
            let t = random_tree(&cfg, 13);
            let dt = DelimTree::build(&t);
            let input = to_bytes(&xenc(&t, &[]).expect("generated trees have no delimiters"));
            let xr = match run_xtm_in(
                xtm,
                &dt,
                XtmLimits::default(),
                &mut NullCollector,
                &mut gov.guard(),
            ) {
                Ok(r) => r,
                Err(e) => {
                    rep.row(&[
                        (*name).into(),
                        n.into(),
                        0u64.into(),
                        0u64.into(),
                        input.len().into(),
                        trip_cell(&e),
                    ]);
                    continue;
                }
            };
            let tr = run_tm(tm, &input, 100_000_000);
            rep.row(&[
                (*name).into(),
                n.into(),
                xr.steps.into(),
                tr.steps.into(),
                input.len().into(),
                (xr.accepted() == tr.accepted()).into(),
            ]);
        }
    }
}

fn e12_prop72(rep: &mut dyn Reporter, gov: &Gov) {
    rep.experiment(
        "E12",
        "Proposition 7.2 (A=∅): store folds into states, language preserved",
    );
    let mut vocab = Vocab::new();
    let base = TreeGenConfig::example32(&mut vocab, 1, &[]);
    let sigma = Label::Sym(base.symbols[0]);
    let delta = Label::Sym(base.symbols[1]);
    let src = delta_count_mod3(sigma, delta, &mut vocab);
    let folded = match eliminate_store_guarded(&src, 10_000, &mut gov.guard()) {
        Ok(p) => p,
        Err(e) => {
            rep.note(&format!("store elimination limit-tripped: {e}"));
            return;
        }
    };
    rep.note(&format!(
        "source: {} states, {} registers ({}); folded: {} states, {} registers ({})",
        src.state_count(),
        src.reg_count(),
        src.classify(),
        folded.state_count(),
        folded.reg_count(),
        folded.classify()
    ));
    rep.table(
        None,
        0,
        &[
            col("n", 6),
            col("src", 9),
            col("folded", 9),
            col("agree", 7),
        ],
    );
    for n in [30usize, 90, 270] {
        let cfg = TreeGenConfig {
            nodes: n,
            ..base.clone()
        };
        let t = random_tree(&cfg, 17);
        let dt = DelimTree::build(&t);
        let governed = |p: &TwProgram| {
            run_in(
                p,
                &dt,
                Limits::default(),
                &mut NullCollector,
                &mut gov.guard(),
            )
        };
        let (a, b) = match (governed(&src), governed(&folded)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                rep.row(&[n.into(), Cell::str("-"), Cell::str("-"), trip_cell(&e)]);
                continue;
            }
        };
        rep.row(&[
            n.into(),
            if a.accepted() { "accept" } else { "reject" }.into(),
            if b.accepted() { "accept" } else { "reject" }.into(),
            (a.accepted() == b.accepted()).into(),
        ]);
    }
}

fn e13_alternation(rep: &mut dyn Reporter, gov: &Gov) {
    rep.experiment(
        "E13",
        "Alternation (ALOGSPACE=PTIME bridge): alternating xTM configs grow linearly",
    );
    let mut vocab = Vocab::new();
    let base = TreeGenConfig::example32(&mut vocab, 1, &[]);
    let m = machines::alt_all_leaves_even_depth(&base.symbols);
    rep.table(
        None,
        0,
        &[
            col("n", 6),
            col("verdict", 9),
            col("configs", 10),
            col("configs/node", 14),
        ],
    );
    for n in [20usize, 60, 180, 540] {
        let cfg = TreeGenConfig {
            nodes: n,
            ..base.clone()
        };
        let t = random_tree(&cfg, 19);
        let dt = DelimTree::build(&t);
        let r = match run_alternating_guarded(&m, &dt, XtmLimits::default(), &mut gov.guard()) {
            Ok(r) => r,
            Err(e) => {
                rep.row(&[n.into(), trip_cell(&e), 0usize.into(), Cell::float(0.0, 2)]);
                continue;
            }
        };
        rep.row(&[
            n.into(),
            if r.accepted { "accept" } else { "reject" }.into(),
            r.configs.into(),
            Cell::float(r.configs as f64 / dt.tree().len() as f64, 2),
        ]);
    }
}
