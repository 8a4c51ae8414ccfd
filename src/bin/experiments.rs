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
//! Each experiment is one [`Experiment`] entry of [`EXPERIMENTS`]: its
//! id, the claim it exercises, and a `run` that prepares its inputs
//! serially and hands them to the [`Session`], which has exactly two
//! paths. [`Session::sweep`] computes each input's row on the `--jobs`
//! pool and prints the rows in input order, so every table is the same
//! for any worker count. [`Session::profile`] and [`Session::trace`]
//! re-run one representative input ungoverned, and are no-ops unless
//! their flag is on. E0, E9 and E10 call no governed evaluator and print
//! their tables directly.
//!
//! `--profile` times every sweep's rows (p50/p90/p99 latency histograms)
//! and prints the pool's per-worker telemetry. It re-runs one
//! representative workload per complexity-class experiment (E1 n=540, E3
//! n=8, E4 n=20, E5 n=64, E6 k=8) under the collector pair
//! `(MetricsCollector, (FlameProfiler, Tail))` and reports the top-k
//! states by interpreter steps — per-state evidence for the theorem's
//! resource claim. The table rows themselves are the same governed calls
//! as without the flag. It prints the [`Tail`]'s last 16 hook calls as a
//! post-mortem when a profiled run halts abnormally (`Stuck`/
//! `Nondeterministic` or any guard-limit halt), and closes with a `PROF`
//! summary of the session's metric registry. `--flame <path>` (implies
//! `--profile`) additionally writes the profiled runs' self-time stacks in
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use twq::analyze::{analyze, prune, severity_counts};
use twq::automata::{examples, run_graph, run_in, Limits, State, TwClass, TwProgram};
use twq::exec::Pool;
use twq::guard::{FaultPlan, NullGuard, ResourceGuard, TripReason, TwqError};
use twq::logic::types::{count_classes, TypeConfig};
use twq::logic::{eval_sentence_in, Formula};
use twq::obs::{
    col, write_stdout, Cell, Collector, FlameProfiler, HaltKind, Histogram, HumanReporter,
    JsonlReporter, MetricsCollector, NullCollector, Registry, Reporter, Tail, TraceCollector,
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
use twq::tree::{DelimTree, Label, Tree, Value, Vocab};
use twq::xpath::{compile, eval_from_in, parse_xpath, XPath};
use twq::xtm::machine::{run_xtm_in, XtmLimits};
use twq::xtm::tm::tm_leaf_count_even;
use twq::xtm::{encode as xenc, machines, run_alternating_guarded, run_tm, to_bytes, Xtm};

/// One experiment: the table header's id and claim, and the body that
/// prepares its inputs and drives the [`Session`].
struct Experiment {
    id: &'static str,
    claim: &'static str,
    run: fn(&mut Session),
}

/// Every experiment, in output order. E0 runs only under `--analyze`.
const EXPERIMENTS: [Experiment; 14] = [
    Experiment {
        id: "E0",
        claim: "static analysis: class inference and prune over all programs",
        run: e0_analyze,
    },
    Experiment {
        id: "E1",
        claim: "Example 3.2: the worked tw^{r,l} automaton vs its oracle",
        run: e1_example32,
    },
    Experiment {
        id: "E2",
        claim: "Section 2.3: XPath ≡ compiled FO(∃*) selector",
        run: e2_xpath,
    },
    Experiment {
        id: "E3",
        claim: "Theorem 7.1(1): logspace xTM ≡ compiled TW pebble walker (unique IDs)",
        run: e3_logspace_pebbles,
    },
    Experiment {
        id: "E4",
        claim: "Theorem 7.1(2): tw^l configuration count grows polynomially (PTIME)",
        run: e4_twl_ptime,
    },
    Experiment {
        id: "E5",
        claim: "Theorem 7.1(3): compiled tw^r keeps a linear store (PSPACE shape)",
        run: e5_twr_pspace,
    },
    Experiment {
        id: "E6",
        claim: "Theorem 7.1(4): tw^{r,l} registers range over subsets (EXPTIME bound)",
        run: e6_twrl_exptime,
    },
    Experiment {
        id: "E7",
        claim: "Lemma 4.2: L^m is FO-definable (sentence ≡ decoder)",
        run: e7_lm_fo,
    },
    Experiment {
        id: "E8",
        claim: "Lemma 4.5: protocol ≡ direct run; alphabet does not grow with input",
        run: e8_protocol,
    },
    Experiment {
        id: "E9",
        claim: "Lemma 4.6 / Theorem 4.1: hypersets out-tower any dialogue bound",
        run: e9_counting,
    },
    Experiment {
        id: "E10",
        claim: "Lemma 4.3(2): realized ≡_k classes stay bounded as strings grow",
        run: e10_types,
    },
    Experiment {
        id: "E11",
        claim: "Theorem 6.2: xTM on trees ≡ ordinary TM on encodings",
        run: e11_xtm_vs_tm,
    },
    Experiment {
        id: "E12",
        claim: "Proposition 7.2 (A=∅): store folds into states, language preserved",
        run: e12_prop72,
    },
    Experiment {
        id: "E13",
        claim: "Alternation (ALOGSPACE=PTIME bridge): alternating xTM configs grow linearly",
        run: e13_alternation,
    },
];

/// Resource-governance settings from `--budget`, `--timeout`, `--faults`,
/// and the trips of the rows they governed. Each evaluator call gets a
/// **fresh** guard built from these, so the budget and deadline are per
/// invocation, not per sweep; with no flag set the guard is unlimited and
/// never trips.
#[derive(Default)]
struct Gov {
    budget: Option<u64>,
    timeout_ms: Option<u64>,
    faults: Option<FaultPlan>,
    /// Rows that ended in `limit-tripped(..)`, by [`TRIP_REASONS`] index
    /// (rows run on pool workers, hence atomics). The `--profile` summary
    /// reports them as `guard/trips/<reason>`; `--strict` fails on any.
    trips: [AtomicU64; 6],
}

/// The reasons a governed row trips on, in [`Gov::trips`] order.
const TRIP_REASONS: [&str; 6] = ["budget", "deadline", "depth", "mem", "cancelled", "error"];

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

    /// The row marker for a governed run that hit a limit, counted once
    /// per row.
    fn trip(&self, e: &TwqError) -> Cell {
        let idx = match e.guard().map(|g| &g.reason) {
            Some(TripReason::Budget { .. }) => 0,
            Some(TripReason::Deadline { .. }) => 1,
            Some(TripReason::Depth { .. }) => 2,
            Some(TripReason::Mem { .. }) => 3,
            Some(TripReason::Cancelled) => 4,
            None => 5,
        };
        self.trips[idx].fetch_add(1, Ordering::Relaxed);
        Cell::str(format!("limit-tripped({})", TRIP_REASONS[idx]))
    }
}

/// What `--profile` accumulates across the session.
#[derive(Default)]
struct Prof {
    /// Sweep latency histograms, pool telemetry totals, per-run step
    /// counters, guard trips: dumped as the closing `PROF` section.
    registry: Registry,
    /// Flamegraph-collapsed lines of the profiled runs, each prefixed
    /// with its experiment id; `--flame` writes them.
    flame: String,
}

/// One representative call a `--profile` or `--trace` re-run makes,
/// always ungoverned.
enum Probe<'a> {
    Run(&'a TwProgram, &'a DelimTree, Limits),
    Xtm(&'a Xtm, &'a DelimTree),
    Xpath(&'a Tree, &'a XPath),
    Sentence(&'a Tree, &'a Formula),
}

impl Probe<'_> {
    /// Make the call under `c`. Returns the evaluator's name and, for the
    /// calls that answer with a value rather than a run report, the
    /// verdict a trace's root should carry.
    fn call<C: Collector>(self, c: &mut C) -> (&'static str, Option<Verdict>) {
        match self {
            Probe::Run(prog, dt, limits) => {
                let _ = run_in(prog, dt, limits, c, &mut NullGuard);
                ("run", None)
            }
            Probe::Xtm(m, dt) => {
                let _ = run_xtm_in(m, dt, XtmLimits::default(), c, &mut NullGuard);
                ("run_xtm", None)
            }
            Probe::Xpath(t, path) => {
                let out = eval_from_in(t, path, t.root(), c, &mut NullGuard);
                ("xpath", out.ok().map(|s| Verdict::Bool(!s.is_empty())))
            }
            Probe::Sentence(t, phi) => {
                let out = eval_sentence_in(t, phi, c, &mut NullGuard);
                ("eval_sentence", out.ok().map(Verdict::Bool))
            }
        }
    }
}

/// One `experiments` invocation: where rows go, the pool that computes
/// them, the governance they run under, and the instrumentation the flags
/// chose.
struct Session<'a> {
    rep: &'a mut dyn Reporter,
    /// Rows are computed across this pool (default: all cores) and
    /// printed serially in input order; `--jobs 1` computes them inline.
    pool: Pool,
    gov: Gov,
    /// `--collisions K`: E1's generated trees draw attribute values from
    /// a `K`-value per-seed pool.
    collisions: Option<usize>,
    /// `Some` under `--profile` (or `--flame`).
    prof: Option<Prof>,
    /// `Some` under `--trace`: one JSONL line per recorded trace.
    traces: Option<Vec<String>>,
}

impl Session<'_> {
    /// Compute one row of cells per input on the pool, and print the rows
    /// in input order. Under `--profile`, also print the rows' wall-clock
    /// latencies and the pool's per-worker telemetry, and fold both into
    /// the registry (`latency/<id>` histogram, `pool/*` counters).
    fn sweep<I: Sync>(
        &mut self,
        id: &str,
        inputs: &[I],
        row: impl Fn(&Gov, &I) -> Vec<Cell> + Sync,
    ) {
        let gov = &self.gov;
        let (rows, stats) = self.pool.scoped_with_stats(inputs.len(), |i| {
            let t0 = Instant::now();
            let cells = row(gov, &inputs[i]);
            (
                cells,
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            )
        });
        let mut h = Histogram::new();
        for (cells, ns) in &rows {
            self.rep.row(cells);
            h.record(*ns);
        }
        let Some(prof) = &mut self.prof else { return };
        self.rep
            .note(&format!("latency ({id}): {}", h.summary("ns")));
        self.rep.table(
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
            self.rep.row(&[
                w.into(),
                ws.tasks.into(),
                ws.steals.into(),
                ws.steal_failures.into(),
                ws.idle_spins.into(),
                ws.chunk.into(),
            ]);
        }
        prof.registry.hist_merge(&format!("latency/{id}"), &h);
        let tot = stats.totals();
        prof.registry.counter_add("pool/tasks", tot.tasks);
        prof.registry.counter_add("pool/steals", tot.steals);
        prof.registry
            .counter_add("pool/steal_failures", tot.steal_failures);
        prof.registry.counter_add("pool/idle_spins", tot.idle_spins);
    }

    /// `--profile`: re-run `prog` on `dt` under `(MetricsCollector,
    /// (FlameProfiler, Tail))` and print the run's one-line summary, its
    /// top states by interpreter steps, its top self-time stacks, and a
    /// tail post-mortem when it halted abnormally; feed the registry and
    /// `--flame`.
    fn profile(&mut self, id: &str, what: &str, prog: &TwProgram, dt: &DelimTree, limits: Limits) {
        let Some(prof) = &mut self.prof else { return };
        let mut c = (
            MetricsCollector::new(),
            (FlameProfiler::new(), Tail::new(16)),
        );
        Probe::Run(prog, dt, limits).call(&mut c);
        let (mc, (flame, tail)) = c;
        let m = mc.into_metrics();
        let rep = &mut *self.rep;
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
        let namer = |q: u32| prog.state_name(State(q as u16)).to_owned();
        rep.table(
            Some("hot-states"),
            2,
            &[col("state", 20), col("steps", 10), col("share", 7)],
        );
        for (q, steps) in m.top_states(5) {
            rep.row(&[
                Cell::str(namer(q)),
                steps.into(),
                Cell::float(steps as f64 / m.steps.max(1) as f64, 3),
            ]);
        }
        if !flame.is_empty() {
            rep.table(
                Some("self-time"),
                2,
                &[col("stack", 44), col("samples", 9), col("share", 7)],
            );
            let total = flame.total_weight().max(1);
            for (stack, w) in flame.top_self(5, namer) {
                rep.row(&[
                    Cell::str(stack),
                    w.into(),
                    Cell::float(w as f64 / total as f64, 3),
                ]);
            }
        }
        // Anomalous halts get a flight-recorder dump: stuck walks,
        // nondeterministic splits, and guard trips (fuel, deadline, and
        // depth limit halts), which would otherwise vanish into a bare
        // `limit-tripped` row marker.
        if matches!(
            m.halt,
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
                m.halt.map_or("?", |h| h.name()),
                tail.len()
            ));
            for line in tail.post_mortem().lines() {
                rep.note(&format!("  {line}"));
            }
        }
        prof.flame.push_str(&flame.collapsed_with(id, namer));
        prof.registry
            .counter_add(&format!("run/{id}/steps"), m.steps);
        prof.registry
            .counter_add(&format!("run/{id}/samples"), flame.total_weight());
    }

    /// `--trace`: re-run `probe` under a [`TraceCollector`] and record the
    /// causal trace as one JSONL line labeled `<id>:<evaluator>`.
    fn trace(&mut self, id: &str, probe: Probe) {
        let Some(lines) = &mut self.traces else {
            return;
        };
        let mut c = TraceCollector::new();
        let (label, verdict) = probe.call(&mut c);
        let mut t = c.finish(label);
        if verdict.is_some() {
            t.root.verdict = verdict;
        }
        t.label = format!("{id}:{label}");
        lines.push(t.to_json_line());
    }

    /// The closing `PROF` section: everything the session registry
    /// accumulated — pool telemetry totals, per-run step counters, guard
    /// trips, and the latency histograms with their quantiles.
    fn prof_summary(&mut self) {
        let Some(prof) = &mut self.prof else { return };
        for (name, count) in TRIP_REASONS.iter().zip(&self.gov.trips) {
            let n = count.load(Ordering::Relaxed);
            if n > 0 {
                prof.registry.counter_add(&format!("guard/trips/{name}"), n);
            }
        }
        let rep = &mut *self.rep;
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
    let mut rep: Box<dyn Reporter> = if json {
        Box::new(JsonlReporter::stdout())
    } else {
        Box::new(HumanReporter::stdout())
    };
    let mut s = Session {
        rep: rep.as_mut(),
        pool: jobs.map_or_else(Pool::with_default_parallelism, Pool::new),
        gov,
        collisions,
        // `--flame` needs the profiled runs it dumps stacks for.
        prof: (profile || flame_path.is_some()).then(Prof::default),
        traces: trace_path.as_ref().map(|_| Vec::new()),
    };
    if s.gov.active() {
        let g = &s.gov;
        s.rep.note(&format!(
            "governance: budget {:?}, timeout {:?} ms, fault plan {} (per invocation)",
            g.budget,
            g.timeout_ms,
            g.faults
                .as_ref()
                .map_or_else(|| "none".to_owned(), |p| p.to_string())
        ));
    }
    if let Some(k) = collisions {
        s.rep.note(&format!(
            "collisions: generated trees draw attribute values from a {k}-value per-seed pool"
        ));
    }
    for e in EXPERIMENTS.iter().filter(|e| do_analyze || e.id != "E0") {
        s.rep.experiment(e.id, e.claim);
        (e.run)(&mut s);
    }
    s.prof_summary();
    if let (Some(path), Some(prof)) = (&flame_path, &s.prof) {
        if let Err(e) = std::fs::write(path, &prof.flame) {
            eprintln!("--flame: cannot write {path}: {e}");
            std::process::exit(4);
        }
        s.rep.note(&format!(
            "flame: wrote {} stack line(s) to {path}",
            prof.flame.lines().count()
        ));
    }
    if let (Some(path), Some(lines)) = (&trace_path, &s.traces) {
        if let Err(e) = std::fs::write(path, lines.join("\n") + "\n") {
            eprintln!("--trace: cannot write {path}: {e}");
            std::process::exit(4);
        }
        s.rep.note(&format!(
            "trace: wrote {} causal trace(s) to {path}",
            lines.len()
        ));
    }
    if strict && s.gov.trips.iter().any(|n| n.load(Ordering::Relaxed) > 0) {
        eprintln!("--strict: at least one row ended in limit-tripped");
        std::process::exit(3);
    }
    if !json {
        write_stdout("\nall experiments completed.\n", 0);
    }
}

/// The `--analyze` view: every program the sweeps run, through the full
/// static analyzer — inferred class, diagnostic counts, and what the
/// semantics-preserving prune would remove. E1 and E4 actually run the
/// pruned program (see their notes); this table is the evidence that the
/// rest are already clean.
fn e0_analyze(s: &mut Session) {
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
    s.rep.table(
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
        s.rep.row(&[
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

fn e1_example32(s: &mut Session) {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    // The sweep runs the statically pruned program — identical language
    // by construction (twq-analyze), so the oracle agreement below also
    // certifies the prune.
    let pruned = prune(&ex.program);
    let prog = pruned.program;
    s.rep.note(&format!(
        "pre-pruned: {} rule(s), {} state(s) removed",
        pruned.removed_rules.len(),
        pruned.removed_states.len()
    ));
    s.rep.table(
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
    // Generator configs need the vocabulary. Half the trials use a
    // single-value pool (always accepted) so the table shows both
    // verdicts at every size; `--collisions K` draws attribute values
    // from a K-value per-seed pool (the twq-fuzz hostile corpus knob).
    let inputs: Vec<(usize, TreeGenConfig, TreeGenConfig)> = [20usize, 60, 180, 540]
        .iter()
        .map(|&n| {
            let mut mixed = TreeGenConfig::example32(&mut vocab, n, &[1, 2]);
            let mut uniform = TreeGenConfig::example32(&mut vocab, n, &[7]);
            mixed.collision_pool = s.collisions;
            uniform.collision_pool = s.collisions;
            (n, mixed, uniform)
        })
        .collect();
    s.sweep("E1", &inputs, |gov, (n, mixed, uniform)| {
        let (mut acc, mut steps, mut subs, mut configs, mut agree) = (0u64, 0u64, 0u64, 0u64, true);
        let mut done = 0u64;
        let mut trip: Option<TwqError> = None;
        for seed in 0..10 {
            let t = random_tree(if seed % 2 == 0 { mixed } else { uniform }, seed);
            let dt = DelimTree::build(&t);
            let limits = Limits::default();
            let r = match run_in(&prog, &dt, limits, &mut NullCollector, &mut gov.guard()) {
                Ok(r) => r,
                Err(e) => {
                    trip = Some(e);
                    continue;
                }
            };
            let g = run_graph(&prog, &dt, limits);
            let oracle = examples::oracle_example_32(&t, ex.delta, ex.attr);
            agree &= r.accepted() == oracle && g.accepted() == oracle;
            acc += u64::from(r.accepted());
            steps += r.steps;
            subs += r.subcomputations;
            configs += g.distinct_configs as u64;
            done += 1;
        }
        let d = done.max(1);
        vec![
            (*n).into(),
            Cell::str(format!("{acc}/{done}")),
            (steps / d).into(),
            (subs / d).into(),
            (configs / d).into(),
            trip.map_or(agree.into(), |e| gov.trip(&e)),
        ]
    });
    // The representative inputs: each size's seed-0 tree.
    let seed0 = |i: usize| DelimTree::build(&random_tree(&inputs[i].1, 0));
    s.profile("E1", "n=540, seed 0", &prog, &seed0(3), Limits::default());
    s.trace("E1", Probe::Run(&prog, &seed0(1), Limits::default()));
}

fn e2_xpath(s: &mut Session) {
    let mut vocab = Vocab::new();
    let queries = [
        "sigma/delta",
        "//delta[sigma]",
        "sigma//sigma[@a=1] | delta",
    ];
    s.rep.table(
        None,
        0,
        &[
            col("n", 6),
            col("query", 34),
            col("selected", 9),
            col("agree", 7),
        ],
    );
    // Trees and parsed queries need the vocabulary.
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
    // Direct evaluation vs the compiled selector.
    s.sweep("E2", &inputs, |gov, &(n, q, ti, ref path)| {
        let t = &trees[ti];
        match eval_from_in(t, path, t.root(), &mut NullCollector, &mut gov.guard()) {
            Ok(d) => {
                let agree = d == compile(path).select(t, t.root());
                vec![n.into(), q.into(), d.len().into(), agree.into()]
            }
            Err(e) => vec![n.into(), q.into(), 0usize.into(), gov.trip(&e)],
        }
    });
    // Representative: the smallest tree under the union-with-filter
    // query — each axis step's node frontier lands in the trace.
    let (_, _, ti, path) = &inputs[2];
    s.trace("E2", Probe::Xpath(&trees[*ti], path));
}

fn e3_logspace_pebbles(s: &mut Session) {
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
        let compiled =
            compile_logspace_guarded(&machine, &base.symbols, id, &mut vocab, &mut s.gov.guard());
        let prog = match compiled {
            Ok(p) => p.program,
            Err(e) => {
                s.rep
                    .note(&format!("{name}: compilation limit-tripped: {e}"));
                continue;
            }
        };
        s.rep.note(&format!(
            "{name}: compiled to class {} ({} states, {} pebble registers)",
            prog.classify(),
            prog.state_count(),
            prog.reg_count()
        ));
        s.rep.table(
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
        // Trees and unique ids need the vocabulary. Chains give
        // leftmost_depth_even a growing spine; random trees exercise
        // leaf_count_even. The leaf count of a chain is 1 (odd), and the
        // spine is n-1.
        let inputs: Vec<(usize, DelimTree)> = [4usize, 6, 8]
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
                (n, dt)
            })
            .collect();
        // The xTM and the compiled walker per size.
        s.sweep("E3", &inputs, |gov, (n, dt)| {
            let xr = match run_xtm_in(
                &machine,
                dt,
                XtmLimits::default(),
                &mut NullCollector,
                &mut gov.guard(),
            ) {
                Ok(r) => r,
                Err(e) => {
                    return vec![
                        (*n).into(),
                        0u64.into(),
                        0usize.into(),
                        0u64.into(),
                        gov.trip(&e),
                    ]
                }
            };
            let pr = run_in(
                &prog,
                dt,
                Limits::long_walk(),
                &mut NullCollector,
                &mut gov.guard(),
            );
            let (tw_steps, agree) = match pr {
                Ok(pr) => (pr.steps, (xr.accepted() == pr.accepted()).into()),
                Err(e) => (0, gov.trip(&e)),
            };
            vec![
                (*n).into(),
                xr.steps.into(),
                xr.space.into(),
                tw_steps.into(),
                agree,
            ]
        });
        s.profile("E3", "n=8", &prog, &inputs[2].1, Limits::long_walk());
        // Both sides of the Theorem 7.1(1) equivalence, on the smallest
        // tree: the xTM and its compiled pebble walker.
        let dt = &inputs[0].1;
        s.trace(&format!("E3/{name}/xtm"), Probe::Xtm(&machine, dt));
        let walker = Probe::Run(&prog, dt, Limits::long_walk());
        s.trace(&format!("E3/{name}"), walker);
    }
}

fn e4_twl_ptime(s: &mut Session) {
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
    s.rep.note(&format!(
        "pre-pruned: {} rule(s), {} state(s) removed",
        pruned.removed_rules.len(),
        pruned.removed_states.len()
    ));
    s.rep.table(
        None,
        0,
        &[
            col("n", 6),
            col("configs", 12),
            col("configs/node", 14),
            col("bound |Q|·N·(n+1)", 18),
        ],
    );
    // Every node gets a distinct value, so no parent-child match exists
    // and the program performs its full polynomial sweep (worst case).
    // Attribute values need the vocabulary.
    let inputs: Vec<(usize, DelimTree)> = [20usize, 60, 180, 540]
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
            (n, DelimTree::build(&t))
        })
        .collect();
    // The breadth-first configuration sweep per size. The direct engine
    // is the governed witness: if the workload fits the guard there, the
    // sweep is measured ungoverned.
    s.sweep("E4", &inputs, |gov, &(n, ref dt)| {
        let witness = run_in(
            &prog,
            dt,
            Limits::default(),
            &mut NullCollector,
            &mut gov.guard(),
        );
        if let Err(e) = witness {
            return vec![n.into(), 0usize.into(), Cell::float(0.0, 2), gov.trip(&e)];
        }
        let g = run_graph(&prog, dt, Limits::default());
        assert!(!g.accepted(), "distinct values admit no match");
        let dn = dt.tree().len();
        let bound = prog.state_count() * dn * (n + 1);
        assert!(g.distinct_configs <= bound);
        vec![
            n.into(),
            g.distinct_configs.into(),
            Cell::float(g.distinct_configs as f64 / dn as f64, 2),
            bound.into(),
        ]
    });
    let dt = &inputs[0].1;
    s.profile("E4", "direct engine, n=20", &prog, dt, Limits::default());
    s.trace("E4", Probe::Run(&prog, dt, Limits::default()));
}

fn e5_twr_pspace(s: &mut Session) {
    let mut vocab = Vocab::new();
    let base = TreeGenConfig::example32(&mut vocab, 1, &[1]);
    let id = vocab.attr("id");
    let machine = machines::leaf_count_even(&base.symbols);
    let prog =
        match compile_pspace_guarded(&machine, &base.symbols, id, &mut vocab, &mut s.gov.guard()) {
            Ok(p) => p.program,
            Err(e) => {
                s.rep.note(&format!("compilation limit-tripped: {e}"));
                return;
            }
        };
    s.rep.table(
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
    // Unique ids mutate the vocabulary.
    let inputs: Vec<(usize, DelimTree)> = [8usize, 16, 32, 64]
        .iter()
        .map(|&n| {
            let cfg = TreeGenConfig {
                nodes: n,
                ..base.clone()
            };
            let mut dt = DelimTree::build(&random_tree(&cfg, 5));
            dt.assign_unique_ids(id, &mut vocab);
            (n, dt)
        })
        .collect();
    // The xTM and the compiled tw^r walker per size.
    s.sweep("E5", &inputs, |gov, &(n, ref dt)| {
        let dn = dt.tree().len();
        let runs = run_xtm_in(
            &machine,
            dt,
            XtmLimits::default(),
            &mut NullCollector,
            &mut gov.guard(),
        )
        .and_then(|xr| {
            let sr = run_in(
                &prog,
                dt,
                Limits::long_walk(),
                &mut NullCollector,
                &mut gov.guard(),
            )?;
            Ok((xr, sr))
        });
        match runs {
            Ok((xr, sr)) => vec![
                n.into(),
                dn.into(),
                sr.steps.into(),
                sr.max_store_tuples.into(),
                (xr.accepted() == sr.accepted()).into(),
            ],
            Err(e) => vec![
                n.into(),
                dn.into(),
                0u64.into(),
                0usize.into(),
                gov.trip(&e),
            ],
        }
    });
    s.profile("E5", "n=64", &prog, &inputs[3].1, Limits::long_walk());
    s.trace("E5", Probe::Run(&prog, &inputs[0].1, Limits::long_walk()));
}

fn e6_twrl_exptime(s: &mut Session) {
    let mut vocab = Vocab::new();
    let cfg0 = TreeGenConfig::example32(&mut vocab, 1, &[1]);
    let a = vocab.attr_opt("a").unwrap();
    s.rep.table(
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
    // Attribute value pools mutate the vocabulary.
    let inputs: Vec<(usize, TwProgram, DelimTree)> = [2usize, 4, 6, 8]
        .iter()
        .map(|&k| {
            let values: Vec<Value> = (1..=k as i64).map(|i| vocab.val_int(i)).collect();
            let prog = examples::distinct_values_at_least(&cfg0.symbols, a, k);
            let cfg = TreeGenConfig {
                nodes: 30,
                attributes: vec![(a, values)],
                ..cfg0.clone()
            };
            (k, prog, DelimTree::build(&random_tree(&cfg, 11)))
        })
        .collect();
    // The register walker per k.
    s.sweep("E6", &inputs, |gov, &(k, ref prog, ref dt)| {
        let run = run_in(
            prog,
            dt,
            Limits::default(),
            &mut NullCollector,
            &mut gov.guard(),
        );
        let (accepts, tuples) = match run {
            Ok(r) => (r.accepted().into(), r.max_store_tuples),
            Err(e) => (gov.trip(&e), 0),
        };
        let states = prog.state_count() * dt.tree().len();
        vec![
            k.into(),
            accepts,
            tuples.into(),
            (states * (k + 1)).into(),
            Cell::str(format!("{states}·2^{k}")),
        ]
    });
    let (_, prog, dt) = &inputs[3];
    s.profile("E6", "k=8", prog, dt, Limits::default());
    let (_, prog, dt) = &inputs[0];
    s.trace("E6", Probe::Run(prog, dt, Limits::default()));
}

fn e7_lm_fo(s: &mut Session) {
    let mut vocab = Vocab::new();
    let markers = Markers::new(2, &mut vocab);
    let data: Vec<Value> = (100..104).map(|i| vocab.val_int(i)).collect();
    let sym = vocab.sym("s");
    let attr = vocab.attr("a");
    s.rep.table(
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
    let hypersets = |m: usize| HyperGenConfig {
        level: m,
        data: data.clone(),
        max_members: 2,
    };
    s.sweep("E7", &[1usize, 2], |gov, &m| {
        let phi = lm_sentence(m, attr, &markers);
        let cfg = hypersets(m);
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
                match eval_sentence_in(&t, &phi, &mut NullCollector, &mut gov.guard()) {
                    Ok(got) => agree &= got == expect,
                    Err(e) => {
                        trip = Some(e);
                        continue;
                    }
                }
                if expect {
                    inn += 1;
                } else {
                    out += 1;
                }
            }
        }
        vec![
            m.into(),
            phi.size().into(),
            Cell::int(inn),
            Cell::int(out),
            trip.map_or(agree.into(), |e| gov.trip(&e)),
        ]
    });
    // Representative: the m=1 sentence on an in-L^m pair, with the
    // quantifier witnesses that satisfy it in the trace.
    let h = random_hyperset(&hypersets(1), 0);
    let (f, g) = (encode(&h, &markers), encode_shuffled(&h, &markers, 0));
    let t = split_string_tree(&f, &g, &markers, sym, attr);
    s.trace("E7", Probe::Sentence(&t, &lm_sentence(1, attr, &markers)));
}

fn e8_protocol(s: &mut Session) {
    let mut vocab = Vocab::new();
    let markers = Markers::new(2, &mut vocab);
    let data: Vec<Value> = (100..103).map(|i| vocab.val_int(i)).collect();
    let sym = vocab.sym("s");
    let attr = vocab.attr("a");
    let atp_prog = at_most_k_values_program(sym, attr, 4);
    let walker = examples::traversal_program(&[sym]);
    s.rep.table(
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
    let mut inputs = Vec::new();
    for (name, prog) in [
        ("atp(at-most-4)", &atp_prog),
        ("walking traversal", &walker),
    ] {
        for len in [2usize, 4, 8, 16, 32] {
            inputs.push((name, prog, len));
        }
    }
    s.sweep("E8", &inputs, |gov, &(name, prog, len)| {
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
                return vec![
                    name.into(),
                    len.into(),
                    gov.trip(&e),
                    0u64.into(),
                    0usize.into(),
                    0u64.into(),
                    Cell::str("-"),
                ]
            }
        };
        let t = split_string_tree(&f, &g, &markers, sym, attr);
        let d = twq::automata::run_on_tree(prog, &t, Limits::default());
        vec![
            name.into(),
            len.into(),
            if p.accepted() { "accept" } else { "reject" }.into(),
            p.messages.into(),
            p.distinct_messages.into(),
            p.crossings.into(),
            (p.accepted() == d.accepted()).into(),
        ]
    });
}

fn e9_counting(s: &mut Session) {
    s.rep.table(
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
        s.rep.row(&[
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

fn e10_types(s: &mut Session) {
    let mut vocab = Vocab::new();
    let sym = vocab.sym("s");
    let a = vocab.attr("a");
    let pool: Vec<Value> = [1i64, 2].iter().map(|&i| vocab.val_int(i)).collect();
    let cfg = TypeConfig {
        k: 1,
        labels: vec![Label::Sym(sym)],
        attrs: vec![a],
        dvalues: pool.clone(),
    };
    s.rep.table(
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
                trees.push(monadic_tree(sym, a, &vals));
            }
        }
        let classes = count_classes(trees.iter(), &cfg);
        s.rep
            .row(&[max_len.into(), trees.len().into(), classes.into()]);
    }
    // Lemma 4.3(1) companion: types compose over concatenation (the
    // checker panics on any violation).
    let checked = twq::logic::types::check_composition_on_strings(sym, a, &pool, 4, &cfg);
    s.rep.note(&format!(
        "Lemma 4.3(1) composition: {checked} class pairs verified, no violations"
    ));
}

fn e11_xtm_vs_tm(s: &mut Session) {
    let mut vocab = Vocab::new();
    let base = TreeGenConfig::example32(&mut vocab, 1, &[1]);
    let pairs: Vec<(&str, Xtm, twq::xtm::Tm)> = vec![
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
    s.rep.table(
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
    let mut inputs = Vec::new();
    for pair in &pairs {
        for n in [30usize, 90, 270] {
            inputs.push((pair, n));
        }
    }
    s.sweep("E11", &inputs, |gov, &((name, xtm, tm), n)| {
        let cfg = TreeGenConfig {
            nodes: n,
            ..base.clone()
        };
        let t = random_tree(&cfg, 13);
        let dt = DelimTree::build(&t);
        let input = to_bytes(&xenc(&t, &[]).expect("generated trees have no delimiters"));
        let (xtm_steps, tm_steps, agree) = match run_xtm_in(
            xtm,
            &dt,
            XtmLimits::default(),
            &mut NullCollector,
            &mut gov.guard(),
        ) {
            Ok(xr) => {
                let tr = run_tm(tm, &input, 100_000_000);
                (xr.steps, tr.steps, (xr.accepted() == tr.accepted()).into())
            }
            Err(e) => (0, 0, gov.trip(&e)),
        };
        vec![
            (*name).into(),
            n.into(),
            xtm_steps.into(),
            tm_steps.into(),
            input.len().into(),
            agree,
        ]
    });
}

fn e12_prop72(s: &mut Session) {
    let mut vocab = Vocab::new();
    let base = TreeGenConfig::example32(&mut vocab, 1, &[]);
    let sigma = Label::Sym(base.symbols[0]);
    let delta = Label::Sym(base.symbols[1]);
    let src = delta_count_mod3(sigma, delta, &mut vocab);
    let folded = match eliminate_store_guarded(&src, 10_000, &mut s.gov.guard()) {
        Ok(p) => p,
        Err(e) => {
            s.rep.note(&format!("store elimination limit-tripped: {e}"));
            return;
        }
    };
    s.rep.note(&format!(
        "source: {} states, {} registers ({}); folded: {} states, {} registers ({})",
        src.state_count(),
        src.reg_count(),
        src.classify(),
        folded.state_count(),
        folded.reg_count(),
        folded.classify()
    ));
    s.rep.table(
        None,
        0,
        &[
            col("n", 6),
            col("src", 9),
            col("folded", 9),
            col("agree", 7),
        ],
    );
    s.sweep("E12", &[30usize, 90, 270], |gov, &n| {
        let cfg = TreeGenConfig {
            nodes: n,
            ..base.clone()
        };
        let dt = DelimTree::build(&random_tree(&cfg, 17));
        let governed = |p: &TwProgram| {
            run_in(
                p,
                &dt,
                Limits::default(),
                &mut NullCollector,
                &mut gov.guard(),
            )
        };
        match (governed(&src), governed(&folded)) {
            (Ok(a), Ok(b)) => vec![
                n.into(),
                if a.accepted() { "accept" } else { "reject" }.into(),
                if b.accepted() { "accept" } else { "reject" }.into(),
                (a.accepted() == b.accepted()).into(),
            ],
            (Err(e), _) | (_, Err(e)) => {
                vec![n.into(), Cell::str("-"), Cell::str("-"), gov.trip(&e)]
            }
        }
    });
}

fn e13_alternation(s: &mut Session) {
    let mut vocab = Vocab::new();
    let base = TreeGenConfig::example32(&mut vocab, 1, &[]);
    let m = machines::alt_all_leaves_even_depth(&base.symbols);
    s.rep.table(
        None,
        0,
        &[
            col("n", 6),
            col("verdict", 9),
            col("configs", 10),
            col("configs/node", 14),
        ],
    );
    s.sweep("E13", &[20usize, 60, 180, 540], |gov, &n| {
        let cfg = TreeGenConfig {
            nodes: n,
            ..base.clone()
        };
        let dt = DelimTree::build(&random_tree(&cfg, 19));
        match run_alternating_guarded(&m, &dt, XtmLimits::default(), &mut gov.guard()) {
            Ok(r) => vec![
                n.into(),
                if r.accepted { "accept" } else { "reject" }.into(),
                r.configs.into(),
                Cell::float(r.configs as f64 / dt.tree().len() as f64, 2),
            ],
            Err(e) => vec![n.into(), gov.trip(&e), 0usize.into(), Cell::float(0.0, 2)],
        }
    });
}
