//! `twq-e2e` — the end-to-end query benchmark: tree text and query text
//! in, result set out, through the library's public entry points. A
//! closed loop with one client: each request starts when the previous one
//! has been answered and checked. See README.md for the workloads, the
//! metrics and their bounds.
//!
//! ```text
//! twq-e2e --workload <resident|oneshot|ingest|automata> --seed N --seconds N --trace 0|1
//! ```
//!
//! A run sets up, computes the reference answers, makes one untimed
//! warm-up pass over the distinct requests, then cycles through them in
//! whole passes for at least the given wall time, setting up again at
//! evenly spaced pass boundaries (`setup_s` is the median set-up). Every
//! answer is checked. The last line of stdout is one JSON object; the exit
//! code is 1 if any answer was wrong, 2 on a usage error.

mod inputs;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use twq_exec::Pool;

use crate::stats::{median, nearest_rank, peak_rss_mb, reset_peak_rss, MIN_BEYOND};
use crate::trace::{Metric, Tracer};
use crate::workloads::{Automata, Ingest, Oneshot, Resident, Shape, Workload};

const USAGE: &str = "usage: twq-e2e --workload <resident|oneshot|ingest|automata> \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Spans kept for the JSONL file of a traced run (later ones are only
/// aggregated).
const KEEP_SPANS: usize = 1 << 16;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Worker threads for the automata batches and the reference pass: two,
/// or fewer on a smaller machine.
pub fn workers() -> usize {
    Pool::default_parallelism().min(2)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if parsed.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(parsed)
}

/// Requests attempted and failed, with the first few failures.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// The set-ups of a run and their times. The first comes before anything
/// else and is kept; the others are spread evenly over the measured
/// window and dropped, so that their median samples the same stretch of
/// a shared machine's time as the requests do, not only its first second.
struct Setups {
    shape: Shape,
    seed: u64,
    secs: Vec<f64>,
}

impl Setups {
    fn new(shape: Shape, seed: u64) -> Setups {
        Setups {
            shape,
            seed,
            secs: Vec::with_capacity(SETUP_REPS),
        }
    }

    /// Set up once more and time it.
    fn time<W: Workload>(&mut self, tr: &mut Tracer) -> W {
        let t0 = Instant::now();
        let w = W::setup(self.shape, self.seed, tr);
        self.secs.push(t0.elapsed().as_secs_f64());
        w
    }

    /// Run the set-ups now due in a window of `dur` that began at `start`:
    /// the `k`-th of `SETUP_REPS` is due after `k / SETUP_REPS` of it.
    /// Each new set-up is dropped outside its timing.
    fn catch_up<W: Workload>(&mut self, start: Instant, dur: Duration, tr: &mut Tracer) {
        while !self.done()
            && start.elapsed() >= dur.mul_f64(self.secs.len() as f64 / SETUP_REPS as f64)
        {
            drop(self.time::<W>(tr));
        }
    }

    fn done(&self) -> bool {
        self.secs.len() >= SETUP_REPS
    }
}

/// The fewest samples the end-to-end timings are taken over: from 100
/// samples on, `MIN_BEYOND` lie beyond the nearest-rank p90.
///
/// Each distinct request contributes its fastest repetitions, as few as
/// reach this count. Co-tenants on a shared host slow memory-bound code by
/// up to half, in phases lasting from a tenth of a second to minutes,
/// while compute-bound code barely slows; they never speed a request up.
/// A request's fastest repetitions are the ones they touched least, and
/// taking the same number from every distinct request keeps the
/// workload's request mix intact.
const MIN_KEPT: usize = 100;

/// One measured window: the time each request spent in library calls, in
/// order. Request `i` is distinct request `i % distinct`, and the window
/// ends on a pass boundary, so every distinct request ran equally often.
struct Window {
    lat_ns: Vec<u32>,
    distinct: usize,
    wall: Duration,
}

/// A window's end-to-end numbers, over the kept samples.
struct Summary {
    requests: usize,
    passes: usize,
    wall: Duration,
    /// Repetitions kept per distinct request.
    keep: usize,
    kept: usize,
    /// Kept requests per second of their library time.
    throughput: f64,
    p50_ns: f64,
    p90_ns: f64,
    /// Kept samples beyond p90.
    beyond: usize,
}

impl Window {
    fn summary(&self) -> Summary {
        let passes = self.lat_ns.len() / self.distinct;
        let keep = MIN_KEPT.div_ceil(self.distinct).min(passes);
        let mut kept = Vec::with_capacity(keep * self.distinct);
        let mut reps = Vec::with_capacity(passes);
        for k in 0..self.distinct {
            reps.clear();
            reps.extend(self.lat_ns.iter().skip(k).step_by(self.distinct));
            reps.sort_unstable();
            kept.extend_from_slice(&reps[..keep]);
        }
        let total_ns: u64 = kept.iter().map(|&ns| u64::from(ns)).sum();
        kept.sort_unstable();
        let (p90, beyond) = nearest_rank(&kept, 90);
        Summary {
            requests: self.lat_ns.len(),
            passes,
            wall: self.wall,
            keep,
            kept: kept.len(),
            throughput: kept.len() as f64 / (total_ns as f64 / 1e9),
            p50_ns: f64::from(nearest_rank(&kept, 50).0),
            p90_ns: f64::from(p90),
            beyond,
        }
    }
}

/// What a run prints: human-readable lines, then the JSON metrics; and
/// the tracer of a traced run, whose spans `main` writes out.
struct Report {
    tally: Tally,
    lines: Vec<String>,
    metrics: Vec<Metric>,
    traced: Option<Tracer>,
}

fn check(found: Result<workloads::Answer, String>, expected: u64, i: usize) -> Result<(), String> {
    let answer = found.map_err(|e| format!("request {i}: {e}"))?;
    if answer.fp == expected {
        Ok(())
    } else {
        Err(format!("request {i}: result differs from the reference"))
    }
}

/// The untimed warm-up pass: every distinct request through the
/// composite call and through the split path, which must choose the same
/// evaluators and return the same sets as each other and the reference.
fn warm_up<W: Workload>(w: &mut W, expected: &[u64], tally: &mut Tally) {
    let mut off = Tracer::off();
    for (i, &want) in expected.iter().enumerate() {
        let composite = w.run(i).and_then(|o| w.answer(i, &o));
        let split = w.run_split(i, &mut off).and_then(|o| w.answer(i, &o));
        tally.record(match (composite, split) {
            (Ok(a), Ok(b)) if a != b => Err(format!(
                "request {i}: split path {b:?} disagrees with the composite call {a:?}"
            )),
            (composite, _) => check(composite, want, i),
        });
    }
}

/// Cycle through the requests in whole passes until `dur` has passed,
/// through the composite calls, with the remaining set-ups at the pass
/// boundaries they fall due. With a tracer that is on, every other pass
/// goes through the split path inside spans instead and into the second
/// window, so both windows see the same phases of a shared machine. Only
/// the library calls are timed; checking the answer is not.
fn measure<W: Workload>(
    w: &mut W,
    expected: &[u64],
    dur: Duration,
    tr: &mut Tracer,
    setups: &mut Setups,
    capacity: usize,
    tally: &mut Tally,
) -> (Window, Option<Window>) {
    let tracing = tr.is_on();
    let mut lat_ns = [Vec::with_capacity(capacity), Vec::new()];
    if tracing {
        lat_ns[1].reserve(capacity);
    }
    let start = Instant::now();
    for pass in 0.. {
        let traced = tracing && pass % 2 == 1;
        for (k, &want) in expected.iter().enumerate() {
            let (out, ns) = if traced {
                tr.begin_request();
                let out = w.run_split(k, tr);
                (out, tr.end_request())
            } else {
                let t0 = Instant::now();
                let out = w.run(k);
                (out, t0.elapsed().as_nanos() as u64)
            };
            lat_ns[usize::from(traced)].push(u32::try_from(ns).unwrap_or(u32::MAX));
            tally.record(check(out.and_then(|o| w.answer(k, &o)), want, k));
        }
        setups.catch_up::<W>(start, dur, tr);
        if start.elapsed() >= dur && setups.done() && (traced || !tracing) {
            break;
        }
    }
    let wall = start.elapsed();
    let [plain, split] = lat_ns.map(|lat_ns| Window {
        lat_ns,
        distinct: expected.len(),
        wall,
    });
    (plain, tracing.then_some(split))
}

/// Where a traced run writes its spans: under the build directory, which
/// stays inside the checkout and out of version control.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target
        .join("twq-e2e")
        .join(format!("spans-{workload}-{seed}.jsonl"))
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn drive<W: Workload>(
    name: &str,
    shape: Shape,
    seed: u64,
    window: Duration,
    trace: bool,
) -> Report {
    let pool = Pool::new(workers());
    let mut tr = if trace {
        Tracer::new(KEEP_SPANS)
    } else {
        Tracer::off()
    };
    let mut lines = vec![format!(
        "twq-e2e workload={name} seed={seed} window={:.1}s trace={} workers={}",
        window.as_secs_f64(),
        u8::from(trace),
        pool.workers()
    )];

    let mut setups = Setups::new(shape, seed);
    let mut w: W = setups.time(&mut tr);
    let texts = w.texts();
    lines.push(format!(
        "inputs: {} texts, {:.2} MB",
        texts.len(),
        texts.iter().map(|t| t.len()).sum::<usize>() as f64 / 1e6
    ));

    let expected = w.reference(&pool);
    let mut tally = Tally::default();
    // peak_rss_mb: the peak while every request is answered once more, on
    // top of the inputs and references that exist by now.
    let peak_reset = reset_peak_rss();
    let t0 = Instant::now();
    warm_up(&mut w, &expected, &mut tally);
    let peak_mb = peak_rss_mb();
    // The warm-up ran every request twice; size the latency buffer from it.
    let rate = 2.0 * expected.len() as f64 / t0.elapsed().as_secs_f64();
    let capacity = ((rate * window.as_secs_f64() * 1.5) as usize).min(1 << 26);

    let (plain, traced) = measure(
        &mut w,
        &expected,
        window,
        &mut tr,
        &mut setups,
        capacity,
        &mut tally,
    );
    let plain = plain.summary();

    let metrics = if let Some(traced) = traced {
        let traced = traced.summary();
        let overhead_pct = (1.0 - traced.throughput / plain.throughput) * 100.0;
        lines.push(format!(
            "untraced {:.1} req/s over {} requests, traced {:.1} req/s over {} requests, \
             in alternating passes",
            plain.throughput, plain.requests, traced.throughput, traced.requests
        ));
        lines.push(tr.layer_table());
        tr.metrics(overhead_pct)
    } else {
        if plain.beyond < MIN_BEYOND {
            eprintln!(
                "twq-e2e: only {} samples beyond p90; run longer for a supported p90",
                plain.beyond
            );
        }
        lines.push(format!(
            "{} requests and {} set-ups in {:.3} s, {} passes; metrics over the fastest \
             {} of each request's repetitions: {} samples, {} beyond p90",
            plain.requests,
            setups.secs.len() - 1,
            plain.wall.as_secs_f64(),
            plain.passes,
            plain.keep,
            plain.kept,
            plain.beyond
        ));
        if !peak_reset {
            eprintln!("twq-e2e: cannot reset VmHWM; peak_rss_mb covers the whole process");
        }
        vec![
            metric("throughput_rps", "1/s", plain.throughput),
            metric("latency_p50_ms", "ms", plain.p50_ns / 1e6),
            metric("latency_p90_ms", "ms", plain.p90_ns / 1e6),
            metric("setup_s", "s", median(&mut setups.secs)),
            metric("peak_rss_mb", "MB", peak_mb),
        ]
    };
    Report {
        tally,
        lines,
        metrics,
        traced: trace.then_some(tr),
    }
}

fn json_line(report: &Report) -> String {
    let mut metrics = String::new();
    for (k, m) in report.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("twq-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let window = Duration::from_secs(args.seconds);
    let (name, seed, trace) = (args.workload.as_str(), args.seed, args.trace);
    let report = match name {
        "resident" => drive::<Resident>(name, Resident::SHAPE, seed, window, trace),
        "oneshot" => drive::<Oneshot>(name, Oneshot::SHAPE, seed, window, trace),
        "ingest" => drive::<Ingest>(name, Ingest::SHAPE, seed, window, trace),
        "automata" => drive::<Automata>(name, Automata::SHAPE, seed, window, trace),
        _ => {
            eprintln!("twq-e2e: unknown workload `{name}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for line in &report.lines {
        println!("{}", line.trim_end());
    }
    for m in &report.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let t = &report.tally;
    println!(
        "  {:<40} {:>16.6} ratio ({} of {} attempted, warm-up included)",
        "failed_ratio",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    for e in &t.errors {
        eprintln!("twq-e2e: {e}");
    }
    if let Some(tr) = &report.traced {
        let path = spans_path(name, seed);
        let (kept, recorded) = tr.span_counts();
        match tr.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: kept {kept} of {recorded}, written to {}",
                path.display()
            ),
            Err(e) => eprintln!("twq-e2e: writing {}: {e}", path.display()),
        }
    }
    println!("{}", json_line(&report));
    if t.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{document, value_pool, Alphabet};
    use crate::stats::fingerprint;
    use std::cell::{Cell, RefCell};
    use twq_tree::order::doc_index;
    use twq_tree::{parse_xml, to_xml, Vocab};
    use twq_xpath::{eval_from, parse_xpath};

    const TINY: Shape = Shape {
        docs: 6,
        nodes: 300,
        requests: 40,
    };

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&samples, 50), (50, 50));
        assert_eq!(nearest_rank(&samples, 99), (99, 1));
        assert_eq!(nearest_rank(&samples, 100), (100, 0));
        assert_eq!(nearest_rank(&[7], 99), (7, 0));
        // p90 is supported from MIN_KEPT samples on: ten lie beyond it.
        let enough: Vec<u32> = (1..=MIN_KEPT as u32).collect();
        assert_eq!(nearest_rank(&enough, 90), (90, MIN_BEYOND));
        assert!(nearest_rank(&enough[1..], 90).1 < MIN_BEYOND);
    }

    #[test]
    fn fingerprints_ignore_arena_numbering() {
        let mut vocab = Vocab::new();
        let alpha = Alphabet::new(&mut vocab, 4);
        let pool = value_pool(&mut vocab, 8);
        let generated = document(&alpha, 400, 3, &pool, 5);
        let parsed = parse_xml(&to_xml(&generated, &vocab), &mut vocab).unwrap();
        let q = parse_xpath("//s1[s2] | //*[@a=3]", &mut vocab).unwrap();
        let (a, b) = (
            eval_from(&generated, &q, generated.root()),
            eval_from(&parsed, &q, parsed.root()),
        );
        assert!(!a.is_empty());
        // Same nodes, numbered differently by the two arenas ...
        assert_ne!(a.to_vec(), b.to_vec());
        // ... and the same fingerprint.
        assert_eq!(
            fingerprint(&doc_index(&generated), &a),
            fingerprint(&doc_index(&parsed), &b)
        );
    }

    fn inputs<W: Workload>(seed: u64) -> Vec<String> {
        let w = W::setup(TINY, seed, &mut Tracer::off());
        w.texts().into_iter().map(str::to_owned).collect()
    }

    fn seeds_determine_inputs<W: Workload>() {
        assert_eq!(inputs::<W>(7), inputs::<W>(7));
        assert_ne!(inputs::<W>(7), inputs::<W>(8));
    }

    #[test]
    fn same_seed_same_inputs() {
        seeds_determine_inputs::<Resident>();
        seeds_determine_inputs::<Oneshot>();
        seeds_determine_inputs::<Ingest>();
        seeds_determine_inputs::<Automata>();
    }

    #[test]
    fn a_wrong_reference_fails_the_check() {
        let mut w = Resident::setup(TINY, 3, &mut Tracer::off());
        let mut expected = w.reference(&Pool::new(1));
        let mut tally = Tally::default();
        warm_up(&mut w, &expected, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.errors);
        expected[2] ^= 1;
        let mut tally = Tally::default();
        warm_up(&mut w, &expected, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (TINY.requests as u64, 1));
        // A window shorter than one pass still runs the whole pass.
        let mut tally = Tally::default();
        let mut setups = Setups::new(TINY, 3);
        let (window, _) = measure(
            &mut w,
            &expected,
            Duration::ZERO,
            &mut Tracer::off(),
            &mut setups,
            0,
            &mut tally,
        );
        assert_eq!(window.summary().requests, TINY.requests);
        assert_eq!(tally.failed, 1);
        // ... and every set-up, all at the end of that pass.
        assert_eq!(setups.secs.len(), SETUP_REPS);
    }

    #[test]
    fn the_summary_keeps_each_requests_fastest_repetitions() {
        // Fifty distinct requests, three passes; the second pass ran in a
        // slow phase. Request k took 10 + k ns, then 1000 + k, then 20 + k.
        let lat_ns = [10, 1000, 20]
            .into_iter()
            .flat_map(|base| (0..50).map(move |k| base + k))
            .collect();
        let window = Window {
            lat_ns,
            distinct: 50,
            wall: Duration::from_secs(1),
        };
        let s = window.summary();
        // Kept: the two fastest of each, 10 + k and 20 + k.
        assert_eq!((s.requests, s.passes, s.keep, s.kept), (150, 3, 2, 100));
        // Sorted: 10..=19 once, 20..=59 twice, 60..=69 once.
        assert_eq!((s.p50_ns, s.p90_ns, s.beyond), (39.0, 59.0, MIN_BEYOND));
        assert!((s.throughput - 100.0 / 3950e-9).abs() < 1.0);
    }

    thread_local! {
        /// Set-ups of `SlowCheck` on this test's thread.
        static SETUPS: Cell<usize> = const { Cell::new(0) };
        /// How many set-ups had run when each pass began.
        static AT_PASS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    /// Requests that cost next to nothing, with an answer check that sleeps.
    struct SlowCheck;

    impl Workload for SlowCheck {
        type Out = ();
        const SHAPE: Shape = TINY;
        fn setup(_: Shape, _: u64, _: &mut Tracer) -> SlowCheck {
            SETUPS.with(|n| n.set(n.get() + 1));
            SlowCheck
        }
        fn texts(&self) -> Vec<&str> {
            Vec::new()
        }
        fn reference(&mut self, _: &Pool) -> Vec<u64> {
            vec![0; 4]
        }
        fn run(&mut self, i: usize) -> Result<(), String> {
            if i == 0 {
                AT_PASS.with(|v| v.borrow_mut().push(SETUPS.with(Cell::get)));
            }
            Ok(())
        }
        fn run_split(&mut self, _: usize, _: &mut Tracer) -> Result<(), String> {
            Ok(())
        }
        fn answer(&self, _: usize, _: &()) -> Result<workloads::Answer, String> {
            std::thread::sleep(Duration::from_millis(2));
            Ok(workloads::Answer { fp: 0, route: 0 })
        }
    }

    #[test]
    fn checking_answers_does_not_enter_throughput() {
        let mut tally = Tally::default();
        let (window, _) = measure(
            &mut SlowCheck,
            &[0; 4],
            Duration::from_millis(20),
            &mut Tracer::off(),
            &mut Setups::new(TINY, 0),
            0,
            &mut tally,
        );
        assert_eq!(tally.failed, 0);
        // The checks alone hold wall time to under 500 requests per
        // second; the library time of the requests allows far more.
        let s = window.summary();
        assert!(s.requests as f64 / s.wall.as_secs_f64() < 500.0);
        assert!(s.throughput > 100_000.0, "{}", s.throughput);
    }

    #[test]
    fn set_ups_are_spread_over_the_window() {
        let mut setups = Setups::new(TINY, 0);
        let _: SlowCheck = setups.time(&mut Tracer::off());
        // Passes of about 8 ms in a 240 ms window: a set-up falls due
        // every 16 ms.
        let (window, _) = measure(
            &mut SlowCheck,
            &[0; 4],
            Duration::from_millis(240),
            &mut Tracer::off(),
            &mut setups,
            0,
            &mut Tally::default(),
        );
        assert_eq!(setups.secs.len(), SETUP_REPS);
        assert_eq!(SETUPS.with(Cell::get), SETUP_REPS);
        let at_pass = AT_PASS.with(|v| v.take());
        assert_eq!(at_pass.len(), window.summary().passes);
        // Only the first set-up came before the window, and the others
        // came between many different passes, not all at once.
        assert_eq!(at_pass[0], 1);
        let mut steps = at_pass.clone();
        steps.dedup();
        assert!(steps.len() > SETUP_REPS / 2, "{at_pass:?}");
    }

    /// The lines of a TOML table, without blank lines and comments.
    fn toml_table<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
        toml.lines()
            .map(str::trim)
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn release_profile_matches_the_workspace() {
        let workspace = include_str!("../../../../../Cargo.toml");
        let own = include_str!("Cargo.toml");
        let (ws, ours) = (
            toml_table(workspace, "[profile.release]"),
            toml_table(own, "[profile.release]"),
        );
        assert!(!ws.is_empty());
        assert_eq!(ws, ours);
    }

    fn smoke<W: Workload>(name: &str) {
        for trace in [false, true] {
            let r = drive::<W>(name, TINY, 11, Duration::from_millis(40), trace);
            assert_eq!(r.tally.failed, 0, "{name}: {:?}", r.tally.errors);
            assert!(r.tally.attempted > TINY.docs as u64);
            assert!(r.metrics.iter().all(|m| m.value.is_finite()));
            let json = json_line(&r);
            assert!(json.starts_with("{\"correct\": true"), "{json}");
        }
    }

    #[test]
    fn every_workload_runs_clean_at_a_tiny_size() {
        smoke::<Resident>("resident");
        smoke::<Oneshot>("oneshot");
        smoke::<Ingest>("ingest");
        smoke::<Automata>("automata");
    }

    #[test]
    fn reported_metrics_are_declared_in_benchmark_json() {
        let declared = include_str!("../../../../../BENCHMARK.json");
        let r = drive::<Oneshot>("oneshot", TINY, 1, Duration::from_millis(10), false);
        let per_layer = Tracer::off().metrics(0.0);
        for m in r.metrics.iter().chain(&per_layer) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in ["resident", "oneshot", "ingest", "automata"] {
            assert!(declared.contains(&format!("\"name\": \"{w}\"")));
        }
    }
}
