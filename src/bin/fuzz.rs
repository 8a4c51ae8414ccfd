//! `fuzz` — differential fuzzing over every evaluator pair (`twq-fuzz`).
//!
//! Generates seeded random programs (stratified over the Definition 5.1
//! classes), hostile trees, and adversarial budgets, and requires the
//! direct, guarded, batch, routed, pruned, memoized, and parallel
//! evaluators to agree — on answers and on failure modes. Failing cases
//! are shrunk by delta debugging and written as replayable JSONL.
//!
//! ```sh
//! cargo run --release --bin fuzz -- --seed 1 --cases 10000 --jobs 2
//! cargo run --release --bin fuzz -- --seed 1 --cases 200 --out repros.jsonl
//! cargo run --release --bin fuzz -- --replay repros.jsonl --explain
//! cargo run --release --bin fuzz -- --self-test
//! ```
//!
//! The campaign result is a pure function of `(--seed, --cases)`; `--jobs`
//! only changes wall-clock time. The summary tallies what the formula
//! cases reached: `FO(∃*)` branches by evaluation path (semi-join or
//! backtracking), the structural atoms `compile_exists` translated, the
//! leaf scans of the plans `compile_exists` and `compile_xpath` built
//! (`ScanValue`, `ScanAttrPair` over two distinct columns — `a` and the
//! `b` painted on formula-case trees — `ScanAttrBot`, `ScanLeaf`,
//! `ScanFirst`, `ScanLast`), those plans' `IfNonEmpty` guards and
//! `Expand` steps per axis (child, parent, descendant, ancestor), and the
//! trees index plans ran on by arena order (pre-order or permuted); then,
//! from `plan_indexed` under each case's alphabet context, the fires of
//! each rewrite rule, the certificate kinds, and the `Force::Auto`
//! verdicts (empty, index, walk).
//! Exit status: `0` for a clean campaign (or a passing self-test), `1`
//! when discrepancies were found, a tally stayed at zero, or stdout closed
//! before the report was written, `2` for usage errors.
//!
//! `--replay --explain` additionally renders each repro's embedded
//! first-divergence report and a traced walk transcript of the base run.
//!
//! `--self-test` plants [`InjectedBug::RoutedFlip`] into the oracle, then
//! asserts the campaign catches it, the minimizer shrinks a repro to at
//! most 8 program states and 16 tree nodes, the written repro line replays
//! as still-failing, and the embedded divergence report identifies the
//! routed-acceptance flip at the root span.

use twq::exec::Pool;
use twq::fuzz::{
    explain_repro, minimize, parse_jsonl, render_jsonl, replay, run_campaign, FuzzConfig,
    InjectedBug, Repro, Universe,
};
use twq::obs::write_stdout;

/// `println!` through [`write_stdout`]: a reader that has gone away ends
/// the program quietly, with status 1 — a campaign that cannot report is
/// not a pass.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(&format!("{}\n", format_args!($($arg)*)), 1)
    };
}

struct Args {
    cfg: FuzzConfig,
    jobs: Option<usize>,
    out: Option<String>,
    replay: Option<String>,
    explain: bool,
    self_test: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--seed N] [--cases N] [--jobs N] [--no-minimize] \
         [--out PATH] [--inject-bug NAME] [--replay PATH [--explain]] [--self-test]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        cfg: FuzzConfig::default(),
        jobs: None,
        out: None,
        replay: None,
        explain: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{arg} expects an argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--seed" => match value().parse() {
                Ok(n) => args.cfg.seed = n,
                Err(_) => usage(),
            },
            "--cases" => match value().parse() {
                Ok(n) => args.cfg.cases = n,
                Err(_) => usage(),
            },
            "--jobs" => match value().parse() {
                Ok(n) => args.jobs = Some(n),
                Err(_) => usage(),
            },
            "--no-minimize" => args.cfg.minimize = false,
            "--minimize" => args.cfg.minimize = true,
            "--out" => args.out = Some(value()),
            "--replay" => args.replay = Some(value()),
            "--inject-bug" => {
                let name = value();
                match InjectedBug::from_name(&name) {
                    Some(b) => args.cfg.inject = Some(b),
                    None => {
                        eprintln!("unknown bug {name:?} (expected: routed-flip)");
                        std::process::exit(2);
                    }
                }
            }
            "--explain" => args.explain = true,
            "--self-test" => args.self_test = true,
            _ => usage(),
        }
    }
    args
}

fn run_replay(path: &str, pool: &Pool, explain: bool) -> i32 {
    let contents = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fuzz: cannot read {path}: {e}");
            return 2;
        }
    };
    let repros = match parse_jsonl(&contents) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fuzz: cannot parse {path}: {e}");
            return 2;
        }
    };
    let failing = replay(&repros, pool);
    for (i, r) in repros.iter().enumerate() {
        let status = if failing.contains(&i) {
            "STILL FAILING"
        } else {
            "no longer fails"
        };
        outln!(
            "repro {}: [{}] {} — {status}",
            i + 1,
            r.pair,
            r.detail.lines().next().unwrap_or("")
        );
        if explain {
            for line in explain_repro(r).lines() {
                outln!("    {line}");
            }
        }
    }
    outln!(
        "replayed {} repro(s): {} still failing",
        repros.len(),
        failing.len()
    );
    i32::from(!failing.is_empty())
}

fn run_self_test(jobs: Option<usize>) -> i32 {
    let uni = Universe::standard();
    let cfg = FuzzConfig {
        seed: 7,
        cases: 120,
        inject: Some(InjectedBug::RoutedFlip),
        minimize: true,
        ..FuzzConfig::default()
    };
    let outer = Pool::new(jobs.unwrap_or(2));
    let report = run_campaign(&cfg, &uni, &outer);
    if report.clean() {
        eprintln!(
            "self-test FAILED: planted routed-flip not caught in {} cases",
            cfg.cases
        );
        return 1;
    }
    let Some(repro) = report.failures.iter().find_map(|f| f.repro.as_ref()) else {
        eprintln!("self-test FAILED: no program-shaped failure produced a repro");
        return 1;
    };
    let states = repro.case.program.state_count();
    let nodes = repro.case.tree.len();
    if states > 8 || nodes > 16 {
        eprintln!(
            "self-test FAILED: minimized repro too large ({states} states, {nodes} tree nodes)"
        );
        return 1;
    }
    // The repro must embed a divergence report pinning the routed flip:
    // first divergent span at the root, with opposite acceptances.
    let Some(div) = &repro.divergence else {
        eprintln!("self-test FAILED: repro embeds no divergence report");
        return 1;
    };
    if div.at != "r" || !div.right_label.contains("routed") {
        eprintln!("self-test FAILED: divergence does not name the routed root flip: {div}");
        return 1;
    }
    if div.left_accepted.is_none() || div.left_accepted == div.right_accepted {
        eprintln!("self-test FAILED: divergence does not show an acceptance flip: {div}");
        return 1;
    }
    let line = repro.to_json_line();
    let back = match Repro::from_json_line(&line) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("self-test FAILED: repro line does not round-trip: {e}");
            return 1;
        }
    };
    if back.divergence.as_ref() != Some(div) {
        eprintln!("self-test FAILED: divergence report does not round-trip");
        return 1;
    }
    let explained = explain_repro(&back);
    if !explained.contains("first divergence at r:") {
        eprintln!("self-test FAILED: explanation omits the divergence:\n{explained}");
        return 1;
    }
    let pool = Pool::new(2);
    if replay(std::slice::from_ref(&back), &pool) != vec![0] {
        eprintln!("self-test FAILED: round-tripped repro no longer fails");
        return 1;
    }
    // The minimized case must be re-shrunk to itself (local minimality).
    let again = minimize(&back.case, &pool, back.inject);
    if again.tree.len() > nodes || again.program.state_count() > states {
        eprintln!("self-test FAILED: minimization is not idempotent");
        return 1;
    }
    outln!(
        "self-test PASSED: {} failure(s) caught, minimized to {states} state(s) / {nodes} node(s), \
         repro replays, divergence pins the flip at {}",
        report.failures.len(),
        div.at
    );
    0
}

fn main() {
    let args = parse_args();
    let pool = match args.jobs {
        Some(n) => Pool::new(n),
        None => Pool::with_default_parallelism(),
    };
    if let Some(path) = &args.replay {
        std::process::exit(run_replay(path, &pool, args.explain));
    }
    if args.self_test {
        std::process::exit(run_self_test(args.jobs));
    }

    let uni = Universe::standard();
    let report = run_campaign(&args.cfg, &uni, &pool);
    outln!("fuzz --seed {} : {}", args.cfg.seed, report.summary());
    for line in report.reach.summary().lines() {
        outln!("  {line}");
    }
    let unreached = report.reach.unreached();
    if !unreached.is_empty() {
        outln!("  unreached: {}", unreached.join(", "));
    }
    for f in &report.failures {
        outln!(
            "  case {} (seed {:#018x}, {}): [{}] {}",
            f.index,
            f.seed,
            f.kind.name(),
            f.discrepancy.pair,
            f.discrepancy.detail.lines().next().unwrap_or("")
        );
        if let Some(r) = &f.repro {
            outln!(
                "    minimized: {} state(s), {} tree node(s)",
                r.case.program.state_count(),
                r.case.tree.len()
            );
        }
    }
    if let Some(path) = &args.out {
        let repros: Vec<Repro> = report
            .failures
            .iter()
            .filter_map(|f| f.repro.clone())
            .collect();
        if repros.is_empty() {
            outln!("no repros to write; {path} not created");
        } else if let Err(e) = std::fs::write(path, render_jsonl(&repros)) {
            eprintln!("fuzz: cannot write {path}: {e}");
            std::process::exit(2);
        } else {
            outln!("wrote {} repro(s) to {path}", repros.len());
        }
    }
    std::process::exit(i32::from(!report.clean() || !unreached.is_empty()));
}
