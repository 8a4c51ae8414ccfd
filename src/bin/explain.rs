//! `explain` — render causal run traces (`twq-obs`) as indented walk
//! transcripts, answering "why accepted / why rejected" from recorded
//! witnesses.
//!
//! ```sh
//! cargo run --release --bin explain                  # --e1 and --fo demos
//! cargo run --release --bin explain -- --e1 --jobs 4
//! cargo run --release --bin explain -- --fo
//! cargo run --release --bin explain -- --replay repros.jsonl
//! ```
//!
//! * `--e1` runs the paper's Example 3.2 on an accepting and a rejecting
//!   tree through the deterministic batch tracer, prints both walk
//!   transcripts with state/label names, and checks the merged trace is
//!   byte-identical for `--jobs 1` and `--jobs N` (causal IDs are
//!   worker-independent).
//! * `--fo` evaluates an FO sentence and a node selection under the trace
//!   collector and shows which nodes witnessed each quantifier.
//! * `--replay PATH` explains stored fuzz repros — the embedded
//!   first-divergence report plus a traced transcript of the base run
//!   (the same renderer as `fuzz --replay --explain`).
//!
//! Exit status: `0` when every internal self-check holds (or stdout
//! closed early, which ends the program quietly), `1` otherwise, `2` for
//! usage errors.

use twq::automata::{examples, run_in, Limits, RunReport, TwProgram};
use twq::exec::Pool;
use twq::fuzz::{explain_repro, explain_with_names, parse_jsonl};
use twq::guard::NullGuard;
use twq::logic::fo::build as fob;
use twq::logic::{eval_sentence_in, select_in};
use twq::obs::{explain_verdict, write_stdout, Namer, Trace, TraceCollector, Verdict};
use twq::tree::{DelimTree, Label, Tree, Value, Vocab};

/// `println!` through [`write_stdout`]: a reader that has gone away ends
/// the program quietly, with status 0.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(&format!("{}\n", format_args!($($arg)*)), 0)
    };
}

fn usage() -> ! {
    eprintln!("usage: explain [--e1] [--fo] [--replay PATH] [--jobs N]");
    std::process::exit(2);
}

/// Run `prog` on `delim` under a fresh trace collector, the trace finished
/// as `run`.
fn trace_one(prog: &TwProgram, delim: &DelimTree) -> (RunReport, Trace) {
    let mut c = TraceCollector::new();
    let report = run_in(prog, delim, Limits::default(), &mut c, &mut NullGuard)
        .expect("NullGuard never trips");
    (report, c.finish("run"))
}

/// Example 3.2 on one accepting and one rejecting tree: transcripts plus
/// the worker-independence check on the merged batch trace.
fn run_e1(jobs: usize) -> bool {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let v1 = vocab.val_int(1);
    let v2 = vocab.val_int(2);
    // A δ-root with two σ-leaves: accepted iff both leaves carry the same
    // `a`-attribute (Example 3.2's language).
    let make = |vals: [Value; 2]| {
        let mut t = Tree::new(Label::Sym(ex.delta));
        for v in vals {
            let leaf = t.add_child(t.root(), Label::Sym(ex.sigma));
            t.set_attr(leaf, ex.attr, v);
        }
        t
    };
    let trees = [make([v1, v1]), make([v1, v2])];
    // One trace per tree on whichever worker runs it, merged in input
    // order: the batch trace is the same for any pool size.
    let batch = |workers: usize| {
        let runs = Pool::new(workers).scoped(trees.len(), |i| {
            trace_one(&ex.program, &DelimTree::build(&trees[i]))
        });
        let (reports, traces): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
        (reports, Trace::merge_batch("run_batch", traces))
    };
    let (reports, merged) = batch(jobs);
    let (_, serial) = batch(1);
    let identical = merged.to_json_line() == serial.to_json_line();
    outln!("== E1: Example 3.2 (all leaf-descendants of every δ share one a-value) ==");
    outln!("batch traces byte-identical across --jobs 1 and --jobs {jobs}: {identical}\n");
    let mut ok = identical;
    for (i, (t, r)) in trees.iter().zip(&reports).enumerate() {
        let expect = i == 0;
        ok &= r.accepted() == expect;
        let delim = DelimTree::build(t);
        let (_, trace) = trace_one(&ex.program, &delim);
        outln!(
            "-- tree {i} ({}) --",
            if r.accepted() { "accepted" } else { "rejected" }
        );
        write_stdout(&explain_with_names(&trace, &ex.program, &delim, &vocab), 0);
        outln!("");
    }
    ok
}

/// An FO sentence and a node selection with quantifier witnesses.
fn run_fo() -> bool {
    let mut vocab = Vocab::new();
    let sigma = vocab.sym("sigma");
    let delta = vocab.sym("delta");
    let mut t = Tree::new(Label::Sym(sigma));
    let _left = t.add_child(t.root(), Label::Sym(sigma));
    let mid = t.add_child(t.root(), Label::Sym(delta));
    let _grand = t.add_child(mid, Label::Sym(sigma));
    let labels: Vec<String> = t.node_ids().map(|u| t.label(u).display(&vocab)).collect();
    let node_namer = |n: u64| match labels.get(n as usize) {
        Some(l) => format!("n{n}:{l}"),
        None => format!("n{n}"),
    };
    let state_namer = |q: u32| format!("q{q}");
    let names = Namer {
        state: &state_namer,
        node: &node_namer,
    };

    outln!("== FO: ∃x (O_δ(x) ∧ ¬leaf(x)) — which node witnesses the sentence? ==");
    let x = fob::var(0);
    let sentence = fob::exists(
        x,
        fob::and([fob::lab(Label::Sym(delta), x), fob::not(fob::leaf(x))]),
    );
    let mut c = TraceCollector::new();
    let verdict = eval_sentence_in(&t, &sentence, &mut c, &mut NullGuard);
    let mut trace = c.finish("eval_sentence");
    trace.root.verdict = verdict.as_ref().ok().map(|&b| Verdict::Bool(b));
    let mut ok = matches!(verdict, Ok(true));
    write_stdout(&explain_verdict(&trace, &names), 0);
    outln!("");
    write_stdout(&trace.render_with(&names), 0);
    ok &= trace.render().contains("witness");

    outln!("\n== FO select: φ(x, y) = E(x, y) ∧ O_σ(y), from the root ==");
    let phi = fob::and([
        fob::edge(fob::var(0), fob::var(1)),
        fob::lab(Label::Sym(sigma), fob::var(1)),
    ]);
    let mut c = TraceCollector::new();
    let selected = select_in(
        &t,
        &phi,
        fob::var(0),
        t.root(),
        fob::var(1),
        &mut c,
        &mut NullGuard,
    );
    let mut strace = c.finish("select");
    strace.root.verdict = selected.as_ref().ok().map(|s| Verdict::Bool(!s.is_empty()));
    match &selected {
        Ok(s) => {
            let nodes: Vec<String> = s.iter().map(|u| node_namer(u64::from(u.0))).collect();
            outln!("selected: [{}]", nodes.join(", "));
            ok &= s.len() == 1;
        }
        Err(e) => {
            outln!("selection failed: {e}");
            ok = false;
        }
    }
    write_stdout(&strace.render_with(&names), 0);
    ok
}

/// Explain every repro in a JSONL file.
fn run_replay(path: &str) -> bool {
    let contents = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("explain: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let repros = match parse_jsonl(&contents) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("explain: cannot parse {path}: {e}");
            std::process::exit(2);
        }
    };
    for (i, r) in repros.iter().enumerate() {
        outln!("== repro {} ==", i + 1);
        write_stdout(&explain_repro(r), 0);
        outln!("");
    }
    outln!("explained {} repro(s)", repros.len());
    true
}

fn main() {
    let (mut e1, mut fo, mut jobs) = (false, false, 4usize);
    let mut replay: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--e1" => e1 = true,
            "--fo" => fo = true,
            "--replay" => match it.next() {
                Some(p) => replay = Some(p),
                None => usage(),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => jobs = n,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    let mut ok = true;
    if let Some(path) = &replay {
        ok &= run_replay(path);
    } else {
        // Default to both demos when no mode is given.
        if !e1 && !fo {
            e1 = true;
            fo = true;
        }
        if e1 {
            ok &= run_e1(jobs);
        }
        if fo {
            if e1 {
                outln!("");
            }
            ok &= run_fo();
        }
    }
    std::process::exit(i32::from(!ok));
}
