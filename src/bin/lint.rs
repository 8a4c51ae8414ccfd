//! `twq lint` — the static analyzers (`twq-analyze`, `twq-rw`) as a
//! command.
//!
//! Runs every analysis pass — control-flow reachability, guard overlap,
//! store liveness/arity, progress, class inference — over the bundled
//! program roster (the worked examples, the protocol walker, the
//! Theorem 7.1 compiler outputs, and XPath-compiled acceptors) and
//! reports structured diagnostics. Beyond `TwProgram` specs it also
//! accepts *query* inputs — XPath expressions and FO formulas — which go
//! through the `twq-rw` rewriter: canonical normal form, emptiness
//! check, and the streamability certificate, reported as `RW`/`ST`
//! diagnostics with before/after display.
//!
//! `--index` adds the cost-based planner's verdict for each query:
//! the compiled index-algebra plan and both sides of the walk-vs-index
//! cost comparison over a representative generated document, so the
//! planning decision (`twq-index`) is inspectable without running a
//! query. Combine with `--query EXPR` to plan one query, or use alone
//! to plan the bundled roster.
//!
//! ```sh
//! cargo run --release --bin lint            # aligned text tables
//! cargo run --release --bin lint -- --json  # one JSON record per row
//! cargo run --release --bin lint -- --zoo   # + the seeded ill-formed zoo
//! cargo run --release --bin lint -- --jobs 4  # analyze the roster in parallel
//! cargo run --release --bin lint -- --rewrite           # + the query roster
//! cargo run --release --bin lint -- --query '//b[a]'    # lint one XPath query
//! cargo run --release --bin lint -- --fo 'E x. leaf(x)' # lint one FO formula
//! cargo run --release --bin lint -- --index --query '//b[a]' # + planner verdict
//! ```
//!
//! Analysis runs fan out across a worker pool (`--jobs N`, default = all
//! cores); results print in roster order regardless of worker count.
//!
//! Exit status: `0` when the roster (and any supplied queries) is clean
//! of error-severity findings, `1` otherwise (the `--zoo` section is
//! deliberately broken and never affects the exit status); `2` on
//! unparseable arguments or queries.

use twq::analyze::{analyze, analyze_for_class, lint_zoo, prune, severity_counts};
use twq::exec::Pool;
use twq::index::{CostModel, Force, TreeIndex};
use twq::logic::{parse_fo, Formula};
use twq::obs::{col, Cell, HumanReporter, JsonlReporter, Reporter};
use twq::rw::{
    normalize_formula, plan_indexed, query_severity_counts, rewrite, Certificate, IndexedEvaluator,
    RewriteCtx, Rewritten,
};
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::Vocab;
use twq::xpath::{parse_xpath, XPath};

/// The bundled query roster for `--rewrite`: each entry exercises a
/// different slice of the rule catalog and certificate taxonomy.
fn query_roster(vocab: &mut Vocab) -> Vec<(String, XPath)> {
    [
        // Clean and streamable.
        "sigma/delta",
        // Path predicate: certified not streamable (ST002).
        "//delta[sigma]",
        // Duplicate + subsumed union branches (RW003).
        "sigma/delta | sigma/delta | sigma//delta",
        // Wildcard fusion and a tautological attribute filter (RW004).
        "*/delta | sigma//delta[@a=@a]",
        // Conflicting attribute constants: provably empty (RW002).
        "delta[@a=1][@a=2]",
        // Axis fusion: // ∘ // collapses to one descendant hop.
        "//sigma//sigma",
    ]
    .into_iter()
    .map(|q| (q.to_owned(), parse_xpath(q, vocab).expect("roster parses")))
    .collect()
}

/// The bundled FO roster for `--rewrite`: redundancy the normalizer must
/// strip while preserving meaning.
fn fo_roster(vocab: &mut Vocab) -> Vec<(String, Formula)> {
    [
        "E x. lab(sigma, x) & lab(sigma, x)",
        "E x. E y. (E(x,y) | E(x,y)) & x = x",
        "E x. !!leaf(x) & (root(x) | !root(x))",
    ]
    .into_iter()
    .map(|q| {
        (
            q.to_owned(),
            parse_fo(q, vocab).expect("roster parses").formula,
        )
    })
    .collect()
}

/// One row-block of the rewrite table: certificate summary plus every
/// `RW`/`ST` diagnostic the pass emitted.
fn report_query(rep: &mut dyn Reporter, name: &str, rw: &Rewritten, vocab: &Vocab) -> usize {
    let cert = match &rw.certificate {
        Certificate::Empty => "empty".to_owned(),
        Certificate::Streamable { max_depth_state } => format!("stream({max_depth_state})"),
        Certificate::NotStreamable { .. } => "relational".to_owned(),
    };
    let diagnostics = rw.diagnostics();
    if diagnostics.is_empty() {
        rep.row(&[
            Cell::str(name.to_owned()),
            Cell::str(cert.clone()),
            Cell::str("clean"),
            Cell::str("-"),
            Cell::str("-"),
        ]);
    }
    for d in &diagnostics {
        rep.row(&[
            Cell::str(name.to_owned()),
            Cell::str(cert.clone()),
            Cell::str(d.severity.name()),
            Cell::str(d.code),
            Cell::str(format!("{} ({})", d.message, d.hint)),
        ]);
    }
    if rw.output != rw.input {
        let fired: Vec<String> = rw
            .fired
            .iter()
            .map(|(n, c)| {
                if *c > 1 {
                    format!("{n}\u{d7}{c}")
                } else {
                    (*n).to_owned()
                }
            })
            .collect();
        rep.note(&format!(
            "{name}: `{}` => `{}` ({})",
            rw.input.display(vocab),
            rw.output.display(vocab),
            fired.join(", ")
        ));
    }
    let (errors, _, _) = query_severity_counts(&diagnostics);
    errors
}

fn main() {
    let (mut json, mut zoo, mut rewrite_mode, mut index_mode) = (false, false, false, false);
    let mut jobs: Option<usize> = None;
    let mut user_queries: Vec<String> = Vec::new();
    let mut user_fos: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--zoo" => zoo = true,
            "--rewrite" => rewrite_mode = true,
            "--index" => index_mode = true,
            "--query" => match it.next() {
                Some(q) => user_queries.push(q),
                None => {
                    eprintln!("--query expects an XPath expression");
                    std::process::exit(2);
                }
            },
            "--fo" => match it.next() {
                Some(q) => user_fos.push(q),
                None => {
                    eprintln!("--fo expects an FO formula");
                    std::process::exit(2);
                }
            },
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => jobs = Some(n),
                None => {
                    eprintln!("--jobs expects a numeric argument");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument `{other}` (expected --json, --zoo, --rewrite, --index, \
                     --query EXPR, --fo EXPR, and/or --jobs N)"
                );
                std::process::exit(2);
            }
        }
    }
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

    let mut vocab = Vocab::new();
    rep.experiment("lint", "static analysis over the bundled program roster");
    rep.table(
        None,
        0,
        &[
            col("program", 26),
            col("class", 8),
            col("severity", 8),
            col("code", 6),
            col("location", 24),
            col("finding", 48),
        ],
    );
    let mut errors = 0usize;
    let mut pruned_notes: Vec<String> = Vec::new();
    // Prepare (serial): roster construction mutates the vocabulary.
    let programs = twq::roster(&mut vocab);
    // Execute (parallel): every analysis pass and the pruner are pure in
    // the program, so they fan out across the pool.
    let analyzed = pool.scoped(programs.len(), |i| {
        let prog = &programs[i].1;
        (analyze(prog), prune(prog))
    });
    // Print (serial, roster order).
    for ((name, prog), (an, pr)) in programs.iter().zip(analyzed) {
        let class = Cell::str(an.inference.class.to_string());
        if an.diagnostics.is_empty() {
            rep.row(&[
                Cell::str(name.clone()),
                class.clone(),
                Cell::str("clean"),
                Cell::str("-"),
                Cell::str("-"),
                Cell::str("-"),
            ]);
        }
        // Generated programs (the Theorem 7.1 compiler outputs) repeat
        // one finding across hundreds of structurally identical states;
        // cap the display per code and summarize the tail.
        const PER_CODE_CAP: usize = 3;
        let mut shown: std::collections::BTreeMap<&str, usize> = Default::default();
        for d in &an.diagnostics {
            let count = shown.entry(d.code).or_insert(0);
            *count += 1;
            if *count > PER_CODE_CAP {
                continue;
            }
            rep.row(&[
                Cell::str(name.clone()),
                class.clone(),
                Cell::str(d.severity.name()),
                Cell::str(d.code),
                Cell::str(d.loc.render(prog)),
                Cell::str(format!("{} ({})", d.message, d.hint)),
            ]);
        }
        for (code, count) in shown {
            if count > PER_CODE_CAP {
                rep.row(&[
                    Cell::str(name.clone()),
                    class.clone(),
                    Cell::str("..."),
                    Cell::str(code),
                    Cell::str("-"),
                    Cell::str(format!("and {} more like this", count - PER_CODE_CAP)),
                ]);
            }
        }
        let (e, _, _) = severity_counts(&an.diagnostics);
        errors += e;
        if pr.changed() {
            pruned_notes.push(format!(
                "{name}: prune() removes {} rule(s), {} state(s)",
                pr.removed_rules.len(),
                pr.removed_states.len()
            ));
        }
    }
    for note in &pruned_notes {
        rep.note(note);
    }

    // Query-level static analysis: the twq-rw rewriter over the bundled
    // query roster (`--rewrite`) and/or user-supplied queries, plus the
    // `twq-index` planner verdicts (`--index`).
    let query_analysis = rewrite_mode || !user_queries.is_empty() || !user_fos.is_empty();
    if query_analysis || index_mode {
        // `--index` with no `--query` plans the bundled roster, mirroring
        // how `--rewrite` lints it.
        let mut queries: Vec<(String, XPath)> =
            if rewrite_mode || (index_mode && user_queries.is_empty()) {
                query_roster(&mut vocab)
            } else {
                Vec::new()
            };
        for q in &user_queries {
            match parse_xpath(q, &mut vocab) {
                Ok(p) => queries.push((q.clone(), p)),
                Err(e) => {
                    eprintln!("--query `{q}`: {e}");
                    std::process::exit(2);
                }
            }
        }
        if query_analysis {
            rep.experiment(
                "rewrite",
                "query-level static analysis: normal form, emptiness, streamability",
            );
            rep.table(
                None,
                0,
                &[
                    col("query", 36),
                    col("cert", 10),
                    col("severity", 8),
                    col("code", 6),
                    col("finding", 64),
                ],
            );
            // Execute (parallel): the rewriter is pure in the query.
            let rewrites = pool.scoped(queries.len(), |i| rewrite(&queries[i].1));
            for ((name, _), rw) in queries.iter().zip(&rewrites) {
                errors += report_query(rep, name, rw, &vocab);
            }
        }

        if index_mode {
            rep.experiment(
                "index",
                "cost-based walk-vs-index planning over a representative document",
            );
            // The cost model prices plans against concrete posting sizes,
            // so planning needs a document; a seeded generated tree keeps
            // the verdicts reproducible. Nothing is evaluated here.
            let cfg = TreeGenConfig::example32(&mut vocab, 256, &[1, 2]);
            let doc = random_tree(&cfg, 7);
            let idx = TreeIndex::build(&doc);
            let ctx = RewriteCtx::unconstrained();
            let model = CostModel::default();
            rep.note(&format!(
                "planning against a generated {}-node example 3.2 document",
                doc.len()
            ));
            rep.table(
                None,
                0,
                &[
                    col("query", 36),
                    col("evaluator", 9),
                    col("est index ns", 12),
                    col("est walk ns", 12),
                    col("plan", 56),
                ],
            );
            // Execute (parallel): planning is pure in the query and index.
            let plans = pool.scoped(queries.len(), |i| {
                plan_indexed(&queries[i].1, &ctx, &idx, &model, Force::Auto)
            });
            for ((name, _), plan) in queries.iter().zip(&plans) {
                let evaluator = match plan.evaluator {
                    IndexedEvaluator::EmptyShortCircuit => "empty",
                    IndexedEvaluator::Indexed => "index",
                    IndexedEvaluator::Walking => "walk",
                };
                let (est_ix, est_walk) = plan.estimate.as_ref().map_or_else(
                    || ("-".to_owned(), "-".to_owned()),
                    |e| (format!("{:.0}", e.index_ns), format!("{:.0}", e.walk_ns)),
                );
                let shown = plan.plan.as_ref().map_or_else(
                    || "(short-circuit: provably empty)".to_owned(),
                    |p| p.display(&vocab),
                );
                rep.row(&[
                    Cell::str(name.clone()),
                    Cell::str(evaluator),
                    Cell::str(est_ix),
                    Cell::str(est_walk),
                    Cell::str(shown),
                ]);
            }
        }

        let mut formulas: Vec<(String, Formula)> = if rewrite_mode {
            fo_roster(&mut vocab)
        } else {
            Vec::new()
        };
        for q in &user_fos {
            match parse_fo(q, &mut vocab) {
                Ok(p) => formulas.push((q.clone(), p.formula)),
                Err(e) => {
                    eprintln!("--fo `{q}`: {e}");
                    std::process::exit(2);
                }
            }
        }
        if !formulas.is_empty() {
            rep.experiment("rewrite-fo", "FO normal forms: before => after");
            rep.table(
                None,
                0,
                &[
                    col("formula", 44),
                    col("changed", 7),
                    col("normal form", 56),
                ],
            );
            let normed = pool.scoped(formulas.len(), |i| normalize_formula(&formulas[i].1));
            for ((name, f), nf) in formulas.iter().zip(&normed) {
                rep.row(&[
                    Cell::str(name.clone()),
                    (*nf != *f).into(),
                    Cell::str(nf.display(&vocab)),
                ]);
            }
        }
    }

    if zoo {
        rep.experiment(
            "zoo",
            "seeded ill-formed programs: each triggers the pass built to catch it",
        );
        rep.table(
            None,
            0,
            &[
                col("entry", 22),
                col("expect", 7),
                col("hit", 5),
                col("codes found", 40),
            ],
        );
        // Prepare (serial): zoo construction mutates the vocabulary.
        let entries = lint_zoo(&mut vocab);
        // Execute (parallel), then print in zoo order.
        let zoo_analyzed = pool.scoped(entries.len(), |i| {
            analyze_for_class(&entries[i].program, Some(entries[i].against))
        });
        for (entry, an) in entries.iter().zip(zoo_analyzed) {
            let mut codes: Vec<&str> = an.diagnostics.iter().map(|d| d.code).collect();
            codes.dedup();
            rep.row(&[
                Cell::str(entry.name),
                Cell::str(entry.expect_code),
                codes.contains(&entry.expect_code).into(),
                Cell::str(codes.join(" ")),
            ]);
        }
    }

    if errors > 0 {
        eprintln!("lint: {errors} error-severity finding(s) on the roster");
        std::process::exit(1);
    }
}
