//! Property tests for the causal trace layer (`twq-obs::trace`):
//! worker-independent causal IDs, witness provenance that re-satisfies
//! the formulas it claims to witness, and a reflexive diff.

use proptest::prelude::*;

use twq::automata::{examples, run_in, Limits, RunReport, TwProgram};
use twq::exec::Pool;
use twq::guard::NullGuard;
use twq::logic::eval::{eval, Assignment};
use twq::logic::fo::build as fob;
use twq::logic::{eval_sentence_in, Formula, Var};
use twq::obs::{diff, Span, SpanKind, Trace, TraceCollector, Verdict};
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::{DelimTree, Label, NodeId, Tree, Vocab};

/// Run `prog` on `dt` under a fresh trace collector.
fn traced_run(prog: &TwProgram, dt: &DelimTree) -> (RunReport, Trace) {
    let mut c = TraceCollector::new();
    let report = run_in(prog, dt, Limits::default(), &mut c, &mut NullGuard).unwrap();
    (report, c.finish("run"))
}

/// One trace per tree on `pool`, merged positionally into a batch trace.
fn traced_batch(prog: &TwProgram, trees: &[Tree], pool: &Pool) -> (Vec<RunReport>, Trace) {
    let runs = pool.scoped(trees.len(), |i| {
        traced_run(prog, &DelimTree::build(&trees[i]))
    });
    let (reports, traces): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
    (reports, Trace::merge_batch("run_batch", traces))
}

/// Follow the chain of successful ∃ spans: each true existential span
/// carries its winning witness, and the successful candidate's recursion
/// is its last quantifier child (the evaluator short-circuits there).
fn winning_valuation(span: &Span, out: &mut Vec<(Var, NodeId)>) {
    let SpanKind::Quant { exists: true, var } = span.kind else {
        return;
    };
    if span.verdict != Some(Verdict::Bool(true)) {
        return;
    }
    let w = span.witness.expect("a true ∃ span records its witness");
    out.push((Var(var as u16), NodeId(w as u32)));
    if let Some(child) = span
        .children
        .iter()
        .rev()
        .find(|c| matches!(c.kind, SpanKind::Quant { .. }))
    {
        winning_valuation(child, out);
    }
}

/// A random ∃-prefix sentence over `k` variables whose matrix is a
/// conjunction of label and leaf atoms, returned with the matrix.
fn exists_prefix_sentence(k: u16, bits: u64, sigma: Label, delta: Label) -> (Formula, Formula) {
    let mut parts = Vec::new();
    for i in 0..k {
        let x = fob::var(i);
        let l = if bits >> (2 * i) & 1 == 0 {
            sigma
        } else {
            delta
        };
        parts.push(fob::lab(l, x));
        if bits >> (2 * i + 1) & 1 == 0 {
            parts.push(fob::not(fob::leaf(x)));
        }
    }
    let matrix = fob::and(parts);
    let mut sentence = matrix.clone();
    for i in (0..k).rev() {
        sentence = fob::exists(fob::var(i), sentence);
    }
    (sentence, matrix)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Causal IDs are worker-independent: recording is single-threaded
    /// per run and the batch merge is positional, so `--jobs 1` and
    /// `--jobs 4` produce byte-identical traces.
    #[test]
    fn batch_traces_are_worker_independent(seed in 0u64..500, nodes in 1usize..30) {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1, 2]);
        let trees: Vec<Tree> = (0..5).map(|i| random_tree(&cfg, seed + i)).collect();
        let (r1, t1) = traced_batch(&ex.program, &trees, &Pool::new(1));
        let (r4, t4) = traced_batch(&ex.program, &trees, &Pool::new(4));
        prop_assert_eq!(
            r1.iter().map(|r| r.accepted()).collect::<Vec<_>>(),
            r4.iter().map(|r| r.accepted()).collect::<Vec<_>>()
        );
        prop_assert_eq!(t1.to_json_line(), t4.to_json_line());
    }

    /// Witness provenance is honest: binding every reported ∃ witness
    /// along the successful path re-satisfies the quantifier-free matrix.
    #[test]
    fn fo_witnesses_resatisfy_their_matrix(
        seed in 0u64..500,
        nodes in 1usize..20,
        k in 1u16..4,
        bits in 0u64..64,
    ) {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1]);
        let t = random_tree(&cfg, seed);
        let sigma = Label::Sym(cfg.symbols[0]);
        let delta = Label::Sym(*cfg.symbols.last().unwrap());
        let (sentence, matrix) = exists_prefix_sentence(k, bits, sigma, delta);
        let mut c = TraceCollector::new();
        let verdict = eval_sentence_in(&t, &sentence, &mut c, &mut NullGuard);
        let trace = c.finish("eval_sentence");
        prop_assume!(verdict == Ok(true));
        let outer = trace
            .root
            .children
            .iter()
            .find(|c| matches!(c.kind, SpanKind::Quant { .. }))
            .expect("a true ∃-prefix sentence records its outer quantifier");
        let mut val = Vec::new();
        winning_valuation(outer, &mut val);
        prop_assert_eq!(val.len(), k as usize, "one witness per prefix variable");
        let mut asg = Assignment::with_capacity(Some(Var(k - 1)));
        for (v, u) in &val {
            asg.set(*v, *u);
        }
        prop_assert_eq!(eval(&t, &matrix, &mut asg), Ok(true));
    }

    /// `diff` is reflexive-empty: a trace never diverges from itself,
    /// nor from its JSON round trip.
    #[test]
    fn diff_of_a_trace_with_itself_is_empty(seed in 0u64..500, nodes in 1usize..30) {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let cfg = TreeGenConfig::example32(&mut vocab, nodes, &[1, 2]);
        let dt = DelimTree::build(&random_tree(&cfg, seed));
        let (_, trace) = traced_run(&ex.program, &dt);
        prop_assert_eq!(diff(&trace, &trace), None);
        let back = Trace::from_json_line(&trace.to_json_line()).unwrap();
        prop_assert_eq!(diff(&trace, &back), None);
    }
}
