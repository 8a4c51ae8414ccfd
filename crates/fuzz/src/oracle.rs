//! The differential oracle: run one case through every applicable
//! evaluator pair and report the first disagreement.
//!
//! | pair | compared |
//! |------|----------|
//! | `run` vs `run_in(MetricsCollector, unlimited ResourceGuard)` | full `RunReport`, and the collector's step count |
//! | `run` vs `run_batch` | full `RunReport`, every batch slot |
//! | `run` vs `run_routed` | acceptance (skipped on limit halts) |
//! | `run` vs `run(prune(P))` | acceptance (skipped on limit halts) |
//! | serial `run_in` vs `Pool::scoped` `run_in`, fresh guard per item | `Ok` report / trip reason + injected kind, per budget axis |
//! | `eval_sentence` vs `_memo` vs `_par` | boolean verdict |
//! | `select` vs `select_memo` vs `select_batch` vs `ExistsFormula::select` | node sets, every context node |
//! | serial `select_in` vs `Pool::scoped` `select_in`, fresh guard per node | `Ok` set / trip reason, per node |
//! | `eval_sentence` / `select` / `ExistsFormula::select` vs the same on `normalize_formula(φ)` / `normalize_exists(φ)` | boolean verdict; node sets, every context node |
//! | `select` vs `fo_select_routed` | node sets, every context node, fragment-routed |
//! | `eval_from` vs `ExistsFormula::select` of `compile(p)` (the §2.3 FO(∃*) translation the case carries as `phi`) | node sets, every context node |
//! | `eval_from` vs `eval_from` on `rewrite(p).output` and vs `eval_plan_from(compile_xpath(p))`; `eval_pairs` vs `eval_pairs` on the normal form | node sets, every context node; the full binary relation |
//! | `eval_from` vs `run_query_planned` and `run_query_indexed` under every `Force` | root node set, case-alphabet context |
//! | `run_routed(xpath_to_program(p))` vs the same on the normal form | acceptance; a provably-empty normal form takes the vacuous verdict |
//! | near-miss builder spec | rejected with the intended `ProgramError` |
//! | smelly program | analyzer diagnostics non-empty or pruner fired |
//!
//! All comparisons are exact: evaluators disagreeing on *how* they fail
//! (trip reason, injected fault kind) count as discrepancies just like
//! wrong answers.

use twq_analyze::{analyze, prune, run_routed};
use twq_automata::{run, run_batch, run_in, Limits, RunReport, TwProgram};
use twq_exec::Pool;
use twq_guard::{Guard, GuardError, NullGuard, ResourceGuard, TwqError};
use twq_index::{compile_xpath, eval_plan_from, fo_select_routed, CostModel, Force, TreeIndex};
use twq_logic::fo::build::exists;
use twq_logic::{
    eval_sentence, eval_sentence_memo, eval_sentence_par, select, select_batch, select_in,
    select_memo,
};
use twq_obs::{
    diff as trace_diff, Divergence, MetricsCollector, NullCollector, Trace, TraceCollector, Verdict,
};
use twq_rw::{
    normalize_exists, normalize_formula, rewrite, run_query_indexed, run_query_planned, RewriteCtx,
};
use twq_tree::{DelimTree, NodeId, Tree};
use twq_xpath::{eval_from, eval_pairs, xpath_to_program, SelectionTest, XPath};

use crate::gen::{BudgetSpec, FormulaCase, ProgramCase};

/// Engine limits for fuzz runs: tight enough that cyclic or exploding
/// programs stop fast, loose enough that ordinary walks finish.
pub const FUZZ_LIMITS: Limits = Limits {
    max_steps: 20_000,
    max_atp_depth: 12,
    cycle_check_interval: 1,
};

/// A deliberately planted bug, used by `fuzz --self-test` to prove the
/// oracle catches discrepancies and the minimizer shrinks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// Flip the routed evaluator's acceptance on every tree with at least
    /// two nodes. Monotone in the tree, so delta debugging shrinks repros
    /// to a two-node witness.
    RoutedFlip,
}

impl InjectedBug {
    /// Stable CLI / repro-file name.
    pub fn name(self) -> &'static str {
        match self {
            InjectedBug::RoutedFlip => "routed-flip",
        }
    }

    /// Parse the stable name.
    pub fn from_name(s: &str) -> Option<InjectedBug> {
        match s {
            "routed-flip" => Some(InjectedBug::RoutedFlip),
            _ => None,
        }
    }
}

/// One observed disagreement between two evaluators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discrepancy {
    /// Which evaluator pair disagreed (e.g. `"run vs run_routed"`).
    pub pair: String,
    /// What each side produced.
    pub detail: String,
    /// Causal first-divergence report, when both sides could be traced.
    /// Evaluators without a collector seam (routed graph evaluation,
    /// batch machinery) contribute verdict-only traces, so the divergence
    /// lands at the root span `r`.
    pub divergence: Option<Divergence>,
}

impl Discrepancy {
    fn new(pair: &str, detail: String) -> Self {
        Discrepancy {
            pair: pair.to_owned(),
            detail,
            divergence: None,
        }
    }

    fn diverging(pair: &str, detail: String, left: &Trace, right: &Trace) -> Self {
        let mut d = Discrepancy::new(pair, detail);
        d.divergence = Some(trace_diff(left, right).unwrap_or_else(|| Divergence {
            at: "r".to_owned(),
            left_label: left.label.clone(),
            right_label: right.label.clone(),
            left: left.root.head(),
            right: right.root.head(),
            left_accepted: left.verdict().and_then(|v| v.accepted()),
            right_accepted: right.verdict().and_then(|v| v.accepted()),
            note: "traces agree on re-run; divergence outside the traced surface".to_owned(),
        }));
        d
    }
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.pair, self.detail)?;
        if let Some(d) = &self.divergence {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

fn trip(e: &TwqError) -> &GuardError {
    e.guard()
        .expect("evaluators surface guard trips as TwqError::Guard")
}

/// Compare two guarded verdicts: `Ok` reports must be identical, `Err`
/// trips must agree on reason *and* injected fault kind.
fn verdicts_agree<T: PartialEq>(a: &Result<T, TwqError>, b: &Result<T, TwqError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y,
        (Err(x), Err(y)) => {
            let (x, y) = (trip(x), trip(y));
            x.reason == y.reason && x.injected == y.injected
        }
        _ => false,
    }
}

fn verdict_str<T: std::fmt::Debug>(v: &Result<T, TwqError>) -> String {
    match v {
        Ok(x) => format!("Ok({x:?})"),
        Err(e) => {
            let g = trip(e);
            format!("Err(reason={:?}, injected={:?})", g.reason, g.injected)
        }
    }
}

/// [`run_in`] under `g` with a fresh [`TraceCollector`], the trace
/// finished as `label`.
pub(crate) fn traced<G: Guard>(
    prog: &TwProgram,
    delim: &DelimTree,
    label: &str,
    g: &mut G,
) -> (Result<RunReport, TwqError>, Trace) {
    let mut c = TraceCollector::new();
    let out = run_in(prog, delim, FUZZ_LIMITS, &mut c, g);
    (out, c.finish(label))
}

/// Run every evaluator pair applicable to a program case.
pub fn check_program_case(
    case: &ProgramCase,
    pool: &Pool,
    inject: Option<InjectedBug>,
) -> Option<Discrepancy> {
    let prog = &case.program;
    let delim = DelimTree::build(&case.tree);
    let base = run(prog, &delim, FUZZ_LIMITS);

    // 1. A metrics collector and an unlimited guard, together, must be
    // invisible: the report is the plain run's, and the collector saw
    // every step the engine took.
    let mut mc = MetricsCollector::new();
    let governed = run_in(
        prog,
        &delim,
        FUZZ_LIMITS,
        &mut mc,
        &mut ResourceGuard::unlimited(),
    );
    let seen = mc.metrics.steps;
    match governed {
        Ok(ref r) if *r == base && seen == r.steps => {}
        other => {
            let (_, lt) = traced(prog, &delim, "run", &mut NullGuard);
            let (_, rt) = traced(prog, &delim, "run_in", &mut ResourceGuard::unlimited());
            return Some(Discrepancy::diverging(
                "run vs run_in(metrics, unlimited)",
                format!(
                    "base={base:?} governed={} collector steps={seen}",
                    verdict_str(&other)
                ),
                &lt,
                &rt,
            ));
        }
    }

    // 2. Batch slots must reproduce the serial report exactly.
    let trees = vec![case.tree.clone(), case.tree.clone(), case.tree.clone()];
    for (i, r) in run_batch(prog, &trees, FUZZ_LIMITS, pool)
        .iter()
        .enumerate()
    {
        if *r != base {
            let (_, serial) = traced(prog, &delim, "run", &mut NullGuard);
            let lt = Trace::merge_batch("run x3", vec![serial.clone(), serial.clone(), serial]);
            let rt = Trace::merge_batch(
                "run_batch",
                pool.scoped(trees.len(), |i| {
                    let delim = DelimTree::build(&trees[i]);
                    traced(prog, &delim, "run", &mut NullGuard).1
                }),
            );
            return Some(Discrepancy::diverging(
                "run vs run_batch",
                format!("slot {i}: base={base:?} batch={r:?}"),
                &lt,
                &rt,
            ));
        }
    }

    // 3. The routing layer (prune + class-routed evaluator choice) must
    // agree on acceptance whenever the direct run is definite. (On limit
    // halts the graph evaluator may legitimately finish where the direct
    // engine ran out, and vice versa.)
    if !base.halt.is_limit() {
        let routed = run_routed(prog, &delim, FUZZ_LIMITS);
        let mut routed_accepted = routed.accepted;
        if inject == Some(InjectedBug::RoutedFlip) && case.tree.len() >= 2 {
            routed_accepted = !routed_accepted;
        }
        if routed_accepted != base.accepted() {
            // The routed graph evaluator has no collector seam: its side is
            // a verdict-only trace, so the divergence pinpoints the root
            // acceptance flip (left/right_accepted carry the evidence).
            let (_, lt) = traced(prog, &delim, "run", &mut NullGuard);
            let rt = Trace::verdict_only(
                "run_routed",
                Verdict::Bool(routed_accepted),
                &format!("evaluator={:?}", routed.evaluator),
            );
            return Some(Discrepancy::diverging(
                "run vs run_routed",
                format!(
                    "base halt={:?} accepted={} routed({:?}) accepted={}",
                    base.halt,
                    base.accepted(),
                    routed.evaluator,
                    routed_accepted
                ),
                &lt,
                &rt,
            ));
        }
    }

    // 4. Pruning preserves acceptance — but not halt reasons: removing
    // rules of non-co-accessible states turns a doomed wander (Cycle,
    // step-limit) into an immediate Stuck. Compare acceptance only, on
    // definite base runs.
    if !base.halt.is_limit() {
        let pruned = prune(prog);
        let pruned_run = run(&pruned.program, &delim, FUZZ_LIMITS);
        if pruned_run.accepted() != base.accepted() {
            let (_, lt) = traced(prog, &delim, "run", &mut NullGuard);
            let (_, rt) = traced(&pruned.program, &delim, "run(prune)", &mut NullGuard);
            return Some(Discrepancy::diverging(
                "run vs run(prune)",
                format!(
                    "base halt={:?} accepted={} pruned halt={:?} accepted={}",
                    base.halt,
                    base.accepted(),
                    pruned_run.halt,
                    pruned_run.accepted()
                ),
                &lt,
                &rt,
            ));
        }
    }

    // 5. Guarded serial vs guarded batch, one axis at a time plus the
    // combined spec — identical verdicts including trip reasons and
    // injected fault kinds. Every item runs under a fresh guard.
    for spec in budget_axes(&case.budget) {
        let governed = |t: &Tree| {
            let mut g = spec.guard();
            run_in(
                prog,
                &DelimTree::build(t),
                FUZZ_LIMITS,
                &mut NullCollector,
                &mut g,
            )
        };
        let serial: Vec<_> = trees.iter().map(governed).collect();
        let batch = pool.scoped(trees.len(), |i| governed(&trees[i]));
        for (i, (s, b)) in serial.iter().zip(&batch).enumerate() {
            if !verdicts_agree(s, b) {
                let (_, lt) = traced(prog, &delim, "run_in", &mut spec.guard());
                let rv = match b {
                    Ok(r) => Verdict::Halt(r.halt.kind()),
                    Err(_) => Verdict::Trip,
                };
                let rt = Trace::verdict_only("batch run_in", rv, &format!("slot {i}, {spec:?}"));
                return Some(Discrepancy::diverging(
                    "run_in vs batch run_in",
                    format!(
                        "spec={spec:?} slot {i}: serial={} batch={}",
                        verdict_str(s),
                        verdict_str(b)
                    ),
                    &lt,
                    &rt,
                ));
            }
        }
        // A pure fuel/deadline guard only ever *stops* a run; a verdict it
        // lets through must equal the unguarded report.
        if spec.faults.is_none() {
            if let Ok(r) = &serial[0] {
                if *r != base {
                    let (_, lt) = traced(prog, &delim, "run", &mut NullGuard);
                    let (_, rt) = traced(prog, &delim, "run_in", &mut spec.guard());
                    return Some(Discrepancy::diverging(
                        "run vs run_in(limited)",
                        format!("spec={spec:?}: base={base:?} guarded={r:?}"),
                        &lt,
                        &rt,
                    ));
                }
            }
        }
    }

    None
}

/// The budget axes to exercise: each configured constraint in isolation,
/// then the full combination when it mixes axes.
fn budget_axes(budget: &BudgetSpec) -> Vec<BudgetSpec> {
    let mut specs = Vec::new();
    if let Some(fuel) = budget.fuel {
        specs.push(BudgetSpec {
            fuel: Some(fuel),
            ..BudgetSpec::default()
        });
    }
    if let Some(ms) = budget.deadline_ms {
        specs.push(BudgetSpec {
            deadline_ms: Some(ms),
            ..BudgetSpec::default()
        });
    }
    if let Some(plan) = &budget.faults {
        specs.push(BudgetSpec {
            faults: Some(plan.clone()),
            ..BudgetSpec::default()
        });
    }
    if specs.len() > 1 {
        specs.push(budget.clone());
    }
    specs
}

/// Run every evaluator pair applicable to a formula case.
pub fn check_formula_case(case: &FormulaCase, pool: &Pool) -> Option<Discrepancy> {
    let phi = &case.phi;
    let tree = &case.tree;
    let formula = phi.to_formula();
    let sentence = exists(phi.x(), exists(phi.y(), formula.clone()));

    // 1. Sentence verdict: naive vs memoized vs parallel.
    let naive = match eval_sentence(tree, &sentence) {
        Ok(b) => b,
        Err(e) => {
            return Some(Discrepancy::new(
                "eval_sentence",
                format!("rejected a closed sentence: {e}"),
            ))
        }
    };
    match eval_sentence_memo(tree, &sentence) {
        Ok(b) if b == naive => {}
        other => {
            return Some(Discrepancy::new(
                "eval_sentence vs eval_sentence_memo",
                format!("naive={naive} memo={other:?}"),
            ))
        }
    }
    match eval_sentence_par(tree, &sentence, pool) {
        Ok(b) if b == naive => {}
        other => {
            return Some(Discrepancy::new(
                "eval_sentence vs eval_sentence_par",
                format!("naive={naive} par={other:?}"),
            ))
        }
    }

    // 2. Node selection from every context node: naive recursion vs
    // memoized vs pooled batch vs the FO(∃*) selector (semi-joins on
    // tree-shaped branches, backtracking on the rest).
    let us: Vec<NodeId> = tree.node_ids().collect();
    let serial: Vec<_> = us
        .iter()
        .map(|&u| select(tree, &formula, phi.x(), u, phi.y()))
        .collect::<Result<_, _>>()
        .ok()?;
    for (i, &u) in us.iter().enumerate() {
        match select_memo(tree, &formula, phi.x(), u, phi.y()) {
            Ok(s) if s == serial[i] => {}
            other => {
                return Some(Discrepancy::new(
                    "select vs select_memo",
                    format!("node {u}: naive={:?} memo={other:?}", serial[i]),
                ))
            }
        }
        let direct = phi.select(tree, u);
        if direct != serial[i] {
            return Some(Discrepancy::new(
                "select vs ExistsFormula::select",
                format!("node {u}: naive={:?} selected={direct:?}", serial[i]),
            ));
        }
    }
    match select_batch(tree, &formula, phi.x(), &us, phi.y(), pool) {
        Ok(batch) if batch == serial => {}
        other => {
            return Some(Discrepancy::new(
                "select vs select_batch",
                format!("serial={serial:?} batch={other:?}"),
            ))
        }
    }

    // 3. FO normal forms: normalization must change nothing observable,
    // for the closed sentence, the raw matrix from every context node, and
    // the prenex FO(∃*) selector.
    match eval_sentence(tree, &normalize_formula(&sentence)) {
        Ok(b) if b == naive => {}
        other => {
            return Some(Discrepancy::new(
                "eval_sentence vs eval_sentence(normalize_formula)",
                format!("naive={naive} normalized={other:?}"),
            ))
        }
    }
    let formula_norm = normalize_formula(&formula);
    let phi_norm = normalize_exists(phi);
    let idx = TreeIndex::build(tree);
    for (i, &u) in us.iter().enumerate() {
        match select(tree, &formula_norm, phi.x(), u, phi.y()) {
            Ok(s) if s == serial[i] => {}
            other => {
                return Some(Discrepancy::new(
                    "select vs select(normalize_formula)",
                    format!("node {u}: naive={:?} normalized={other:?}", serial[i]),
                ))
            }
        }
        let norm_sel = phi_norm.select(tree, u);
        if norm_sel != serial[i] {
            return Some(Discrepancy::new(
                "ExistsFormula::select vs normalize_exists(phi).select",
                format!("node {u}: naive={:?} normalized={norm_sel:?}", serial[i]),
            ));
        }
        // 4. The index router: in-fragment formulas go through the bitset
        // algebra, the rest fall back — either way the sets must match.
        let (routed_sel, indexed) = fo_select_routed(tree, &idx, phi, u);
        if routed_sel != serial[i] {
            return Some(Discrepancy::new(
                "select vs fo_select_routed",
                format!(
                    "node {u} (indexed={indexed}): naive={:?} routed={routed_sel:?}",
                    serial[i]
                ),
            ));
        }
    }

    // 5. The XPath query stages, when the source query is known: the
    // walker against the FO(∃*) translation `phi`, then each stage against
    // the walker on the query as given.
    if let Some(path) = &case.path {
        // The unconstrained normal form answers like the query everywhere,
        // and an emptiness verdict means the query selects nothing here.
        let rw = rewrite(path);
        let direct_pairs = eval_pairs(tree, path);
        let normal_pairs = eval_pairs(tree, &rw.output);
        if normal_pairs != direct_pairs || (rw.provably_empty && !direct_pairs.is_empty()) {
            return Some(Discrepancy::new(
                "eval_pairs vs eval_pairs(rewrite)",
                format!(
                    "provably_empty={}: direct={direct_pairs:?} normal form={normal_pairs:?}",
                    rw.provably_empty
                ),
            ));
        }
        let plan = compile_xpath(path);
        for &u in &us {
            // `phi` is `compile(path)`, the paper's §2.3 FO(∃*) translation:
            // the walker's definitional reference.
            let direct = eval_from(tree, path, u);
            let defined = phi.select(tree, u);
            if direct != defined {
                return Some(Discrepancy::new(
                    "eval_from vs ExistsFormula::select(compile)",
                    format!("node {u}: walked={direct:?} FO(∃*)={defined:?}"),
                ));
            }
            let normal = eval_from(tree, &rw.output, u);
            if normal != direct {
                return Some(Discrepancy::new(
                    "eval_from vs eval_from(rewrite)",
                    format!("node {u}: direct={direct:?} normal form={normal:?}"),
                ));
            }
            let via_index = eval_plan_from(tree, &idx, &plan, u);
            if via_index != direct {
                return Some(Discrepancy::new(
                    "eval_from vs eval_plan_from(compile_xpath)",
                    format!("node {u}: direct={direct:?} indexed={via_index:?}"),
                ));
            }
        }

        // The certificate planner may stream or short-circuit on an Empty
        // certificate, and the cost-based planner runs under every override
        // (forced walk, forced index, the cost model's own pick): either
        // way the root answer is fixed.
        let ctx = RewriteCtx::unconstrained().with_alphabet(case.alphabet.iter().copied());
        let root_direct = eval_from(tree, path, tree.root());
        let (planned, plan) = run_query_planned(tree, path, &ctx);
        if planned != root_direct {
            return Some(Discrepancy::new(
                "eval_from vs run_query_planned",
                format!(
                    "evaluator={:?}: direct={root_direct:?} planned={planned:?}",
                    plan.evaluator
                ),
            ));
        }
        let model = CostModel::default();
        for force in [Force::Auto, Force::Index, Force::Walk] {
            let (ix_out, ix_plan) = run_query_indexed(tree, &idx, path, &ctx, &model, force);
            if ix_out != root_direct {
                return Some(Discrepancy::new(
                    "eval_from vs run_query_indexed",
                    format!(
                        "force={force:?} evaluator={:?}: direct={root_direct:?} indexed={ix_out:?}",
                        ix_plan.evaluator
                    ),
                ));
            }
        }

        // Routed acceptance: the acceptor compiled from the normal form
        // agrees with the one compiled from the query as given. A
        // provably-empty normal form selects nothing, so only the vacuous
        // `AllValue` test accepts.
        let delim = DelimTree::build(tree);
        let routed = |p: &XPath| {
            let prog = xpath_to_program(p, &case.alphabet, case.id_attr, case.test);
            run_routed(&prog, &delim, FUZZ_LIMITS).accepted
        };
        let direct_acc = routed(path);
        let normal_acc = if rw.provably_empty {
            matches!(case.test, SelectionTest::AllValue(..))
        } else {
            routed(&rw.output)
        };
        if normal_acc != direct_acc {
            return Some(Discrepancy::new(
                "run_routed vs run_routed(rewrite)",
                format!(
                    "test={:?}: direct accepted={direct_acc} normal form accepted={normal_acc} ({:?})",
                    case.test, rw.certificate
                ),
            ));
        }
    }

    // 6. Guarded selection: serial fresh-guard loop vs the same calls
    // fanned across the pool.
    if let Some(fuel) = case.fuel {
        let governed = |u: NodeId| {
            let mut g = ResourceGuard::unlimited().with_budget(fuel);
            select_in(
                tree,
                &formula,
                phi.x(),
                u,
                phi.y(),
                &mut NullCollector,
                &mut g,
            )
        };
        let serial: Vec<_> = us.iter().map(|&u| governed(u)).collect();
        let batch = pool.scoped(us.len(), |i| governed(us[i]));
        for (i, (s, b)) in serial.iter().zip(&batch).enumerate() {
            if !verdicts_agree(s, b) {
                return Some(Discrepancy::new(
                    "select_in vs batch select_in",
                    format!(
                        "fuel={fuel} node {}: serial={} batch={}",
                        us[i],
                        verdict_str(s),
                        verdict_str(b)
                    ),
                ));
            }
        }
    }

    None
}

/// Check that the analyzer sees something wrong with a deliberately smelly
/// (but well-formed) program: at least one diagnostic, or a pruner hit.
pub fn check_smelly_program(prog: &TwProgram) -> Option<Discrepancy> {
    let analysis = analyze(prog);
    let pruned = prune(prog);
    if analysis.diagnostics.is_empty() && !pruned.changed() {
        return Some(Discrepancy::new(
            "analyze on smelly program",
            format!(
                "no diagnostics and nothing pruned for:\n{}",
                prog.display(&twq_tree::Vocab::new())
            ),
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_formula_case, gen_program_case, gen_smelly_program, Universe};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_program_cases_pass_the_oracle() {
        let uni = Universe::standard();
        let pool = Pool::new(2);
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let case = gen_program_case(&mut rng, &uni);
            let d = check_program_case(&case, &pool, None);
            assert!(d.is_none(), "seed {seed}: {}", d.unwrap());
        }
    }

    #[test]
    fn clean_formula_cases_pass_the_oracle() {
        let uni = Universe::standard();
        let pool = Pool::new(2);
        for seed in 100..130 {
            let mut rng = StdRng::seed_from_u64(seed);
            let case = gen_formula_case(&mut rng, &uni);
            let d = check_formula_case(&case, &pool);
            assert!(d.is_none(), "seed {seed}: {}", d.unwrap());
        }
    }

    #[test]
    fn injected_routed_flip_is_caught() {
        let uni = Universe::standard();
        let pool = Pool::new(2);
        let mut caught = 0;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let case = gen_program_case(&mut rng, &uni);
            if let Some(d) = check_program_case(&case, &pool, Some(InjectedBug::RoutedFlip)) {
                assert_eq!(d.pair, "run vs run_routed", "{d}");
                caught += 1;
            }
        }
        assert!(caught > 0, "flip never observable in 40 cases");
    }

    #[test]
    fn smelly_programs_trip_the_analyzer_check() {
        let uni = Universe::standard();
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let prog = gen_smelly_program(&mut rng, &uni);
            assert!(check_smelly_program(&prog).is_none(), "seed {seed}");
        }
    }
}
