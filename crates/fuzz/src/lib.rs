//! # twq-fuzz — differential fuzzing for the walking-automata stack
//!
//! The paper gives one semantics per query class; this repo grew several
//! evaluators for each (direct engine, guarded engine, batch engine,
//! routed graph evaluator, naive/memoized/parallel FO evaluation,
//! set-at-a-time `FO(∃*)` selection). This crate generates seeded random
//! well-formed programs (stratified by the Definition 5.1 classes),
//! `FO(∃*)` formulas (XPath-compiled and drawn directly), a hostile tree
//! corpus, and adversarial budgets, then requires every applicable
//! evaluator pair to agree — on answers *and* on failure modes. A
//! campaign also tallies what its formulas reached ([`Reach`]).
//! Disagreements are shrunk by delta debugging and written as replayable
//! JSONL repros.
//!
//! Entry points: [`run_campaign`] (fan a seeded campaign over a
//! [`Pool`]), [`run_case`] (one case), [`minimize()`] (shrink a failing
//! triple), [`Repro`] (the JSONL codec).
//!
//! Campaign results are a pure function of `(seed, cases, mix)`: each case
//! derives its own RNG from `case_seed`, and the oracle always uses a
//! private two-worker pool, so `--jobs` only changes wall-clock time.

pub mod explain;
pub mod gen;
pub mod minimize;
pub mod oracle;
pub mod repro;

pub use explain::{explain_repro, explain_with_names};
pub use gen::{
    gen_budget, gen_class, gen_exists, gen_formula_case, gen_near_miss, gen_program,
    gen_program_case, gen_smelly_program, gen_tree, program_error_kind, BudgetSpec, FormulaCase,
    ProgramCase, Universe,
};
pub use minimize::{copy_subtree, delete_subtree, minimize, with_rules};
pub use oracle::{
    check_formula_case, check_program_case, check_smelly_program, Discrepancy, InjectedBug,
    FUZZ_LIMITS,
};
pub use repro::{parse_jsonl, render_jsonl, Repro};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twq_exec::Pool;
use twq_index::{compile_exists, compile_xpath, Axis, CostModel, Force, IxPlan, TreeIndex};
use twq_logic::{Formula, TreeAtom};
use twq_rw::{plan_indexed, Certificate, IndexedEvaluator, RewriteCtx, CATALOG};
use twq_tree::DocIntervals;

use crate::gen::program_error_kind as error_kind;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed; every case derives its RNG from this and its index.
    pub seed: u64,
    /// Number of cases.
    pub cases: u64,
    /// Per-mille of cases that are FO formula cases instead of programs.
    pub formula_per_mille: u32,
    /// Per-mille of cases that are near-miss ill-formed builder specs.
    pub near_miss_per_mille: u32,
    /// Per-mille of cases that are well-formed but analyzer-smelly.
    pub smelly_per_mille: u32,
    /// Shrink failing program cases with [`minimize()`].
    pub minimize: bool,
    /// Plant a bug for self-testing the oracle and minimizer.
    pub inject: Option<InjectedBug>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cases: 1000,
            formula_per_mille: 250,
            near_miss_per_mille: 100,
            smelly_per_mille: 100,
            minimize: true,
            inject: None,
        }
    }
}

/// What a case turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// A well-formed program run through the engine-pair oracle.
    Program,
    /// An FO formula run through the logic-pair oracle.
    Formula,
    /// An ill-formed builder spec checked for the intended rejection.
    NearMiss,
    /// A well-formed program the static analyzer must flag.
    Smelly,
}

impl CaseKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CaseKind::Program => "program",
            CaseKind::Formula => "formula",
            CaseKind::NearMiss => "near-miss",
            CaseKind::Smelly => "smelly",
        }
    }
}

/// What a campaign's formula cases reached, read off each case's formula
/// and source query: the DNF branches
/// [`ExistsFormula::select`](twq_logic::ExistsFormula::select) reduces by
/// semi-joins and those it backtracks over (its own branch analysis,
/// [`ExistsFormula::branch_paths`](twq_logic::ExistsFormula::branch_paths)),
/// the structural atoms of the formulas `compile_exists` translates, by
/// kind, the leaf scans, `IfNonEmpty` guards and axis expansions of the
/// plans `compile_exists` and `compile_xpath` build, and whether the trees
/// the oracle evaluated index plans on keep their arena ids in pre-order.
/// For a source query it also reads the record of `plan_indexed` under the
/// case's alphabet context, as the oracle's planner pair runs it: the
/// rewrite rules that fired, the certificate, and the `Force::Auto`
/// verdict. A tally left at zero is a path no case compared, and the
/// `fuzz` binary fails the campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reach {
    /// DNF branches evaluated by semi-joins.
    pub semijoin: u64,
    /// DNF branches evaluated by backtracking.
    pub backtrack: u64,
    /// Structural atoms of index-compiled formulas, in
    /// [`Reach::COMPILED`] order.
    pub compiled: [u64; 4],
    /// Leaf scans of the compiled plans, in [`Reach::SCANS`] order.
    pub scans: [u64; 6],
    /// `IfNonEmpty` guards of the compiled plans.
    pub guards: u64,
    /// `Expand` nodes of the compiled plans, per axis, in [`Reach::AXES`]
    /// order.
    pub expand: [u64; 4],
    /// Formula cases whose tree the oracle evaluated an index plan on
    /// (through `fo_select_routed` or `eval_plan_from`), by arena order, in
    /// [`Reach::ARENAS`] order.
    pub arenas: [u64; 2],
    /// Fires of each rewrite rule, in [`CATALOG`] order.
    pub rules: [u64; CATALOG.len()],
    /// Rewrite certificates by kind, in [`Reach::CERTIFICATES`] order.
    pub certificates: [u64; 3],
    /// `Force::Auto` planner verdicts, in [`Reach::VERDICTS`] order.
    pub verdicts: [u64; 3],
}

impl Reach {
    /// The structural atom kinds `compile_exists` translates.
    pub const COMPILED: [&'static str; 4] = ["E(x,y)", "E(y,x)", "x≺y", "y≺x"];

    /// The leaf scans of compiled plans that read postings beyond a label:
    /// value postings, the value-group merge of two distinct columns, the
    /// complement of a column's `has` postings, and the structural
    /// postings.
    pub const SCANS: [&'static str; 6] = [
        "ScanValue",
        "ScanAttrPair(a≠b)",
        "ScanAttrBot",
        "ScanLeaf",
        "ScanFirst",
        "ScanLast",
    ];

    /// The axis expansions of compiled plans.
    pub const AXES: [&'static str; 4] = [
        "Expand(child)",
        "Expand(parent)",
        "Expand(desc)",
        "Expand(ancestor)",
    ];

    /// The two sides of `eval_plan_from`: trees whose arena ids are their
    /// pre-order positions, whose pre-order result is returned as it is,
    /// and trees whose result is permuted back into arena ids.
    pub const ARENAS: [&'static str; 2] = ["pre-order arena", "permuted arena"];

    /// The [`Certificate`] kinds.
    pub const CERTIFICATES: [&'static str; 3] = ["Empty", "Streamable", "NotStreamable"];

    /// The verdicts of `plan_indexed` under `Force::Auto`.
    pub const VERDICTS: [&'static str; 3] = ["Auto→empty", "Auto→index", "Auto→walk"];

    /// The tallies of one formula case.
    pub fn of(case: &FormulaCase) -> Reach {
        fn atoms(f: &Formula, x: twq_logic::Var, y: twq_logic::Var, out: &mut [u64; 4]) {
            match f {
                Formula::Atom(a) => {
                    let kind = match *a {
                        TreeAtom::Edge(p, q) if (p, q) == (x, y) => 0,
                        TreeAtom::Edge(p, q) if (p, q) == (y, x) => 1,
                        TreeAtom::Desc(p, q) if (p, q) == (x, y) => 2,
                        TreeAtom::Desc(p, q) if (p, q) == (y, x) => 3,
                        _ => return,
                    };
                    out[kind] += 1;
                }
                Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => {
                    atoms(g, x, y, out)
                }
                Formula::And(gs) | Formula::Or(gs) => gs.iter().for_each(|g| atoms(g, x, y, out)),
                Formula::True | Formula::False => {}
            }
        }
        fn operators(p: &IxPlan, reach: &mut Reach) {
            match p {
                IxPlan::ScanValue(..) => reach.scans[0] += 1,
                IxPlan::ScanAttrPair(a, b) if a != b => reach.scans[1] += 1,
                IxPlan::ScanAttrBot(_) => reach.scans[2] += 1,
                IxPlan::ScanLeaf => reach.scans[3] += 1,
                IxPlan::ScanFirst => reach.scans[4] += 1,
                IxPlan::ScanLast => reach.scans[5] += 1,
                IxPlan::Intersect(ps) | IxPlan::Union(ps) => {
                    ps.iter().for_each(|q| operators(q, reach))
                }
                IxPlan::Expand(axis, q) => {
                    let slot = match axis {
                        Axis::Child => 0,
                        Axis::Parent => 1,
                        Axis::Descendant => 2,
                        Axis::Ancestor => 3,
                    };
                    reach.expand[slot] += 1;
                    operators(q, reach);
                }
                IxPlan::IfNonEmpty(c, q) => {
                    reach.guards += 1;
                    operators(c, reach);
                    operators(q, reach);
                }
                _ => {}
            }
        }
        let phi = &case.phi;
        let (semijoin, backtrack) = phi.branch_paths();
        let mut reach = Reach {
            semijoin: semijoin as u64,
            backtrack: backtrack as u64,
            ..Reach::default()
        };
        let compiled = compile_exists(phi);
        if let Some(plan) = &compiled {
            atoms(phi.matrix(), phi.x(), phi.y(), &mut reach.compiled);
            operators(plan, &mut reach);
        }
        if compiled.is_some() || case.path.is_some() {
            let preorder = DocIntervals::build(&case.tree).arena_is_preorder();
            reach.arenas[usize::from(!preorder)] += 1;
        }
        if let Some(path) = &case.path {
            operators(&compile_xpath(path), &mut reach);
            let ctx = RewriteCtx::unconstrained().with_alphabet(case.alphabet.iter().copied());
            let idx = TreeIndex::build(&case.tree);
            let plan = plan_indexed(path, &ctx, &idx, &CostModel::default(), Force::Auto);
            let rw = &plan.rewritten;
            for (tally, rule) in reach.rules.iter_mut().zip(CATALOG) {
                let fired = rw.fired.iter().find(|(name, _)| *name == rule.name);
                *tally += fired.map_or(0, |&(_, n)| n);
            }
            reach.certificates[match rw.certificate {
                Certificate::Empty => 0,
                Certificate::Streamable { .. } => 1,
                Certificate::NotStreamable { .. } => 2,
            }] += 1;
            reach.verdicts[match plan.evaluator {
                IndexedEvaluator::EmptyShortCircuit => 0,
                IndexedEvaluator::Indexed => 1,
                IndexedEvaluator::Walking => 2,
            }] += 1;
        }
        reach
    }

    /// Add `other`'s tallies.
    pub fn merge(&mut self, other: &Reach) {
        fn add(mine: &mut [u64], theirs: &[u64]) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
        self.semijoin += other.semijoin;
        self.backtrack += other.backtrack;
        add(&mut self.compiled, &other.compiled);
        add(&mut self.scans, &other.scans);
        self.guards += other.guards;
        add(&mut self.expand, &other.expand);
        add(&mut self.arenas, &other.arenas);
        add(&mut self.rules, &other.rules);
        add(&mut self.certificates, &other.certificates);
        add(&mut self.verdicts, &other.verdicts);
    }

    /// The names of the tallies at zero.
    pub fn unreached(&self) -> Vec<&'static str> {
        let paths = [
            ("semi-join", self.semijoin),
            ("backtracking", self.backtrack),
        ];
        let kinds = Reach::COMPILED.into_iter().zip(self.compiled);
        let scans = Reach::SCANS.into_iter().zip(self.scans);
        let guards = [("IfNonEmpty", self.guards)];
        let axes = Reach::AXES.into_iter().zip(self.expand);
        let arenas = Reach::ARENAS.into_iter().zip(self.arenas);
        let rules = CATALOG.iter().map(|r| r.name).zip(self.rules);
        let certificates = Reach::CERTIFICATES.into_iter().zip(self.certificates);
        let verdicts = Reach::VERDICTS.into_iter().zip(self.verdicts);
        paths
            .into_iter()
            .chain(kinds)
            .chain(scans)
            .chain(guards)
            .chain(axes)
            .chain(arenas)
            .chain(rules)
            .chain(certificates)
            .chain(verdicts)
            .filter(|&(_, n)| n == 0)
            .map(|(name, _)| name)
            .collect()
    }

    /// Two-line summary: what the formulas and plans reached, then what
    /// the planner's rewrite and verdict did.
    pub fn summary(&self) -> String {
        fn tallies<'a>(names: impl IntoIterator<Item = &'a str>, counts: &[u64]) -> String {
            let named: Vec<String> = names
                .into_iter()
                .zip(counts)
                .map(|(name, n)| format!("{name} {n}"))
                .collect();
            named.join(", ")
        }
        format!(
            "FO(∃*) branches: {} semi-join, {} backtracking; compile_exists atoms: {}; \
             compiled plan scans: {}; compiled plan guards: IfNonEmpty {}; \
             compiled plan axis steps: {}; index plans evaluated on: {}\n\
             rewrite rules fired: {}; certificates: {}; plan_indexed verdicts: {}",
            self.semijoin,
            self.backtrack,
            tallies(Reach::COMPILED, &self.compiled),
            tallies(Reach::SCANS, &self.scans),
            self.guards,
            tallies(Reach::AXES, &self.expand),
            tallies(Reach::ARENAS, &self.arenas),
            tallies(CATALOG.iter().map(|r| r.name), &self.rules),
            tallies(Reach::CERTIFICATES, &self.certificates),
            tallies(Reach::VERDICTS, &self.verdicts)
        )
    }
}

/// The outcome of one case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Case index within the campaign.
    pub index: u64,
    /// The per-case seed (replays the case via the generators alone).
    pub seed: u64,
    /// What was generated.
    pub kind: CaseKind,
    /// The disagreement, if any.
    pub discrepancy: Option<Discrepancy>,
    /// The failing triple, for program-shaped cases (minimizable).
    pub case: Option<ProgramCase>,
    /// What a formula case reached (zero for the other kinds).
    pub reach: Reach,
}

/// Derive a per-case seed: splitmix64 over `(campaign seed, index)`, so
/// case streams are independent and the campaign can fan out in any order.
pub fn case_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut z = campaign_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one case. `oracle_pool` is the pool handed to the differential
/// oracle; campaign runs pass a fixed-size private pool so outcomes don't
/// depend on `--jobs`.
pub fn run_case(cfg: &FuzzConfig, uni: &Universe, index: u64, oracle_pool: &Pool) -> CaseOutcome {
    let seed = case_seed(cfg.seed, index);
    let mut rng = StdRng::seed_from_u64(seed);
    let roll = rng.gen_range(0..1000u32);
    let formula_cut = cfg.formula_per_mille;
    let near_cut = formula_cut + cfg.near_miss_per_mille;
    let smelly_cut = near_cut + cfg.smelly_per_mille;

    let mut reach = Reach::default();
    let (kind, discrepancy, case) = if roll < formula_cut {
        let case = gen_formula_case(&mut rng, uni);
        reach = Reach::of(&case);
        (
            CaseKind::Formula,
            check_formula_case(&case, oracle_pool),
            None,
        )
    } else if roll < near_cut {
        let (expected, result) = gen_near_miss(&mut rng, uni);
        let d = match result {
            Ok(_) => Some(Discrepancy {
                pair: "builder near-miss".to_owned(),
                detail: format!("expected rejection {expected:?}, but the program built"),
                divergence: None,
            }),
            Err(e) if error_kind(&e) == expected => None,
            Err(e) => Some(Discrepancy {
                pair: "builder near-miss".to_owned(),
                detail: format!("expected {expected:?}, got {:?}: {e}", error_kind(&e)),
                divergence: None,
            }),
        };
        (CaseKind::NearMiss, d, None)
    } else if roll < smelly_cut {
        let prog = gen_smelly_program(&mut rng, uni);
        let d = check_smelly_program(&prog);
        // Smelly programs are still well-formed: run the full engine
        // oracle on them too (they stress dead-rule and unsat-guard paths
        // in `prune`/`run_routed`).
        let case = ProgramCase {
            program: prog,
            tree: gen::gen_tree(&mut rng, uni),
            budget: BudgetSpec::default(),
        };
        let d = d.or_else(|| check_program_case(&case, oracle_pool, cfg.inject));
        (CaseKind::Smelly, d, Some(case))
    } else {
        let case = gen_program_case(&mut rng, uni);
        let d = check_program_case(&case, oracle_pool, cfg.inject);
        (CaseKind::Program, d, Some(case))
    };

    CaseOutcome {
        index,
        seed,
        kind,
        case: if discrepancy.is_some() { case } else { None },
        discrepancy,
        reach,
    }
}

/// A campaign failure, optionally minimized, as a writable repro.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Case index within the campaign.
    pub index: u64,
    /// The per-case seed.
    pub seed: u64,
    /// What was generated.
    pub kind: CaseKind,
    /// The disagreement.
    pub discrepancy: Discrepancy,
    /// A replayable repro (program-shaped failures only).
    pub repro: Option<Repro>,
}

/// Aggregated campaign results.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Cases run per kind: `(program, formula, near-miss, smelly)`.
    pub counts: [u64; 4],
    /// All failures, in case order.
    pub failures: Vec<Failure>,
    /// What the formula cases reached, summed.
    pub reach: Reach,
}

impl CampaignReport {
    /// Total cases run.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether the campaign was clean.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} cases ({} program, {} formula, {} near-miss, {} smelly): {} failure(s)",
            self.total(),
            self.counts[0],
            self.counts[1],
            self.counts[2],
            self.counts[3],
            self.failures.len()
        )
    }
}

fn kind_slot(k: CaseKind) -> usize {
    match k {
        CaseKind::Program => 0,
        CaseKind::Formula => 1,
        CaseKind::NearMiss => 2,
        CaseKind::Smelly => 3,
    }
}

/// Run a seeded campaign, fanning cases across `outer`. Each case's oracle
/// runs on a private two-worker pool, so the report is identical for any
/// `outer` size. Failing program cases are minimized (when
/// `cfg.minimize`) and packaged as repros carrying the universe's
/// vocabulary.
pub fn run_campaign(cfg: &FuzzConfig, uni: &Universe, outer: &Pool) -> CampaignReport {
    let n = usize::try_from(cfg.cases).expect("case count fits usize");
    let outcomes = outer.scoped(n, |i| {
        let inner = Pool::new(2);
        run_case(cfg, uni, i as u64, &inner)
    });

    let mut report = CampaignReport::default();
    for out in outcomes {
        report.counts[kind_slot(out.kind)] += 1;
        report.reach.merge(&out.reach);
        let Some(discrepancy) = out.discrepancy else {
            continue;
        };
        let repro = out.case.map(|case| {
            let inner = Pool::new(2);
            // Re-check the (possibly minimized) case so the embedded
            // divergence report describes the stored triple, not the
            // pre-shrink original.
            let (case, rechecked) = if cfg.minimize {
                let min = minimize(&case, &inner, cfg.inject);
                let d = check_program_case(&min, &inner, cfg.inject);
                (min, d)
            } else {
                (case, None)
            };
            let disc = rechecked.as_ref().unwrap_or(&discrepancy);
            Repro {
                vocab: uni.vocab.clone(),
                case,
                inject: cfg.inject,
                pair: disc.pair.clone(),
                detail: disc.detail.clone(),
                divergence: disc.divergence.clone(),
            }
        });
        report.failures.push(Failure {
            index: out.index,
            seed: out.seed,
            kind: out.kind,
            discrepancy,
            repro,
        });
    }
    report
}

/// Re-check stored repros: returns the indices (0-based line numbers in
/// the parsed batch) that still fail.
pub fn replay(repros: &[Repro], pool: &Pool) -> Vec<usize> {
    repros
        .iter()
        .enumerate()
        .filter(|(_, r)| check_program_case(&r.case, pool, r.inject).is_some())
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_spread() {
        let a = case_seed(1, 0);
        let b = case_seed(1, 1);
        let c = case_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let uni = Universe::standard();
        let cfg = FuzzConfig {
            seed: 42,
            cases: 120,
            ..FuzzConfig::default()
        };
        let serial = run_campaign(&cfg, &uni, &Pool::serial());
        assert!(serial.clean(), "{:#?}", serial.failures);
        assert_eq!(serial.total(), 120);
        // Every kind should appear in 120 cases at the default mix.
        assert!(serial.counts.iter().all(|&c| c > 0), "{:?}", serial.counts);
        let wide = run_campaign(&cfg, &uni, &Pool::new(4));
        assert_eq!(serial.counts, wide.counts);
        assert_eq!(wide.failures.len(), 0);
    }

    #[test]
    fn self_test_catches_and_minimizes_the_planted_bug() {
        let uni = Universe::standard();
        let cfg = FuzzConfig {
            seed: 7,
            cases: 60,
            inject: Some(InjectedBug::RoutedFlip),
            ..FuzzConfig::default()
        };
        let report = run_campaign(&cfg, &uni, &Pool::new(2));
        assert!(!report.clean(), "planted bug not caught in 60 cases");
        let with_repro = report
            .failures
            .iter()
            .find_map(|f| f.repro.as_ref())
            .expect("program-shaped failure with repro");
        assert!(with_repro.case.program.state_count() <= 8);
        assert!(with_repro.case.tree.len() <= 16);
        // The written repro must replay as still-failing.
        let line = with_repro.to_json_line();
        let back = Repro::from_json_line(&line).unwrap();
        assert_eq!(replay(&[back], &Pool::new(2)), vec![0]);
    }
}
