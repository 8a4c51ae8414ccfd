//! Seeded case generation: random well-formed `TwProgram`s stratified by
//! the Definition 5.1 class, near-miss ill-formed builder specs, hostile
//! tree shapes, and resource-budget rolls.
//!
//! Everything here is a pure function of the `StdRng` handed in, which is
//! itself a pure function of the campaign seed and the case index — the
//! whole corpus is reproducible from one `u64`.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use twq_automata::{Action, Dir, ProgramError, State, TwClass, TwProgram, TwProgramBuilder};
use twq_guard::FaultPlan;
use twq_logic::exists::selectors;
use twq_logic::fo::build as fb;
use twq_logic::store::sbuild;
use twq_logic::{ExistsFormula, Formula, RegId, Relation, SFormula, Var};
use twq_tree::generate::{
    chain_tree, comb_tree, perfect_tree, random_tree, star_tree, TreeGenConfig,
};
use twq_tree::{AttrId, Label, SymId, Tree, Value, Vocab};
use twq_xpath::ast::xb;
use twq_xpath::{
    compile, random_xpath_shaped, Pred, SelectionTest, XPath, XPathGenConfig, XPathShape,
};

/// The shared generation universe: Example 3.2's `{σ, δ}` alphabet, the
/// attribute `a`, and a small integer datum pool. Every generated program,
/// formula, and tree of a campaign speaks this vocabulary, so any program
/// can run on any tree.
#[derive(Debug, Clone)]
pub struct Universe {
    /// The vocabulary all ids below were interned in.
    pub vocab: Vocab,
    /// `{σ, δ}`.
    pub symbols: Vec<SymId>,
    /// The attribute `a`.
    pub attr: AttrId,
    /// The attribute `b`, painted on formula-case trees only, so that a
    /// compiled `@a=@b` filter joins two columns.
    pub attr_b: AttrId,
    /// The datum pool (integers `0..=3`).
    pub values: Vec<Value>,
}

impl Universe {
    /// The standard campaign universe.
    pub fn standard() -> Universe {
        let mut vocab = Vocab::new();
        let cfg = TreeGenConfig::example32(&mut vocab, 1, &[0, 1, 2, 3]);
        let attr = vocab.attr("a");
        let attr_b = vocab.attr("b");
        let values = cfg.attributes[0].1.clone();
        Universe {
            symbols: cfg.symbols,
            attr,
            attr_b,
            values,
            vocab,
        }
    }

    /// All labels a rule can dispatch on: the four delimiters plus the
    /// element symbols.
    pub fn labels(&self) -> Vec<Label> {
        let mut out = vec![
            Label::DelimRoot,
            Label::DelimOpen,
            Label::DelimClose,
            Label::DelimLeaf,
        ];
        out.extend(self.symbols.iter().map(|&s| Label::Sym(s)));
        out
    }

    fn value(&self, rng: &mut StdRng) -> Value {
        self.values[rng.gen_range(0..self.values.len())]
    }
}

/// The resource constraints a differential case runs under; `None`
/// everywhere means unguarded. Deadlines are only ever generated as `0 ms`
/// (already expired), the single deterministic point of the wall clock.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BudgetSpec {
    /// Fuel budget, charged once per evaluator step.
    pub fuel: Option<u64>,
    /// Wall-clock deadline in milliseconds (generated only as `Some(0)`).
    pub deadline_ms: Option<u64>,
    /// Seeded chaos plan (fault injection).
    pub faults: Option<FaultPlan>,
}

impl BudgetSpec {
    /// Build a fresh guard enforcing this spec.
    pub fn guard(&self) -> twq_guard::ResourceGuard {
        let mut g = twq_guard::ResourceGuard::unlimited();
        if let Some(fuel) = self.fuel {
            g = g.with_budget(fuel);
        }
        if let Some(ms) = self.deadline_ms {
            g = g.with_deadline(std::time::Duration::from_millis(ms));
        }
        if let Some(plan) = &self.faults {
            g = g.with_faults(plan.clone());
        }
        g
    }
}

/// A differential program case: run `program` on `tree` under `budget`
/// through every applicable evaluator pair.
#[derive(Debug, Clone)]
pub struct ProgramCase {
    /// The generated (or minimized) program.
    pub program: TwProgram,
    /// The data tree (element labels only; the oracle delimits it).
    pub tree: Tree,
    /// Resource constraints for the guarded pairs.
    pub budget: BudgetSpec,
}

/// A differential formula case: evaluate the binary `FO(∃*)` formula on
/// `tree` through every FO evaluator pair, and — when the source XPath is
/// known — every XPath query stage (rewrite, index plan, planners, routed
/// acceptor) too.
#[derive(Debug, Clone)]
pub struct FormulaCase {
    /// The binary formula: XPath-compiled or drawn directly.
    pub phi: ExistsFormula,
    /// The source XPath `phi` was compiled from (`None` for a directly
    /// drawn formula and for the fallback selector); drives the XPath
    /// query-stage checks.
    pub path: Option<XPath>,
    /// The element alphabet the tree was generated over (a sound
    /// [`twq_rw::RewriteCtx`] assumption for the planner pair).
    pub alphabet: Vec<SymId>,
    /// The witness attribute for the routed acceptor pair.
    pub id_attr: AttrId,
    /// The selection test for the routed acceptor pair.
    pub test: SelectionTest,
    /// The data tree.
    pub tree: Tree,
    /// Optional fuel for the guarded selection pair.
    pub fuel: Option<u64>,
}

/// Generate a random well-formed program of (at most) the given class.
///
/// The program is assembled through the validating [`TwProgramBuilder`] and
/// is correct by construction; the build is still checked and the class
/// verified via [`TwProgram::check_class`].
pub fn gen_program(
    rng: &mut StdRng,
    uni: &Universe,
    class: TwClass,
    max_states: usize,
) -> TwProgram {
    let mut b = TwProgramBuilder::new();
    let n = rng.gen_range(2..=max_states.max(2));
    let mut states: Vec<State> = (0..n - 1).map(|i| b.state(&format!("q{i}"))).collect();
    let qf = b.state("qF");
    b.initial(states[0]).final_state(qf);

    // Registers per class. Register X1 is always unary for the atp classes
    // (atp results land in a register arity-compatible with X1).
    let relational = matches!(class, TwClass::TwR | TwClass::TwRL);
    let mut arities: Vec<usize> = Vec::new();
    arities.push(if class == TwClass::TwR && rng.gen_bool(0.4) {
        2
    } else {
        1
    });
    if rng.gen_bool(0.6) {
        arities.push(if relational && rng.gen_bool(0.5) {
            2
        } else {
            1
        });
    }
    let regs: Vec<RegId> = arities
        .iter()
        .map(|&a| {
            // Initial content: usually empty; sometimes a singleton (in
            // range for every class — Definition 5.1 registers hold at
            // most one value).
            let init = if a == 1 && rng.gen_bool(0.2) {
                Relation::singleton(uni.value(rng))
            } else {
                Relation::empty(a)
            };
            b.register(a, init)
        })
        .collect();

    states.push(qf); // rule targets may be any state, including final
    let labels = uni.labels();
    for &q in &states[..states.len() - 1] {
        for &label in &labels {
            if !rng.gen_bool(0.75) {
                continue;
            }
            let guard = gen_guard(rng, uni, &arities, 2);
            let action = gen_action(rng, uni, class, &states, &arities, &regs);
            b.rule(label, q, guard, action);
            // A small rate of duplicate (label, state) rules exercises the
            // Nondeterministic halt across every evaluator.
            if rng.gen_bool(0.04) {
                let action = gen_action(rng, uni, class, &states, &arities, &regs);
                b.rule_true(label, q, action);
            }
        }
    }
    let prog = b
        .build()
        .expect("generated spec is well-formed by construction");
    debug_assert!(
        prog.check_class(class).is_ok(),
        "generator broke class {class}"
    );
    prog
}

/// A random closed store formula (guard) mentioning only declared registers.
fn gen_guard(rng: &mut StdRng, uni: &Universe, arities: &[usize], depth: usize) -> SFormula {
    use sbuild::*;
    let d = uni.value(rng);
    let top = rng.gen_range(0..10u32);
    match top {
        // Unguarded rules dominate: walks must make progress to be
        // interesting.
        0..=3 => SFormula::True,
        4 => eq(attr(uni.attr), cst(d)),
        5 if !arities.is_empty() => {
            // "register i is non-empty"
            let i = rng.gen_range(0..arities.len());
            let terms: Vec<_> = (0..arities[i]).map(|k| v(k as u16)).collect();
            let mut f = rel(RegId(i as u8), terms);
            for k in (0..arities[i]).rev() {
                f = exists(Var(k as u16), f);
            }
            f
        }
        6 if !arities.is_empty() && arities.contains(&1) => {
            // "the current attribute value is stored in a unary register"
            let i = arities.iter().position(|&a| a == 1).expect("checked");
            exists(
                Var(0),
                and([rel(RegId(i as u8), [v(0)]), eq(v(0), attr(uni.attr))]),
            )
        }
        7 if depth > 0 => not(gen_guard(rng, uni, arities, depth - 1)),
        8 if depth > 0 => and([
            gen_guard(rng, uni, arities, depth - 1),
            gen_guard(rng, uni, arities, depth - 1),
        ]),
        _ if depth > 0 => or([
            gen_guard(rng, uni, arities, depth - 1),
            gen_guard(rng, uni, arities, depth - 1),
        ]),
        _ => SFormula::True,
    }
}

/// A random update formula with exactly `arity` free variables, in
/// single-value form when `single` demands it.
fn gen_update(
    rng: &mut StdRng,
    uni: &Universe,
    arities: &[usize],
    target: usize,
    single: bool,
) -> SFormula {
    use sbuild::*;
    let arity = arities[target];
    let d = uni.value(rng);
    if arity == 1 {
        let unary_regs: Vec<usize> = (0..arities.len()).filter(|&i| arities[i] == 1).collect();
        let choice = rng.gen_range(0..if single { 4 } else { 6 });
        match choice {
            0 => eq(v(0), attr(uni.attr)),
            1 => eq(v(0), cst(d)),
            2 => not(eq(v(0), v(0))), // the canonical clear
            3 => {
                // copy a unary register (possibly the target itself)
                let i = unary_regs[rng.gen_range(0..unary_regs.len())];
                rel(RegId(i as u8), [v(0)])
            }
            4 => or([eq(v(0), cst(d)), eq(v(0), attr(uni.attr))]),
            _ => match arities.iter().position(|&a| a == 2) {
                // project a binary register (free vars: just x0)
                Some(i) => exists(Var(1), rel(RegId(i as u8), [v(0), v(1)])),
                None => and([rel(RegId(target as u8), [v(0)]), not(eq(v(0), cst(d)))]),
            },
        }
    } else {
        debug_assert!(!single, "single-value classes declare only unary registers");
        let d2 = uni.value(rng);
        match rng.gen_range(0..4u32) {
            0 => and([eq(v(0), attr(uni.attr)), eq(v(1), cst(d))]),
            1 => and([eq(v(0), v(1)), eq(v(0), cst(d2))]), // a diagonal point
            2 => match arities.iter().position(|&a| a == 2) {
                Some(i) => rel(RegId(i as u8), [v(1), v(0)]), // transpose copy
                None => and([eq(v(0), cst(d)), eq(v(1), cst(d2))]),
            },
            _ => and([eq(v(0), cst(d)), eq(v(1), attr(uni.attr))]),
        }
    }
}

/// A random `atp` look-ahead formula legal for the class.
fn gen_selector(rng: &mut StdRng, uni: &Universe, class: TwClass) -> ExistsFormula {
    let single_only = class == TwClass::TwL;
    let n = if single_only { 4 } else { 8 };
    match rng.gen_range(0..n) {
        0 => selectors::self_node(),
        1 => selectors::parent(),
        2 => selectors::first_child(),
        3 => selectors::root_node(),
        4 => selectors::children(),
        5 => selectors::descendants(),
        6 => selectors::delim_leaf_descendants(),
        _ => {
            let s = uni.symbols[rng.gen_range(0..uni.symbols.len())];
            selectors::descendants_labeled(Label::Sym(s))
        }
    }
}

fn gen_action(
    rng: &mut StdRng,
    uni: &Universe,
    class: TwClass,
    states: &[State],
    arities: &[usize],
    regs: &[RegId],
) -> Action {
    let next = states[rng.gen_range(0..states.len())];
    let lookahead = matches!(class, TwClass::TwL | TwClass::TwRL);
    let single = matches!(class, TwClass::Tw | TwClass::TwL);
    let roll = rng.gen_range(0..10u32);
    if roll < 6 || regs.is_empty() {
        let dir = match rng.gen_range(0..5u32) {
            0 => Dir::Stay,
            1 => Dir::Left,
            2 => Dir::Right,
            3 => Dir::Up,
            _ => Dir::Down,
        };
        Action::Move(next, dir)
    } else if roll < 9 || !lookahead {
        let target = rng.gen_range(0..regs.len());
        Action::Update(
            next,
            gen_update(rng, uni, arities, target, single),
            regs[target],
        )
    } else {
        // atp result must be arity-compatible with register X1 (unary in
        // the look-ahead classes by construction).
        let unary: Vec<usize> = (0..arities.len())
            .filter(|&i| arities[i] == arities[0])
            .collect();
        let target = unary[rng.gen_range(0..unary.len())];
        let p = states[rng.gen_range(0..states.len())];
        Action::Atp(next, gen_selector(rng, uni, class), p, regs[target])
    }
}

/// Draw a class for a program case, covering all four Definition 5.1 rows.
pub fn gen_class(rng: &mut StdRng) -> TwClass {
    match rng.gen_range(0..4u32) {
        0 => TwClass::Tw,
        1 => TwClass::TwL,
        2 => TwClass::TwR,
        _ => TwClass::TwRL,
    }
}

/// The hostile tree corpus: random bushy trees, collision-heavy trees,
/// deep chains, wide fans, combs, perfect trees, and tiny trees — every
/// shape deterministic in the rng.
pub fn gen_tree(rng: &mut StdRng, uni: &Universe) -> Tree {
    let sym = uni.symbols[rng.gen_range(0..uni.symbols.len())];
    let shaped = match rng.gen_range(0..8u32) {
        0 | 1 => {
            // Uniform random tree over the full pool.
            let cfg = TreeGenConfig {
                nodes: rng.gen_range(1..=48),
                max_children: rng.gen_range(1..=4),
                symbols: uni.symbols.clone(),
                attributes: vec![(uni.attr, uni.values.clone())],
                collision_pool: None,
            };
            return random_tree(&cfg, rng.next_u64());
        }
        2 => {
            // Value-collision-heavy: many nodes, k distinct data values.
            let cfg = TreeGenConfig {
                nodes: rng.gen_range(8..=96),
                max_children: rng.gen_range(2..=5),
                symbols: uni.symbols.clone(),
                attributes: vec![(uni.attr, uni.values.clone())],
                collision_pool: Some(rng.gen_range(1..=2)),
            };
            return random_tree(&cfg, rng.next_u64());
        }
        3 => chain_tree(sym, rng.gen_range(16..=96)),
        4 => star_tree(sym, rng.gen_range(8..=96)),
        5 => comb_tree(sym, rng.gen_range(4..=32)),
        6 => perfect_tree(sym, 2, rng.gen_range(1..=5)),
        _ => {
            let cfg = TreeGenConfig {
                nodes: rng.gen_range(1..=4),
                max_children: 4,
                symbols: uni.symbols.clone(),
                attributes: vec![(uni.attr, uni.values.clone())],
                collision_pool: None,
            };
            return random_tree(&cfg, rng.next_u64());
        }
    };
    // The shaped generators carry no attributes; paint them from a small
    // pool so value joins actually collide.
    assign_attrs(rng, uni, shaped)
}

fn assign_attrs(rng: &mut StdRng, uni: &Universe, mut tree: Tree) -> Tree {
    let k = rng.gen_range(1..=3.min(uni.values.len()));
    let start = rng.gen_range(0..uni.values.len());
    for u in tree.node_ids() {
        if rng.gen_bool(0.85) {
            let v = uni.values[(start + rng.gen_range(0..k)) % uni.values.len()];
            tree.set_attr(u, uni.attr, v);
        }
    }
    tree
}

/// Roll a budget: mostly unguarded, then tight fuel, an expired deadline,
/// or a seeded chaos plan (rates boosted well above the `FaultPlan`
/// defaults so short runs actually trip).
pub fn gen_budget(rng: &mut StdRng) -> BudgetSpec {
    let roll = rng.gen_range(0..100u32);
    let mut spec = BudgetSpec::default();
    if roll < 50 {
        return spec;
    }
    if roll < 75 {
        spec.fuel = Some(rng.gen_range(0..=400));
    } else if roll < 85 {
        spec.deadline_ms = Some(0);
    } else {
        spec.faults = Some(
            FaultPlan::seeded(rng.next_u64())
                .fuel_rate(10_000)
                .deadline_rate(5_000)
                .drop_rate(25_000)
                .corrupt_rate(25_000),
        );
        if roll >= 95 {
            // Chaos and a fuel budget at once.
            spec.fuel = Some(rng.gen_range(0..=400));
        }
    }
    spec
}

/// Generate a full program case.
pub fn gen_program_case(rng: &mut StdRng, uni: &Universe) -> ProgramCase {
    let class = gen_class(rng);
    let program = gen_program(rng, uni, class, 6);
    let tree = gen_tree(rng, uni);
    let budget = gen_budget(rng);
    ProgramCase {
        program,
        tree,
        budget,
    }
}

/// A structural atom `R(a, b)` or `R(b, a)` between two variables: the
/// edges of a formula's variable graph.
fn gen_link(rng: &mut StdRng, a: Var, b: Var) -> Formula {
    let (a, b) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
    match rng.gen_range(0..10u32) {
        0..=2 => fb::edge(a, b),
        3..=5 => fb::desc(a, b),
        6 | 7 => fb::sib_less(a, b),
        8 => fb::succ(a, b),
        _ => fb::eq(a, b),
    }
}

/// A literal over the one variable `v`, negated one time in four.
fn gen_filter(rng: &mut StdRng, uni: &Universe, v: Var) -> Formula {
    let atom = match rng.gen_range(0..9u32) {
        0..=2 => {
            let labels = uni.labels();
            fb::lab(labels[rng.gen_range(0..labels.len())], v)
        }
        3 => fb::root(v),
        4 => fb::leaf(v),
        5 => fb::first(v),
        6 => fb::last(v),
        7 => fb::val_const(uni.attr, v, uni.value(rng)),
        _ => fb::val_eq(uni.attr, v, uni.attr, v),
    };
    if rng.gen_bool(0.25) {
        fb::not(atom)
    } else {
        atom
    }
}

/// One conjunction over `vars` (`x`, `y`, then the ∃-variables): links
/// mostly along a random spanning tree, a few filters, and in one branch
/// in five a literal that leaves the semi-join path — a link closing a
/// cycle or repeating a pair, a two-variable `val_eq`, or a negated link.
fn gen_branch(rng: &mut StdRng, uni: &Universe, vars: &[Var]) -> Formula {
    let mut lits = Vec::new();
    for i in 1..vars.len() {
        if rng.gen_bool(0.85) {
            let j = rng.gen_range(0..i);
            lits.push(gen_link(rng, vars[j], vars[i]));
        }
    }
    for _ in 0..rng.gen_range(0..=2u32) {
        let v = vars[rng.gen_range(0..vars.len())];
        lits.push(gen_filter(rng, uni, v));
    }
    if rng.gen_bool(0.2) {
        let i = rng.gen_range(0..vars.len());
        let j = (i + rng.gen_range(1..vars.len())) % vars.len();
        let (a, b) = (vars[i], vars[j]);
        lits.push(match rng.gen_range(0..3u32) {
            0 => gen_link(rng, a, b),
            1 => fb::val_eq(uni.attr, a, uni.attr, b),
            _ => fb::not(gen_link(rng, a, b)),
        });
    }
    for i in (1..lits.len()).rev() {
        lits.swap(i, rng.gen_range(0..=i));
    }
    fb::and(lits)
}

/// A binary `FO(∃*)` formula drawn directly rather than compiled from
/// XPath, so it reaches what compiled formulas never do: `<` and `succ`
/// atoms, negation, cyclic variable graphs and two-variable value joins.
///
/// One formula in four is quantifier-free, positive and over `x` and `y`
/// only, with an `E` or `≺` atom between them: the fragment
/// `twq-index`'s `compile_exists` translates. The rest bind 0–3
/// ∃-variables and are one conjunction, or a disjunction of 2–3, drawn by
/// `gen_branch`.
pub fn gen_exists(rng: &mut StdRng, uni: &Universe) -> ExistsFormula {
    let (x, y) = (Var(0), Var(1));
    if rng.gen_bool(0.25) {
        let branches = (0..rng.gen_range(1..=2u32))
            .map(|_| {
                let (a, b) = if rng.gen_bool(0.5) { (x, y) } else { (y, x) };
                let link = if rng.gen_bool(0.5) {
                    fb::edge(a, b)
                } else {
                    fb::desc(a, b)
                };
                let mut lits = vec![link];
                if rng.gen_bool(0.5) {
                    let s = uni.symbols[rng.gen_range(0..uni.symbols.len())];
                    lits.push(fb::lab(
                        Label::Sym(s),
                        if rng.gen_bool(0.5) { x } else { y },
                    ));
                }
                fb::and(lits)
            })
            .collect::<Vec<_>>();
        return ExistsFormula::new(x, y, Vec::new(), fb::or(branches)).expect("valid selector");
    }
    let quantified: Vec<Var> = (2..2 + rng.gen_range(0..=3u16)).map(Var).collect();
    let vars: Vec<Var> = [x, y]
        .into_iter()
        .chain(quantified.iter().copied())
        .collect();
    let matrix = if rng.gen_bool(0.3) {
        fb::or((0..rng.gen_range(2..=3u32)).map(|_| gen_branch(rng, uni, &vars)))
    } else {
        gen_branch(rng, uni, &vars)
    };
    ExistsFormula::new(x, y, quantified, matrix).expect("valid selector")
}

/// Generate a formula case: a binary `FO(∃*)` formula small enough for
/// the naive `O(|t|^q)` evaluator, on a small tree.
///
/// Two cases in five draw the formula directly ([`gen_exists`]); the rest
/// compile an XPath query. Half of those are drawn union-heavy or
/// filter-heavy (see [`XPathShape`]) so the `twq-rw` rule set — union
/// canonicalization, subsumption pruning, filter pushdown, tautology
/// elimination — actually fires on fuzz inputs instead of idling on
/// step-only paths.
pub fn gen_formula_case(rng: &mut StdRng, uni: &Universe) -> FormulaCase {
    let (phi, path) = if rng.gen_bool(0.4) {
        (gen_exists(rng, uni), None)
    } else {
        gen_compiled(rng, uni)
    };
    let test = match rng.gen_range(0..4u32) {
        0 | 1 => SelectionTest::NonEmpty,
        2 => SelectionTest::SomeValue(uni.attr, uni.value(rng)),
        _ => SelectionTest::AllValue(uni.attr, uni.value(rng)),
    };
    // Naive selection is O(n^{q+2}); keep the tree tiny. Column `b` is
    // drawn after `a`, from the same pool, so `@a=@b` both hits and misses.
    let cfg = TreeGenConfig {
        nodes: rng.gen_range(1..=9),
        max_children: rng.gen_range(1..=4),
        symbols: uni.symbols.clone(),
        attributes: vec![
            (uni.attr, uni.values.clone()),
            (uni.attr_b, uni.values.clone()),
        ],
        collision_pool: rng.gen_bool(0.5).then(|| rng.gen_range(1..=2)),
    };
    let tree = random_tree(&cfg, rng.next_u64());
    let fuel = rng.gen_bool(0.4).then(|| rng.gen_range(0..=300));
    FormulaCase {
        phi,
        path,
        alphabet: uni.symbols.clone(),
        id_attr: uni.attr,
        test,
        tree,
        fuel,
    }
}

/// An XPath-compiled formula with at most four ∃-variables and its
/// source query, or the `descendants` selector when 32 draws miss.
///
/// One draw in eight is unioned with a label clash `s1[s2]` (a node
/// labelled both `s1` and `s2`), a branch `provably_empty` proves empty
/// under any context, so that `empty-prune` has a branch to delete.
fn gen_compiled(rng: &mut StdRng, uni: &Universe) -> (ExistsFormula, Option<XPath>) {
    let xcfg = XPathGenConfig {
        symbols: uni.symbols.clone(),
        attrs: vec![uni.attr, uni.attr_b],
        values: vec![uni.values[0]],
        max_depth: 2,
    };
    let shape = match rng.gen_range(0..4u32) {
        0 | 1 => XPathShape::Uniform,
        2 => XPathShape::UnionHeavy,
        _ => XPathShape::FilterHeavy,
    };
    for _ in 0..32 {
        let mut path = random_xpath_shaped(&xcfg, rng.next_u64(), shape);
        if rng.gen_range(0..8u32) == 0 {
            let i = rng.gen_range(0..2usize);
            let (s1, s2) = (uni.symbols[i], uni.symbols[1 - i]);
            // Not `xb::filter`, which would make `s2` a child test.
            let clash = XPath::Filter(Box::new(xb::name(s1)), Box::new(Pred::Path(xb::name(s2))));
            path = xb::union(path, clash);
        }
        let cand = compile(&path);
        if cand.quantified().len() <= 4 {
            return (cand, Some(path));
        }
    }
    (selectors::descendants(), None)
}

/// The stable name of a [`ProgramError`] variant, used to assert that a
/// near-miss spec is rejected for the *intended* reason.
pub fn program_error_kind(e: &ProgramError) -> &'static str {
    match e {
        ProgramError::UnknownState(_) => "unknown-state",
        ProgramError::UnknownRegister(_) => "unknown-register",
        ProgramError::UpdateArityMismatch(_) => "update-arity-mismatch",
        ProgramError::RelationArityMismatch(_) => "relation-arity-mismatch",
        ProgramError::GuardNotSentence(_) => "guard-not-sentence",
        ProgramError::RuleFromFinalState(_) => "rule-from-final-state",
        ProgramError::AtpResultArity(_) => "atp-result-arity",
        ProgramError::LookAheadForbidden(_) => "look-ahead-forbidden",
        ProgramError::NonUnaryRegister(_) => "non-unary-register",
        ProgramError::UpdateNotSingleValue(_) => "update-not-single-value",
        ProgramError::InitArityMismatch(_) => "init-arity-mismatch",
    }
}

/// Build a near-miss ill-formed spec: a well-formed skeleton with exactly
/// one sabotage applied. Returns the error kind the builder *must* report
/// and the build result.
pub fn gen_near_miss(
    rng: &mut StdRng,
    uni: &Universe,
) -> (&'static str, Result<TwProgram, ProgramError>) {
    use sbuild::*;
    let mut b = TwProgramBuilder::new();
    let q0 = b.state("q0");
    let q1 = b.state("q1");
    let qf = b.state("qF");
    b.initial(q0).final_state(qf);
    let r1 = b.unary_register();
    let r2 = b.register(2, Relation::empty(2));
    let sigma = Label::Sym(uni.symbols[0]);
    // A valid backbone rule, so the sabotage is the *only* defect.
    b.rule_true(sigma, q1, Action::Move(qf, Dir::Stay));
    let expected = match rng.gen_range(0..6u32) {
        0 => {
            b.rule_true(sigma, qf, Action::Move(q0, Dir::Stay));
            "rule-from-final-state"
        }
        1 => {
            // Guard with a free variable.
            b.rule(sigma, q0, rel(r1, [v(0)]), Action::Move(qf, Dir::Stay));
            "guard-not-sentence"
        }
        2 => {
            // ψ has one free variable, target register is binary.
            b.rule_true(sigma, q0, Action::Update(qf, eq(v(0), attr(uni.attr)), r2));
            "update-arity-mismatch"
        }
        3 => {
            // Guard over an undeclared register.
            let ghost = RegId(9);
            b.rule(
                sigma,
                q0,
                exists(Var(0), rel(ghost, [v(0)])),
                Action::Move(qf, Dir::Stay),
            );
            "unknown-register"
        }
        4 => {
            // atp result register arity ≠ register X1 arity.
            b.rule_true(sigma, q0, Action::Atp(q1, selectors::parent(), q1, r2));
            "atp-result-arity"
        }
        _ => {
            // Action targeting an un-interned state.
            b.rule_true(sigma, q0, Action::Move(State(99), Dir::Down));
            "unknown-state"
        }
    };
    (expected, b.build())
}

/// Inject analyzer-visible smells into a freshly generated program spec:
/// an orphan state with rules of its own, and/or a statically false guard.
/// The result is still builder-valid; the oracle asserts the static
/// analyzer reports a diagnostic or the pruner removes something.
pub fn gen_smelly_program(rng: &mut StdRng, uni: &Universe) -> TwProgram {
    use sbuild::*;
    let mut b = TwProgramBuilder::new();
    let q0 = b.state("q0");
    let q1 = b.state("q1");
    let qf = b.state("qF");
    b.initial(q0).final_state(qf);
    let sigma = Label::Sym(uni.symbols[0]);
    let delta = Label::Sym(uni.symbols[1 % uni.symbols.len()]);
    b.rule_true(Label::DelimRoot, q0, Action::Move(qf, Dir::Down));
    b.rule_true(sigma, q0, Action::Move(q0, Dir::Right));
    // At least one smell is always present; extras ride on coin flips.
    let forced = rng.gen_range(0..2u32);
    if forced == 0 || rng.gen_bool(0.4) {
        // q_dead is unreachable from q0: a dead-state diagnostic, and the
        // pruner removes its rule.
        let dead = b.state("q_dead");
        b.rule_true(delta, dead, Action::Move(qf, Dir::Stay));
    }
    if forced == 1 || rng.gen_bool(0.4) {
        // A statically unsatisfiable guard: d ≠ d.
        let d = uni.values[rng.gen_range(0..uni.values.len())];
        b.rule(
            delta,
            q0,
            not(eq(cst(d), cst(d))),
            Action::Move(qf, Dir::Up),
        );
    }
    if rng.gen_bool(0.5) {
        // Duplicate unguarded rules: an overlap diagnostic.
        b.rule_true(sigma, q1, Action::Move(qf, Dir::Stay));
        b.rule_true(sigma, q1, Action::Move(q0, Dir::Stay));
        b.rule_true(delta, q0, Action::Move(q1, Dir::Down));
    }
    b.build().expect("smelly specs are still well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generated_programs_match_their_class() {
        let uni = Universe::standard();
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let class = gen_class(&mut rng);
            let prog = gen_program(&mut rng, &uni, class, 6);
            assert!(
                prog.check_class(class).is_ok(),
                "seed {seed}: {} not in {class}",
                prog.classify()
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let uni_a = Universe::standard();
        let uni_b = Universe::standard();
        for seed in 0..32 {
            let mut ra = StdRng::seed_from_u64(seed);
            let mut rb = StdRng::seed_from_u64(seed);
            let a = gen_program_case(&mut ra, &uni_a);
            let b = gen_program_case(&mut rb, &uni_b);
            assert_eq!(a.program.rules(), b.program.rules(), "seed {seed}");
            assert_eq!(a.tree.len(), b.tree.len(), "seed {seed}");
            assert_eq!(a.budget, b.budget, "seed {seed}");
        }
    }

    #[test]
    fn hostile_corpus_covers_every_shape() {
        let uni = Universe::standard();
        let mut sizes = std::collections::HashSet::new();
        let mut depths = std::collections::HashSet::new();
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = gen_tree(&mut rng, &uni);
            sizes.insert(t.len());
            depths.insert(
                t.node_ids()
                    .filter(|&u| t.is_leaf(u))
                    .map(|u| {
                        let mut d = 0;
                        let mut cur = u;
                        while let Some(p) = t.parent(cur) {
                            d += 1;
                            cur = p;
                        }
                        d
                    })
                    .max()
                    .unwrap_or(0),
            );
        }
        assert!(sizes.iter().any(|&n| n == 1), "tiny trees present");
        assert!(sizes.iter().any(|&n| n >= 64), "large trees present");
        assert!(depths.iter().any(|&d| d >= 32), "deep chains present");
        assert!(depths.iter().any(|&d| d <= 1), "flat fans present");
    }

    #[test]
    fn near_misses_are_rejected_for_the_expected_reason() {
        let uni = Universe::standard();
        let mut kinds = std::collections::HashSet::new();
        for seed in 0..100 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (expected, result) = gen_near_miss(&mut rng, &uni);
            let err = result.expect_err("near-miss must not build");
            assert_eq!(program_error_kind(&err), expected, "seed {seed}: {err}");
            kinds.insert(expected);
        }
        assert!(kinds.len() >= 5, "sabotage coverage: {kinds:?}");
    }

    #[test]
    fn smelly_programs_build() {
        let uni = Universe::standard();
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let _ = gen_smelly_program(&mut rng, &uni);
        }
    }
}
