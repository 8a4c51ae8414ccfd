//! The four workloads. Each one generates its inputs from the seed, keeps
//! what a deployment would keep between requests, and answers request
//! `i` either through the library's composite entry points (`run`, the
//! measured path) or split into one call per layer, each in a span
//! (`run_split`, the traced path). Reference answers come from the
//! generator's own trees, never from the parsed copies the program sees.

use twq_automata::examples::{
    all_leaves_equal_program, distinct_values_at_least, even_leaves_program, example_32,
    oracle_all_leaves_equal, oracle_distinct_values_at_least, oracle_even_leaves,
    oracle_example_32, oracle_parent_child_match, parent_child_match_program,
};
use twq_automata::{run_batch, run_batch_profiled, Halt, Limits, RunReport, TwProgram};
use twq_exec::Pool;
use twq_index::{
    compile_exists, compile_xpath, eval_plan_from, fo_select_routed, Choice, CostModel, Force,
    TreeIndex,
};
use twq_logic::{parse_fo, ExistsFormula};
use twq_rw::{
    rewrite_in, run_query_indexed, run_query_planned, stream_select, Certificate, IndexedEvaluator,
    PlannedEvaluator, RewriteCtx, Rewritten,
};
use twq_tree::generate::{random_tree, TreeGenConfig};
use twq_tree::order::doc_index;
use twq_tree::{parse_xml, to_xml, AttrId, NodeSet, SymId, Tree, Vocab};
use twq_xpath::{eval_from, parse_xpath, XPath};

use crate::inputs::{document, root_name, spread_sizes, value_pool, Alphabet, Rng};
use crate::stats::{fingerprint, Hasher};
use crate::trace::{Layer, Tracer};

/// A request's outcome, reduced to what the checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Fingerprint of the result sets (or of the automaton verdicts).
    pub fp: u64,
    /// Which evaluator answered each query, so the warm-up can check
    /// that the split path chose as the composite call did.
    pub route: u64,
}

/// Input sizes of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Documents: the resident corpus, the one-shot stream, or the
    /// automata batches.
    pub docs: usize,
    /// Nodes per document (automata: the largest tree).
    pub nodes: usize,
    /// Distinct (document, query) pairs of `resident`; the other
    /// workloads make one request per document.
    pub requests: usize,
}

pub trait Workload: Sized {
    /// What a request returns before it is checked.
    type Out;
    /// The full-size inputs.
    const SHAPE: Shape;
    /// Generate the inputs and prepare what stays resident.
    fn setup(shape: Shape, seed: u64, tr: &mut Tracer) -> Self;
    /// The input texts the program receives, in order.
    fn texts(&self) -> Vec<&str>;
    /// Reference fingerprints, one per distinct request, from the
    /// generator's own trees (which are dropped afterwards).
    fn reference(&mut self, pool: &Pool) -> Vec<u64>;
    /// Request `i` through the composite entry points.
    fn run(&mut self, i: usize) -> Result<Self::Out, String>;
    /// Request `i` split into one call per layer, each in a span.
    fn run_split(&mut self, i: usize, tr: &mut Tracer) -> Result<Self::Out, String>;
    fn answer(&self, i: usize, out: &Self::Out) -> Result<Answer, String>;
}

// Route codes, one octal digit per query.
const EMPTY: u64 = 1;
const INDEX: u64 = 2;
const WALK: u64 = 3;
const STREAM: u64 = 4;
const RELATIONAL: u64 = 5;
const FO_INDEX: u64 = 6;
const FO_SELECT: u64 = 7;

fn indexed_route(e: IndexedEvaluator) -> u64 {
    match e {
        IndexedEvaluator::EmptyShortCircuit => EMPTY,
        IndexedEvaluator::Indexed => INDEX,
        IndexedEvaluator::Walking => WALK,
    }
}

fn planned_route(e: PlannedEvaluator) -> u64 {
    match e {
        PlannedEvaluator::EmptyShortCircuit => EMPTY,
        PlannedEvaluator::Streaming => STREAM,
        PlannedEvaluator::Relational => RELATIONAL,
    }
}

fn combine(fps: impl IntoIterator<Item = u64>) -> u64 {
    fps.into_iter()
        .fold(Hasher::start(), |h, fp| h.word(fp))
        .finish()
}

fn fired(rw: &Rewritten) -> u64 {
    rw.fired.iter().map(|&(_, k)| k).sum()
}

fn xpath(text: &str, vocab: &mut Vocab) -> Result<XPath, String> {
    parse_xpath(text, vocab).map_err(|e| format!("`{text}`: {e}"))
}

/// A binary FO(∃*) selector `φ(x, y)` from text.
fn exists(text: &str, vocab: &mut Vocab) -> Result<ExistsFormula, String> {
    let p = parse_fo(text, vocab).map_err(|e| format!("`{text}`: {e}"))?;
    let (Some(x), Some(y)) = (p.var("x"), p.var("y")) else {
        return Err(format!("`{text}`: selectors use x and y"));
    };
    ExistsFormula::new(x, y, Vec::new(), p.formula).map_err(|e| format!("`{text}`: {e}"))
}

fn xml(text: &str, vocab: &mut Vocab, tr: &mut Tracer) -> Result<Tree, String> {
    tr.n.xml_bytes += text.len() as u64;
    tr.span(Layer::ParseXml, || parse_xml(text, vocab))
        .map_err(|e| e.to_string())
}

fn build(tree: &Tree, tr: &mut Tracer) -> TreeIndex {
    let idx = tr.span(Layer::IndexBuild, || TreeIndex::build(tree));
    tr.n.built_nodes += tree.len() as u64;
    tr.n.postings_bytes += idx.stats().postings_bytes as u64;
    idx
}

/// `run_query_indexed`, split: rewrite, then compile + price + choose,
/// then the index plan or a walk of the query as given. Each value is
/// moved into the span of the layer that uses it last, so freeing it is
/// charged there rather than left between spans.
fn indexed_split(
    tree: &Tree,
    idx: &TreeIndex,
    q: XPath,
    ctx: &RewriteCtx,
    model: &CostModel,
    tr: &mut Tracer,
) -> (NodeSet, u64) {
    let rw = tr.span(Layer::Rewrite, move || rewrite_in(&q, ctx));
    tr.n.rules_fired += fired(&rw);
    if rw.provably_empty {
        return (NodeSet::new(), EMPTY);
    }
    // A walk evaluates the query as given, which the rewrite record keeps.
    let (plan, est, walk) = tr.span(Layer::IndexPlan, move || {
        let plan = compile_xpath(&rw.output);
        let est = model.estimate(idx, &plan, &rw.output);
        let walk = match model.choose(&est, plan.size(), Force::Auto) {
            Choice::Index => None,
            Choice::Walk => Some(rw.input),
        };
        (plan, est, walk)
    });
    tr.n.xpath_plans += 1;
    let (set, est_ns, route) = match walk {
        None => {
            tr.n.xpath_indexed += 1;
            let set = tr.span(Layer::IndexEval, move || {
                eval_plan_from(tree, idx, &plan, tree.root())
            });
            (set, est.index_ns, INDEX)
        }
        Some(q) => {
            tr.n.walk_nodes += tree.len() as u64;
            let set = tr.span(Layer::Walk, move || eval_from(tree, &q, tree.root()));
            (set, est.walk_ns, WALK)
        }
    };
    let act = tr.last_ns() as f64;
    if act > 0.0 {
        tr.n.cost_err_pct.push((act - est_ns).abs() / act * 100.0);
    }
    (set, route)
}

/// `run_query_planned`, split: rewrite, then stream or walk the normal
/// form as its certificate allows.
fn planned_split(
    tree: &Tree,
    q: XPath,
    ctx: &RewriteCtx,
    tr: &mut Tracer,
) -> Result<(NodeSet, u64), String> {
    let rw = tr.span(Layer::Rewrite, move || rewrite_in(&q, ctx));
    tr.n.rules_fired += fired(&rw);
    tr.n.planned += 1;
    Ok(match rw.certificate {
        Certificate::Empty => (NodeSet::new(), EMPTY),
        Certificate::Streamable { .. } => {
            tr.n.streamed += 1;
            let (set, stats) = tr
                .span(Layer::Stream, move || stream_select(tree, &rw.output))
                .ok_or("a certified query did not stream")?;
            tr.n.stream_nodes += stats.nodes_visited as u64;
            (set, STREAM)
        }
        Certificate::NotStreamable { .. } => {
            tr.n.walk_nodes += tree.len() as u64;
            let set = tr.span(Layer::Walk, move || {
                eval_from(tree, &rw.output, tree.root())
            });
            (set, RELATIONAL)
        }
    })
}

// ---------------------------------------------------------------------
// resident: an indexed corpus answering a stream of XPath and FO queries.

enum Query {
    XPath(String),
    Fo(String),
}

impl Query {
    fn text(&self) -> &str {
        match self {
            Query::XPath(t) | Query::Fo(t) => t,
        }
    }
}

/// Request `i`'s query: seventeen XPath shapes and three positive
/// FO(∃*) selectors in a fixed rotation, so every seed has the same mix;
/// only labels and values are drawn.
fn resident_query(i: usize, alpha: &Alphabet, root: &str, pool: usize, rng: &mut Rng) -> Query {
    let (l, m, n) = (alpha.label(rng), alpha.label(rng), alpha.label(rng));
    let (v, w) = (rng.below(pool), rng.below(pool));
    Query::XPath(match i % 20 {
        0 => format!("//{l}"),
        1 => format!("//*[@a={v}]"),
        2 => format!("//{l}/{m}"),
        3 => format!("//{l}[{m}]"),
        4 => format!("//{l} | //{m}"),
        5 => format!("/{root}/{l}"),
        6 => format!("//{l}[@b={v}]"),
        7 => format!("/{root}//{l}"),
        8 => format!("//{l}/{m}/{n}"),
        9 => format!("//{l}[{m}]/{n}"),
        10 => format!("//{l}[@a={v}] | //{m}[@b={w}]"),
        11 => format!("//*[@a={v}]/{l}"),
        12 => format!("//{l}//{m}"),
        13 => format!("//{l}[{m}//{n}]"),
        14 => format!("/{root}/{l}[{m}]"),
        15 => format!("//{l}/*"),
        16 => format!("//*[{l}]"),
        17 => return Query::Fo(format!("desc(x,y) & lab({l},y)")),
        18 => return Query::Fo(format!("desc(x,y) & val(a,y)={v}")),
        _ => return Query::Fo(format!("(desc(x,y) & lab({l},y)) | (E(x,y) & lab({m},y))")),
    })
}

pub struct Resident {
    vocab: Vocab,
    xml: Vec<String>,
    trees: Vec<Tree>,
    indexes: Vec<TreeIndex>,
    doc_pos: Vec<Vec<usize>>,
    /// `(document, query)` pairs.
    requests: Vec<(usize, Query)>,
    generated: Vec<Tree>,
    ctx: RewriteCtx,
    model: CostModel,
}

/// One result set from one resident document.
pub struct Selected {
    doc: usize,
    set: NodeSet,
    route: u64,
}

impl Workload for Resident {
    type Out = Selected;
    const SHAPE: Shape = Shape {
        docs: 16,
        nodes: 8192,
        requests: 1024,
    };

    fn setup(shape: Shape, seed: u64, tr: &mut Tracer) -> Resident {
        tr.begin_setup();
        let mut rng = Rng::new(seed);
        let mut vocab = Vocab::new();
        let alpha = Alphabet::new(&mut vocab, 64);
        let pool = value_pool(&mut vocab, 4096);
        let generated: Vec<Tree> = (0..shape.docs)
            .map(|_| document(&alpha, shape.nodes, 4, &pool, rng.next_u64()))
            .collect();
        let xml: Vec<String> = generated.iter().map(|t| to_xml(t, &vocab)).collect();
        let requests = (0..shape.requests)
            .map(|i| {
                let d = i % shape.docs;
                let root = root_name(&generated[d], &vocab);
                (d, resident_query(i, &alpha, &root, pool.len(), &mut rng))
            })
            .collect();
        // What stays resident: every document parsed and indexed.
        let mut trees = Vec::with_capacity(xml.len());
        let mut indexes = Vec::with_capacity(xml.len());
        for text in &xml {
            let tree = self::xml(text, &mut vocab, tr).expect("generated XML parses");
            indexes.push(build(&tree, tr));
            trees.push(tree);
        }
        tr.end_setup();
        Resident {
            vocab,
            xml,
            trees,
            indexes,
            doc_pos: Vec::new(),
            requests,
            generated,
            ctx: RewriteCtx::unconstrained(),
            model: CostModel::default(),
        }
    }

    fn texts(&self) -> Vec<&str> {
        let queries = self.requests.iter().map(|(_, q)| q.text());
        self.xml.iter().map(String::as_str).chain(queries).collect()
    }

    fn reference(&mut self, pool: &Pool) -> Vec<u64> {
        enum Parsed {
            XPath(XPath),
            Fo(ExistsFormula),
        }
        let parsed: Vec<Parsed> = self
            .requests
            .iter()
            .map(|(_, q)| match q {
                Query::XPath(t) => Parsed::XPath(xpath(t, &mut self.vocab).expect("query parses")),
                Query::Fo(t) => Parsed::Fo(exists(t, &mut self.vocab).expect("query parses")),
            })
            .collect();
        let generated = std::mem::take(&mut self.generated);
        let gen_pos: Vec<Vec<usize>> = generated.iter().map(doc_index).collect();
        let requests = &self.requests;
        let expected = pool.scoped(requests.len(), |i| {
            let d = requests[i].0;
            let t = &generated[d];
            let set = match &parsed[i] {
                Parsed::XPath(q) => eval_from(t, q, t.root()),
                Parsed::Fo(phi) => phi.select(t, t.root()),
            };
            fingerprint(&gen_pos[d], &set)
        });
        self.doc_pos = self.trees.iter().map(doc_index).collect();
        expected
    }

    fn run(&mut self, i: usize) -> Result<Selected, String> {
        let (doc, q) = &self.requests[i];
        let (tree, idx) = (&self.trees[*doc], &self.indexes[*doc]);
        let (set, route) = match q {
            Query::XPath(text) => {
                let q = xpath(text, &mut self.vocab)?;
                let (set, plan) =
                    run_query_indexed(tree, idx, &q, &self.ctx, &self.model, Force::Auto);
                (set, indexed_route(plan.evaluator))
            }
            Query::Fo(text) => {
                let phi = exists(text, &mut self.vocab)?;
                let (set, indexed) = fo_select_routed(tree, idx, &phi, tree.root());
                (set, if indexed { FO_INDEX } else { FO_SELECT })
            }
        };
        Ok(Selected {
            doc: *doc,
            set,
            route,
        })
    }

    fn run_split(&mut self, i: usize, tr: &mut Tracer) -> Result<Selected, String> {
        let (doc, q) = &self.requests[i];
        let (tree, idx) = (&self.trees[*doc], &self.indexes[*doc]);
        let vocab = &mut self.vocab;
        let (set, route) = match q {
            Query::XPath(text) => {
                let q = tr.span(Layer::XPathParse, || xpath(text, vocab))?;
                indexed_split(tree, idx, q, &self.ctx, &self.model, tr)
            }
            Query::Fo(text) => {
                // `fo_select_routed`, split: compile, then the plan or
                // the backtracking evaluator.
                let phi = tr.span(Layer::ParseFo, || exists(text, vocab))?;
                tr.n.fo_queries += 1;
                let compiled = tr.span(Layer::IndexPlan, move || match compile_exists(&phi) {
                    Some(plan) => Ok(plan),
                    None => Err(phi),
                });
                match compiled {
                    Ok(plan) => {
                        tr.n.fo_indexed += 1;
                        let set = tr.span(Layer::IndexEval, move || {
                            eval_plan_from(tree, idx, &plan, tree.root())
                        });
                        (set, FO_INDEX)
                    }
                    Err(phi) => {
                        let set = tr.span(Layer::FoSelect, move || phi.select(tree, tree.root()));
                        (set, FO_SELECT)
                    }
                }
            }
        };
        Ok(Selected {
            doc: *doc,
            set,
            route,
        })
    }

    fn answer(&self, _: usize, out: &Selected) -> Result<Answer, String> {
        Ok(Answer {
            fp: fingerprint(&self.doc_pos[out.doc], &out.set),
            route: out.route,
        })
    }
}

// ---------------------------------------------------------------------
// oneshot and ingest: a stream of fresh documents, each parsed and
// queried once, without (oneshot) or after (ingest) building its index.

/// Shape and value diversity rotate in a fixed order (`max_children`
/// 2/4/8 against value pools of 16/256/4096), so every seed sees the
/// same mix of deep and bushy, collision-heavy and sparse documents.
const MAX_CHILDREN: [usize; 3] = [2, 4, 8];
const POOLS: [usize; 3] = [16, 256, 4096];

pub struct Stream<const INDEXED: bool> {
    vocab: Vocab,
    xml: Vec<String>,
    queries: Vec<Vec<String>>,
    generated: Vec<Tree>,
    ctx: RewriteCtx,
    model: CostModel,
}

/// A parsed document and its result sets.
pub struct Parsed {
    tree: Tree,
    sets: Vec<NodeSet>,
    route: u64,
}

pub type Oneshot = Stream<false>;
pub type Ingest = Stream<true>;

impl<const INDEXED: bool> Stream<INDEXED> {
    /// Document `i`'s queries. Oneshot: one certified-streamable query
    /// and one with a path predicate. Ingest: label, value, child-path and
    /// path-predicate selections for the index.
    fn queries(i: usize, alpha: &Alphabet, pool: usize, rng: &mut Rng) -> Vec<String> {
        let (l, m, n) = (alpha.label(rng), alpha.label(rng), alpha.label(rng));
        let v = rng.below(pool);
        if INDEXED {
            return vec![
                format!("//{l}"),
                format!("//*[@a={v}]"),
                format!("//{l}/{m}"),
                format!("//{m}[{n}]"),
            ];
        }
        let streamable = match i % 4 {
            0 => format!("//{l}/{m}"),
            1 => format!("//{l}[@a={v}]"),
            2 => format!("//{l}//{m}"),
            _ => format!("//{l} | //{m}[@b={v}]"),
        };
        let predicate = match (i / 4) % 3 {
            0 => format!("//{l}[{m}]"),
            1 => format!("//{l}[{m}]/{n}"),
            _ => format!("//*[{n}][@a={v}]"),
        };
        vec![streamable, predicate]
    }
}

impl<const INDEXED: bool> Workload for Stream<INDEXED> {
    type Out = Parsed;
    const SHAPE: Shape = Shape {
        docs: 64,
        nodes: 8192,
        requests: 64,
    };

    fn setup(shape: Shape, seed: u64, tr: &mut Tracer) -> Self {
        tr.begin_setup();
        let mut rng = Rng::new(seed);
        let mut vocab = Vocab::new();
        let alpha = Alphabet::new(&mut vocab, 16);
        let values = value_pool(&mut vocab, POOLS[2]);
        let mut generated = Vec::with_capacity(shape.docs);
        let mut queries = Vec::with_capacity(shape.docs);
        for i in 0..shape.docs {
            let pool = &values[..POOLS[(i / 3) % 3]];
            let fanout = MAX_CHILDREN[i % 3];
            generated.push(document(&alpha, shape.nodes, fanout, pool, rng.next_u64()));
            queries.push(Self::queries(i, &alpha, pool.len(), &mut rng));
        }
        let xml = generated.iter().map(|t| to_xml(t, &vocab)).collect();
        tr.end_setup();
        Stream {
            vocab,
            xml,
            queries,
            generated,
            ctx: RewriteCtx::unconstrained(),
            model: CostModel::default(),
        }
    }

    fn texts(&self) -> Vec<&str> {
        let queries = self.queries.iter().flatten().map(String::as_str);
        self.xml.iter().map(String::as_str).chain(queries).collect()
    }

    fn reference(&mut self, pool: &Pool) -> Vec<u64> {
        let parsed: Vec<Vec<XPath>> = self
            .queries
            .iter()
            .map(|qs| {
                qs.iter()
                    .map(|t| xpath(t, &mut self.vocab).expect("query parses"))
                    .collect()
            })
            .collect();
        let generated = std::mem::take(&mut self.generated);
        pool.scoped(generated.len(), |i| {
            let t = &generated[i];
            let pos = doc_index(t);
            combine(
                parsed[i]
                    .iter()
                    .map(|q| fingerprint(&pos, &eval_from(t, q, t.root()))),
            )
        })
    }

    fn run(&mut self, i: usize) -> Result<Parsed, String> {
        let tree = parse_xml(&self.xml[i], &mut self.vocab).map_err(|e| e.to_string())?;
        let idx = INDEXED.then(|| TreeIndex::build(&tree));
        let mut sets = Vec::with_capacity(self.queries[i].len());
        let mut route = 0;
        for text in &self.queries[i] {
            let q = xpath(text, &mut self.vocab)?;
            let (set, r) = match &idx {
                Some(idx) => {
                    let (set, plan) =
                        run_query_indexed(&tree, idx, &q, &self.ctx, &self.model, Force::Auto);
                    (set, indexed_route(plan.evaluator))
                }
                None => {
                    let (set, plan) = run_query_planned(&tree, &q, &self.ctx);
                    (set, planned_route(plan.evaluator))
                }
            };
            sets.push(set);
            route = route * 8 + r;
        }
        Ok(Parsed { tree, sets, route })
    }

    fn run_split(&mut self, i: usize, tr: &mut Tracer) -> Result<Parsed, String> {
        let tree = xml(&self.xml[i], &mut self.vocab, tr)?;
        let idx = INDEXED.then(|| build(&tree, tr));
        let mut sets = Vec::with_capacity(self.queries[i].len());
        let mut route = 0;
        for text in &self.queries[i] {
            let vocab = &mut self.vocab;
            let q = tr.span(Layer::XPathParse, || xpath(text, vocab))?;
            let (set, r) = match &idx {
                Some(idx) => indexed_split(&tree, idx, q, &self.ctx, &self.model, tr),
                None => planned_split(&tree, q, &self.ctx, tr)?,
            };
            sets.push(set);
            route = route * 8 + r;
        }
        // Freeing the index is the other half of building it.
        if let Some(idx) = idx {
            tr.span(Layer::IndexBuild, move || drop(idx));
        }
        Ok(Parsed { tree, sets, route })
    }

    fn answer(&self, _: usize, out: &Parsed) -> Result<Answer, String> {
        let pos = doc_index(&out.tree);
        Ok(Answer {
            fp: combine(out.sets.iter().map(|s| fingerprint(&pos, s))),
            route: out.route,
        })
    }
}

// ---------------------------------------------------------------------
// automata: the paper's own model — a tree-walking program run over a
// batch of trees on the work-stealing pool.

/// Trees per batch.
const BATCH: usize = 8;

pub struct Automata {
    vocab: Vocab,
    /// Example 3.2, even leaves, all leaves equal, parent–child match,
    /// at least three distinct values.
    programs: Vec<TwProgram>,
    /// `(program, XML of each tree)` per batch.
    batches: Vec<(usize, Vec<String>)>,
    generated: Vec<Vec<Tree>>,
    delta: SymId,
    a: AttrId,
    pool: Pool,
}

impl Automata {
    fn oracle(&self, program: usize, t: &Tree) -> bool {
        match program {
            0 => oracle_example_32(t, self.delta, self.a),
            1 => oracle_even_leaves(t),
            2 => oracle_all_leaves_equal(t, self.a),
            3 => oracle_parent_child_match(t, self.a),
            _ => oracle_distinct_values_at_least(t, self.a, 3),
        }
    }
}

fn verdicts(accepted: impl IntoIterator<Item = bool>) -> u64 {
    combine(accepted.into_iter().map(u64::from))
}

impl Workload for Automata {
    type Out = Vec<RunReport>;
    const SHAPE: Shape = Shape {
        docs: 64,
        nodes: 2048,
        requests: 64,
    };

    fn setup(shape: Shape, seed: u64, tr: &mut Tracer) -> Automata {
        tr.begin_setup();
        let mut rng = Rng::new(seed);
        let mut vocab = Vocab::new();
        let ex = example_32(&mut vocab);
        let (sigma, delta, a) = (ex.sigma, ex.delta, ex.attr);
        let alphabet = [sigma, delta];
        let programs = vec![
            ex.program,
            even_leaves_program(&alphabet),
            all_leaves_equal_program(&alphabet, a),
            parent_child_match_program(&alphabet, a),
            distinct_values_at_least(&alphabet, a, 3),
        ];
        let (one, two) = (vocab.val_int(1), vocab.val_int(2));
        let mut batches = Vec::with_capacity(shape.docs);
        let mut generated = Vec::with_capacity(shape.docs);
        for j in 0..shape.docs {
            let program = j % programs.len();
            // Example 3.2 runs its whole look-ahead only on a tree it
            // accepts: on one value, every tree; on two, most reject at an
            // early δ, at a quarter of the cost. Its batches all get one
            // value, so they form one group of similar cost, and p90 falls
            // inside that group rather than between two.
            let values = if program == 0 || (j / programs.len()) % 2 == 0 {
                vec![one]
            } else {
                vec![one, two]
            };
            // Example 3.2's look-ahead is superlinear: it gets the small
            // trees (32–160 nodes at full size), the others 512–2048.
            let (lo, hi) = if program == 0 {
                (shape.nodes / 64, shape.nodes * 5 / 64)
            } else {
                (shape.nodes / 4, shape.nodes)
            };
            let trees: Vec<Tree> = spread_sizes(&mut rng, BATCH, lo, hi)
                .into_iter()
                .map(|nodes| {
                    let cfg = TreeGenConfig {
                        nodes: nodes.max(1),
                        max_children: 4,
                        symbols: alphabet.to_vec(),
                        attributes: vec![(a, values.clone())],
                        collision_pool: None,
                    };
                    random_tree(&cfg, rng.next_u64())
                })
                .collect();
            batches.push((program, trees.iter().map(|t| to_xml(t, &vocab)).collect()));
            generated.push(trees);
        }
        tr.end_setup();
        Automata {
            vocab,
            programs,
            batches,
            generated,
            delta,
            a,
            pool: Pool::new(crate::workers()),
        }
    }

    fn texts(&self) -> Vec<&str> {
        self.batches
            .iter()
            .flat_map(|(_, xml)| xml.iter().map(String::as_str))
            .collect()
    }

    fn reference(&mut self, pool: &Pool) -> Vec<u64> {
        let generated = std::mem::take(&mut self.generated);
        let this = &*self;
        pool.scoped(generated.len(), |j| {
            let program = this.batches[j].0;
            verdicts(generated[j].iter().map(|t| this.oracle(program, t)))
        })
    }

    fn run(&mut self, i: usize) -> Result<Vec<RunReport>, String> {
        let (program, xml) = &self.batches[i];
        let trees = xml
            .iter()
            .map(|text| parse_xml(text, &mut self.vocab))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(run_batch(
            &self.programs[*program],
            &trees,
            Limits::default(),
            &self.pool,
        ))
    }

    fn run_split(&mut self, i: usize, tr: &mut Tracer) -> Result<Vec<RunReport>, String> {
        let (program, texts) = &self.batches[i];
        let trees = texts
            .iter()
            .map(|text| xml(text, &mut self.vocab, tr))
            .collect::<Result<Vec<_>, _>>()?;
        let prog = &self.programs[*program];
        let pool = self.pool;
        let (reports, _, profile) = tr.span(Layer::AutomataRun, || {
            run_batch_profiled(prog, &trees, Limits::default(), &pool)
        });
        let wall = tr.last_ns();
        let n = &mut tr.n;
        n.batches += 1;
        n.trees += reports.len() as u64;
        n.accepted += reports.iter().filter(|r| r.accepted()).count() as u64;
        n.steps += reports.iter().map(|r| r.steps).sum::<u64>();
        n.atp_calls += reports.iter().map(|r| r.atp_calls).sum::<u64>();
        n.task_ns += profile.latencies_ns.iter().sum::<u64>();
        n.pool_ns += wall * pool.workers().min(trees.len()) as u64;
        let totals = profile.stats.totals();
        n.steals += totals.steals;
        n.idle_spins += totals.idle_spins;
        if *program == 0 {
            n.ex32_ns += wall;
        }
        Ok(reports)
    }

    fn answer(&self, _: usize, reports: &Vec<RunReport>) -> Result<Answer, String> {
        // A definite verdict: accept, or reject by getting stuck (directly
        // or in a look-ahead subcomputation). Anything else is a failure.
        for (k, r) in reports.iter().enumerate() {
            if !matches!(r.halt, Halt::Accept | Halt::Stuck | Halt::SubRejected) {
                return Err(format!("tree {k} halted with {:?}", r.halt));
            }
        }
        let route = reports.iter().fold(Hasher::start(), |h, r| {
            h.word(r.halt as u64).word(r.steps).word(r.atp_calls)
        });
        Ok(Answer {
            fp: verdicts(reports.iter().map(RunReport::accepted)),
            route: route.finish(),
        })
    }
}
