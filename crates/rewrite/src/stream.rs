//! Streamability certification and a one-pass streaming evaluator.
//!
//! A normalized query is **streamable** when a single document-order pass
//! with per-depth state can answer it from the root: downward axes only,
//! no path predicates (they demand look-ahead into the unread suffix),
//! and no absolute (`FromRoot`) re-entry below the top. Certified queries
//! compile to a tiny NFA whose per-node active set is bounded by
//! `max_depth_state` — the memory the pass holds per open tree level, the
//! query-level face of the paper's bounded-configuration argument (§7,
//! Thm 7.1). `stream_select` runs that pass; `tests/rewrite.rs` validates
//! the certificate empirically with a `MemGauge` on the active set.

use twq_guard::{GaugeKind, MemGauge, TripReason};
use twq_tree::{AttrId, Label, NodeId, NodeSet, SymId, Tree, Value};
use twq_xpath::{Pred, XPath};

/// What the certification pass concluded about a (normalized) query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// The query is provably empty: no evaluator needs to run at all.
    Empty,
    /// One-pass safe; a streaming run keeps at most `max_depth_state`
    /// active NFA states per open tree level.
    Streamable {
        /// Upper bound on the per-level active-state count.
        max_depth_state: usize,
    },
    /// Not one-pass safe; `witness` names the offending construct.
    NotStreamable {
        /// Why a single forward pass cannot answer the query.
        witness: &'static str,
    },
}

impl Certificate {
    /// Is this a `Streamable` certificate?
    pub fn is_streamable(&self) -> bool {
        matches!(self, Certificate::Streamable { .. })
    }
}

/// Check the one-pass-safe subset; `Ok` returns the query under any
/// outermost `FromRoot` (streaming starts at the root anyway).
fn check_streamable(q: &XPath) -> Result<&XPath, &'static str> {
    let inner = match q {
        XPath::FromRoot(p) => &**p,
        _ => q,
    };
    scan(inner)?;
    Ok(inner)
}

fn scan(q: &XPath) -> Result<(), &'static str> {
    match q {
        XPath::Name(_) | XPath::Wild => Ok(()),
        XPath::Child(a, b) | XPath::Descendant(a, b) | XPath::Union(a, b) => {
            scan(a)?;
            scan(b)
        }
        XPath::FromDesc(p) | XPath::FromChild(p) => scan(p),
        XPath::FromRoot(_) => Err("nested absolute path re-enters the root mid-stream"),
        XPath::Filter(p, pred) => {
            if let Pred::Path(_) = **pred {
                return Err("path predicate requires look-ahead beyond the streamed prefix");
            }
            scan(p)
        }
    }
}

/// A per-node test gating an NFA state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeTest {
    Lab(SymId),
    AttrConst(AttrId, Value),
    AttrAttr(AttrId, AttrId),
}

impl NodeTest {
    #[inline]
    fn passes(&self, tree: &Tree, u: NodeId) -> bool {
        match *self {
            NodeTest::Lab(s) => tree.label(u) == Label::Sym(s),
            NodeTest::AttrConst(a, d) => tree.attr(u, a) == d,
            NodeTest::AttrAttr(a, b) => tree.attr(u, a) == tree.attr(u, b),
        }
    }
}

#[derive(Debug, Clone)]
struct StateData {
    /// All must pass at the node for the state to stay active there.
    tests: Vec<NodeTest>,
    /// States active at the node's children when this one survives.
    out: Vec<u32>,
    /// Surviving here selects the node.
    accept: bool,
}

/// The compiled streaming NFA. States anchor at tree nodes; an edge from
/// `s` to `t ∈ out(s)` consumes one tree edge (descendant loops are
/// self-edges). Compilation is continuation-passing, right to left.
#[derive(Debug)]
struct StreamNfa {
    states: Vec<StateData>,
    start: Vec<u32>,
}

impl StreamNfa {
    fn compile(q: &XPath) -> StreamNfa {
        let mut nfa = StreamNfa {
            states: Vec::new(),
            start: Vec::new(),
        };
        let acc = nfa.push(Vec::new(), Vec::new(), true);
        let mut start = nfa.comp(q, &[acc]);
        start.sort_unstable();
        start.dedup();
        nfa.start = start;
        nfa
    }

    fn push(&mut self, tests: Vec<NodeTest>, out: Vec<u32>, accept: bool) -> u32 {
        let id = self.states.len() as u32;
        self.states.push(StateData { tests, out, accept });
        id
    }

    /// Clone `c` with an extra test (fresh state: shared continuations
    /// must not pick up each other's tests).
    fn with_test(&mut self, c: u32, t: NodeTest) -> u32 {
        let mut d = self.states[c as usize].clone();
        d.tests.push(t);
        let id = self.states.len() as u32;
        self.states.push(d);
        id
    }

    /// Entry states for `q` followed by the continuation `cont`, where
    /// `cont` states anchor at the node `q` selects.
    fn comp(&mut self, q: &XPath, cont: &[u32]) -> Vec<u32> {
        match q {
            XPath::Wild => cont.to_vec(),
            XPath::Name(s) => cont
                .iter()
                .map(|&c| self.with_test(c, NodeTest::Lab(*s)))
                .collect(),
            XPath::Child(a, b) => {
                let e2 = self.comp(b, cont);
                let mid = self.push(Vec::new(), e2, false);
                self.comp(a, &[mid])
            }
            XPath::FromChild(p) => {
                let e2 = self.comp(p, cont);
                vec![self.push(Vec::new(), e2, false)]
            }
            XPath::Descendant(a, b) => {
                let m = self.push_loop(b, cont);
                self.comp(a, &[m])
            }
            XPath::FromDesc(p) => {
                let m = self.push_loop(p, cont);
                vec![m]
            }
            XPath::Union(a, b) => {
                let mut v = self.comp(a, cont);
                v.extend(self.comp(b, cont));
                v.sort_unstable();
                v.dedup();
                v
            }
            XPath::Filter(p, pred) => {
                let t = match &**pred {
                    Pred::AttrEqConst(a, d) => NodeTest::AttrConst(*a, *d),
                    Pred::AttrEqAttr(a, b) => NodeTest::AttrAttr(*a, *b),
                    Pred::Path(_) => unreachable!("rejected by certification"),
                };
                let cont2: Vec<u32> = cont.iter().map(|&c| self.with_test(c, t.clone())).collect();
                self.comp(p, &cont2)
            }
            XPath::FromRoot(_) => unreachable!("rejected by certification"),
        }
    }

    /// A descendant step into `body` with continuation `cont`: a fresh
    /// state that re-arms itself at every child (the ≥1-edge loop) and
    /// also enters the body.
    fn push_loop(&mut self, body: &XPath, cont: &[u32]) -> u32 {
        let id = self.push(Vec::new(), Vec::new(), false);
        let mut out = self.comp(body, cont);
        out.push(id);
        out.sort_unstable();
        out.dedup();
        self.states[id as usize].out = out;
        id
    }
}

/// The number of states [`StreamNfa::comp`] pushes for `q` under a
/// continuation of `k` states, counted without building them. `Name` and
/// `Filter` clone each continuation state, steps push one state each,
/// and a step's left operand runs under a one-state continuation.
fn pushed_states(q: &XPath, k: usize) -> usize {
    match q {
        XPath::Wild => 0,
        XPath::Name(_) => k,
        XPath::Child(a, b) | XPath::Descendant(a, b) => {
            pushed_states(b, k) + 1 + pushed_states(a, 1)
        }
        XPath::FromChild(p) | XPath::FromDesc(p) => pushed_states(p, k) + 1,
        XPath::Union(a, b) => pushed_states(a, k) + pushed_states(b, k),
        XPath::Filter(p, _) => k + pushed_states(p, k),
        XPath::FromRoot(_) => unreachable!("rejected by certification"),
    }
}

/// Certify a query. Call on the *normalized* form — the rewriter runs
/// this automatically and records the result as
/// [`crate::Rewritten::certificate`].
///
/// The bound is the state count of the NFA [`stream_select`] compiles:
/// the accepting state plus what the query pushes before it, counted in
/// one pass that allocates nothing.
pub fn certify(q: &XPath) -> Certificate {
    match check_streamable(q) {
        Err(witness) => Certificate::NotStreamable { witness },
        Ok(inner) => Certificate::Streamable {
            max_depth_state: 1 + pushed_states(inner, 1),
        },
    }
}

/// Counters from a streaming run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Largest active-state set seen at any node (≤ `max_depth_state`).
    pub max_active: usize,
    /// Nodes visited (pruned subtrees are skipped).
    pub nodes_visited: usize,
}

/// One-pass evaluation of a certified query from the root, equal to
/// `eval_from(tree, q, tree.root())`. `None` if `q` is not streamable.
pub fn stream_select(tree: &Tree, q: &XPath) -> Option<(NodeSet, StreamStats)> {
    let mut gauge = MemGauge::unlimited();
    stream_select_gauged(tree, q, &mut gauge).ok().flatten()
}

/// A [`StreamNfa`] as bit tables over state sets of `w` words: state `s`
/// is bit `s % 64` of word `s / 64`.
struct StateSets {
    w: usize,
    start: Vec<u64>,
    accept: Vec<u64>,
    /// `out[s·w..][..w]`: the states surviving state `s` activates at the
    /// node's children.
    out: Vec<u64>,
    /// `rows[(σ + 1)·w..][..w]`: the states whose label tests pass on a
    /// node labeled σ, for every symbol σ below `named`; `rows[..w]`, for
    /// any other label, the states with no label test. Indexing by the
    /// symbol itself keeps a node's row one load from its label.
    rows: Vec<u64>,
    /// One more than the largest symbol the query names.
    named: usize,
    /// The distinct attribute tests, and `masks[k·w..][..w]`: the states
    /// carrying test `k`.
    tests: Vec<NodeTest>,
    masks: Vec<u64>,
}

impl StateSets {
    fn new(nfa: &StreamNfa) -> StateSets {
        let n = nfa.states.len();
        let w = n.div_ceil(64);
        let set = |words: &mut [u64], s: usize| words[s / 64] |= 1 << (s % 64);
        let mut sets = StateSets {
            w,
            start: vec![0; w],
            accept: vec![0; w],
            out: vec![0; n * w],
            rows: Vec::new(),
            named: 0,
            tests: Vec::new(),
            masks: Vec::new(),
        };
        for &s in &nfa.start {
            set(&mut sets.start, s as usize);
        }
        for (s, state) in nfa.states.iter().enumerate() {
            if state.accept {
                set(&mut sets.accept, s);
            }
            for &t in &state.out {
                set(&mut sets.out[s * w..], t as usize);
            }
            for test in &state.tests {
                if let NodeTest::Lab(sym) = *test {
                    sets.named = sets.named.max(sym.0 as usize + 1);
                    continue;
                }
                let k = match sets.tests.iter().position(|t| t == test) {
                    Some(k) => k,
                    None => {
                        sets.tests.push(test.clone());
                        sets.masks.resize(sets.masks.len() + w, 0);
                        sets.tests.len() - 1
                    }
                };
                set(&mut sets.masks[k * w..], s);
            }
        }
        // A state with no label test passes on every row; one whose label
        // tests all name σ passes on σ's row only.
        sets.rows = vec![0; (sets.named + 1) * w];
        for (s, state) in nfa.states.iter().enumerate() {
            let mut labels = state.tests.iter().filter_map(|t| match *t {
                NodeTest::Lab(sym) => Some(sym),
                _ => None,
            });
            match labels.next() {
                None => {
                    for r in 0..=sets.named {
                        set(&mut sets.rows[r * w..], s);
                    }
                }
                Some(sym) if labels.all(|other| other == sym) => {
                    set(&mut sets.rows[(sym.0 as usize + 1) * w..], s);
                }
                Some(_) => {}
            }
        }
        sets
    }

    /// The index of `u`'s label row.
    #[inline]
    fn row(&self, tree: &Tree, u: NodeId) -> usize {
        match tree.label(u) {
            Label::Sym(s) if (s.0 as usize) < self.named => s.0 as usize + 1,
            _ => 0,
        }
    }
}

/// Whether two state sets share a state.
#[inline]
fn meet(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// The number of words in a state set, as [`walk`] reads it: a constant
/// for the one-word sets of queries with at most 64 states, so the loops
/// over words compile away, and a run-time count for wider sets. Both run
/// the same `walk`.
trait Words: Copy {
    fn get(self) -> usize;
}

/// One word.
#[derive(Clone, Copy)]
struct OneWord;

impl Words for OneWord {
    #[inline(always)]
    fn get(self) -> usize {
        1
    }
}

impl Words for usize {
    #[inline(always)]
    fn get(self) -> usize {
        self
    }
}

/// [`stream_select`] observing the per-node active-state count on the
/// gauge's [`GaugeKind::Relation`] channel — the empirical check that a
/// certificate's `max_depth_state` bound holds.
#[allow(clippy::type_complexity)]
pub fn stream_select_gauged(
    tree: &Tree,
    q: &XPath,
    gauge: &mut MemGauge,
) -> Result<Option<(NodeSet, StreamStats)>, TripReason> {
    let Ok(inner) = check_streamable(q) else {
        return Ok(None);
    };
    let sets = StateSets::new(&StreamNfa::compile(inner));
    match sets.w {
        1 => walk(tree, &sets, OneWord, gauge),
        w => walk(tree, &sets, w, gauge),
    }
    .map(Some)
}

/// The streaming pass. It keeps one state set per open tree level: the
/// states active at that level's nodes, which their parent's survivors
/// activated. At a node, the active set meets the node's label row, and
/// each attribute test that some surviving state carries is evaluated
/// once, clearing its states on failure. The children's set is the union
/// of the survivors' out-sets. Nodes are visited depth first, children
/// right to left, and a node whose children's set is empty is not
/// descended into.
fn walk(
    tree: &Tree,
    sets: &StateSets,
    words: impl Words,
    gauge: &mut MemGauge,
) -> Result<(NodeSet, StreamStats), TripReason> {
    let w = words.get();
    let mut selected = NodeSet::new();
    let mut stats = StreamStats {
        max_active: 0,
        nodes_visited: 0,
    };
    // `levels[d·w..][..w]` is the set active at the current node's
    // ancestor-or-self at depth `d`.
    let mut levels = sets.start.clone();
    let mut buffer = vec![0; w];
    let mut u = tree.root();
    let mut d = 0;
    loop {
        stats.nodes_visited += 1;
        if levels.len() < (d + 2) * w {
            levels.resize((d + 2) * w, 0);
        }
        let (above, below) = levels.split_at_mut((d + 1) * w);
        let (active, next) = (&above[d * w..][..w], &mut below[..w]);
        let survivors = &mut buffer[..w];
        let row = &sets.rows[sets.row(tree, u) * w..][..w];
        for ((s, &a), &r) in survivors.iter_mut().zip(active).zip(row) {
            *s = a & r;
        }
        for (t, test) in sets.tests.iter().enumerate() {
            let mask = &sets.masks[t * w..][..w];
            if meet(survivors, mask) && !test.passes(tree, u) {
                for (s, &m) in survivors.iter_mut().zip(mask) {
                    *s &= !m;
                }
            }
        }
        // The children's set: the union of the survivors' out-sets.
        next.fill(0);
        let mut surviving = 0;
        for (j, &word) in survivors.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let s = j * 64 + bits.trailing_zeros() as usize;
                for (n, &o) in next.iter_mut().zip(&sets.out[s * w..][..w]) {
                    *n |= o;
                }
                surviving += 1;
                bits &= bits - 1;
            }
        }
        stats.max_active = stats.max_active.max(surviving);
        gauge.observe(GaugeKind::Relation, surviving)?;
        if meet(survivors, &sets.accept[..w]) {
            selected.insert(u);
        }
        if next.iter().any(|&n| n != 0) {
            if let Some(c) = tree.last_child(u) {
                u = c;
                d += 1;
                continue;
            }
        }
        // The next node: the previous sibling of `u` or of its nearest
        // ancestor that has one.
        loop {
            if d == 0 {
                return Ok((selected, stats));
            }
            if let Some(s) = tree.prev_sibling(u) {
                u = s;
                break;
            }
            u = tree.parent(u).expect("a node below the root has a parent");
            d -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_tree::{parse_tree, Vocab};
    use twq_xpath::ast::xb;
    use twq_xpath::eval_from;

    #[test]
    fn certificates() {
        let mut v = Vocab::new();
        let a = xb::name(v.sym("a"));
        let b = xb::name(v.sym("b"));
        let c = certify(&xb::desc(a.clone(), b.clone()));
        assert!(c.is_streamable());
        let c = certify(&xb::filter(a.clone(), b.clone()));
        let Certificate::NotStreamable { witness } = c else {
            panic!("path predicate must not certify: {c:?}");
        };
        assert!(witness.contains("look-ahead"), "{witness}");
        let c = certify(&xb::child(a.clone(), xb::from_root(b.clone())));
        assert!(matches!(c, Certificate::NotStreamable { .. }));
        // Outermost absolute paths are fine.
        assert!(certify(&xb::from_root(xb::from_desc(b))).is_streamable());
    }

    /// The certificate's count is the state count of the NFA that
    /// `stream_select` runs, on normalized queries of every shape.
    #[test]
    fn certified_state_count_is_the_nfa_size() {
        use twq_xpath::{random_xpath_shaped, XPathGenConfig, XPathShape};
        let mut v = Vocab::new();
        let cfg = XPathGenConfig {
            symbols: vec![v.sym("a"), v.sym("b"), v.sym("c")],
            attrs: vec![v.attr("k"), v.attr("l")],
            values: vec![v.val_int(1), v.val_int(2)],
            max_depth: 4,
        };
        for shape in [
            XPathShape::Uniform,
            XPathShape::UnionHeavy,
            XPathShape::FilterHeavy,
        ] {
            let mut streamable = 0;
            for seed in 0..400 {
                let q = crate::normalize(&random_xpath_shaped(&cfg, seed, shape));
                let Certificate::Streamable { max_depth_state } = certify(&q) else {
                    continue;
                };
                let inner = check_streamable(&q).expect("certified");
                assert_eq!(
                    max_depth_state,
                    StreamNfa::compile(inner).states.len(),
                    "{shape:?} seed {seed}: {}",
                    q.display(&v)
                );
                streamable += 1;
            }
            assert!(streamable >= 100, "{shape:?}: {streamable} streamable");
        }
    }

    #[test]
    fn stream_matches_eval_from_root() {
        let mut v = Vocab::new();
        let t = parse_tree(
            "sigma[a=0](delta[a=1](sigma[a=1],sigma[a=2]),sigma[a=1](delta[a=0]))",
            &mut v,
        )
        .unwrap();
        let sigma = v.sym("sigma");
        let delta = v.sym("delta");
        let k = v.attr("a");
        let one = v.val_int(1);
        let queries = vec![
            xb::from_desc(xb::name(delta)),
            xb::desc(xb::name(sigma), xb::name(sigma)),
            xb::from_desc(xb::filter_attr_const(xb::name(sigma), k, one)),
            xb::union(xb::name(sigma), xb::from_child(xb::name(delta))),
            xb::from_root(xb::from_desc(xb::wild())),
            xb::wild(),
        ];
        for q in queries {
            let (got, stats) = stream_select(&t, &q).expect("streamable");
            let want = eval_from(&t, &q, t.root());
            let got: Vec<_> = got.iter().collect();
            let want: Vec<_> = want.iter().collect();
            assert_eq!(got, want, "query {}", q.display(&v));
            let Certificate::Streamable { max_depth_state } = certify(&q) else {
                panic!("expected streamable");
            };
            assert!(stats.max_active <= max_depth_state);
        }
    }
}
