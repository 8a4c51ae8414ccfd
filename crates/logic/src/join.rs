//! Set-at-a-time evaluation of tree-shaped `FO(∃*)` conjunctions.
//!
//! A DNF branch of an [`ExistsFormula`](crate::ExistsFormula) is a
//! conjunction of literals. Its *edges* are the positive `E`, `≺`, `<`,
//! `succ` and `=` atoms between two distinct variables; a literal over one
//! variable (a label, `root`/`leaf`/`first`/`last`, `val_a(v) = d`,
//! `val_a(v) = val_b(v)`, `v = v`, or the negation of one) is a *filter*
//! on that variable. When the edges form a forest the branch is an acyclic
//! conjunctive query, and Yannakakis's full reducer evaluates it over the
//! tree's links, as the XPath walker does for paths:
//!
//! * the component holding `x` is rooted at `x` and starts from `{u}`;
//!   every other component starts from a scan of the tree, rooted at `y`
//!   when it holds `y`;
//! * a forward pass maps each variable's set through the edge to each
//!   child variable (children, parent, strict descendants, ancestors,
//!   right or left siblings, next or previous sibling, identity) and
//!   applies that variable's filters;
//! * a backward pass semi-joins each variable into its parent, bottom-up;
//! * a final pass maps `x`'s reduced set down the `x`–`y` path.
//!
//! Every map and semi-join touches each node a constant number of times,
//! so one call costs O(|φ|·|t|), and only what `u`'s links reach when `y`
//! shares `x`'s component. It allocates O(|φ|) sets and nothing per
//! candidate. A branch with a cycle (two atoms over one pair included), a
//! `val_eq` between two variables, or a negated two-variable atom has no
//! plan; the caller backtracks over it instead.

use twq_guard::{Guard, GuardError};
use twq_obs::{Collector, FoEval};
use twq_tree::{NodeId, NodeSet, Tree};

use crate::eval::{eval_atom, Assignment};
use crate::fo::{Formula, TreeAtom, Var};

/// The tree link an edge atom names, read from the variable whose set is
/// mapped to the variable it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    Child,
    Parent,
    Desc,
    Anc,
    Right,
    Left,
    Next,
    Prev,
    Same,
}

impl Link {
    /// `R(a, b)` as `(a, b, the link from a to b)`, for the edge atoms.
    fn of(atom: &TreeAtom) -> Option<(Var, Var, Link)> {
        Some(match *atom {
            TreeAtom::Edge(a, b) => (a, b, Link::Child),
            TreeAtom::Desc(a, b) => (a, b, Link::Desc),
            TreeAtom::SibLess(a, b) => (a, b, Link::Right),
            TreeAtom::Succ(a, b) => (a, b, Link::Next),
            TreeAtom::Eq(a, b) => (a, b, Link::Same),
            _ => return None,
        })
    }

    fn inverse(self) -> Link {
        match self {
            Link::Child => Link::Parent,
            Link::Parent => Link::Child,
            Link::Desc => Link::Anc,
            Link::Anc => Link::Desc,
            Link::Right => Link::Left,
            Link::Left => Link::Right,
            Link::Next => Link::Prev,
            Link::Prev => Link::Next,
            Link::Same => Link::Same,
        }
    }

    /// The one move this link takes (`Parent`, `Next`, `Prev`) or repeats
    /// (`Anc`, `Right`, `Left`).
    fn hop(self, tree: &Tree, v: NodeId) -> Option<NodeId> {
        match self {
            Link::Parent | Link::Anc => tree.parent(v),
            Link::Next | Link::Right => tree.next_sibling(v),
            Link::Prev | Link::Left => tree.prev_sibling(v),
            Link::Child | Link::Desc | Link::Same => unreachable!("{self:?} is not one move"),
        }
    }
}

/// One variable of a tree-shaped branch.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    var: Var,
    /// The parent slot and the link from its variable to this one; `None`
    /// for the root of a component.
    up: Option<(usize, Link)>,
    /// The literals over this variable alone, with their polarity.
    filters: Vec<(TreeAtom, bool)>,
}

/// The evaluation plan of a conjunction whose variables, linked by its
/// edge atoms, form a forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JoinPlan {
    /// Every slot after its parent, one component after another: `x`'s
    /// first (slot 0 is `x`), then those holding neither `x` nor `y`, then
    /// `y`'s when it has its own.
    slots: Vec<Slot>,
    /// The first slot of each component.
    comps: Vec<usize>,
    /// `y`'s slot.
    y: usize,
    /// The slots below `x` on the `x`–`y` path, top-down; empty when `y`
    /// is not in `x`'s component.
    path: Vec<usize>,
    /// The largest variable, sizing the filters' assignment.
    max_var: Var,
}

impl JoinPlan {
    /// The plan for the conjunction `lits` of `φ(x, y)` (atoms and negated
    /// atoms, as the DNF split leaves them), or `None` when it is not
    /// tree-shaped.
    pub(crate) fn new(x: Var, y: Var, lits: &[Formula]) -> Option<JoinPlan> {
        // Variable indices: x is 0, y is 1, the rest in order of occurrence.
        let mut vars = vec![x, y];
        let mut filters: Vec<Vec<(TreeAtom, bool)>> = vec![Vec::new(), Vec::new()];
        let mut edges = Vec::new();
        let mut index = |v: Var, filters: &mut Vec<Vec<(TreeAtom, bool)>>| {
            vars.iter().position(|&w| w == v).unwrap_or_else(|| {
                vars.push(v);
                filters.push(Vec::new());
                vars.len() - 1
            })
        };
        for lit in lits {
            let (atom, positive) = match lit {
                Formula::Atom(a) => (a, true),
                Formula::Not(f) => match &**f {
                    Formula::Atom(a) => (a, false),
                    _ => return None,
                },
                _ => return None,
            };
            let vs = atom.vars();
            let (a, b) = (vs[0], vs[vs.len() - 1]);
            if a == b {
                let i = index(a, &mut filters);
                filters[i].push((atom.clone(), positive));
                continue;
            }
            let (p, q, link) = Link::of(atom).filter(|_| positive)?;
            let (p, q) = (index(p, &mut filters), index(q, &mut filters));
            edges.push((p, q, link));
        }
        let n = vars.len();

        // Union-find: an edge inside one component closes a cycle.
        let mut rep: Vec<usize> = (0..n).collect();
        fn find(rep: &mut [usize], mut i: usize) -> usize {
            while rep[i] != i {
                rep[i] = rep[rep[i]];
                i = rep[i];
            }
            i
        }
        let mut adj = vec![Vec::new(); n];
        for &(p, q, link) in &edges {
            let (rp, rq) = (find(&mut rep, p), find(&mut rep, q));
            if rp == rq {
                return None;
            }
            rep[rp] = rq;
            adj[p].push((q, link));
            adj[q].push((p, link.inverse()));
        }

        // Components in evaluation order: x's, those holding neither x nor
        // y, then y's, rooted at y.
        let (cx, cy) = (find(&mut rep, 0), find(&mut rep, 1));
        let mut roots = vec![0];
        for v in 2..n {
            let c = find(&mut rep, v);
            if c != cx && c != cy && !roots.iter().any(|&r| find(&mut rep, r) == c) {
                roots.push(v);
            }
        }
        if cy != cx {
            roots.push(1);
        }
        let mut slot_of = vec![usize::MAX; n];
        let mut slots = Vec::with_capacity(n);
        let mut comps = Vec::with_capacity(roots.len());
        for r in roots {
            comps.push(slots.len());
            let mut stack = vec![(r, None)];
            while let Some((v, up)) = stack.pop() {
                slot_of[v] = slots.len();
                slots.push(Slot {
                    var: vars[v],
                    up,
                    filters: std::mem::take(&mut filters[v]),
                });
                for &(w, link) in &adj[v] {
                    if slot_of[w] == usize::MAX {
                        stack.push((w, Some((slot_of[v], link))));
                    }
                }
            }
        }
        let y = slot_of[1];
        let mut path = Vec::new();
        if cy == cx {
            let mut i = y;
            while let Some((p, _)) = slots[i].up {
                path.push(i);
                i = p;
            }
            path.reverse();
        }
        Some(JoinPlan {
            slots,
            comps,
            y,
            path,
            max_var: vars.into_iter().max().expect("x and y are variables"),
        })
    }

    /// All `v` with `t ⊨ branch(u, v)`. The collector sees one
    /// [`FoEval::Atom`] per literal applied; the guard one
    /// [`Guard::charge`] per variable of one unit plus the nodes touched
    /// on its behalf.
    pub(crate) fn select<C: Collector, G: Guard>(
        &self,
        tree: &Tree,
        u: NodeId,
        c: &mut C,
        g: &mut G,
    ) -> Result<NodeSet, GuardError> {
        let mut rows = vec![0u64; self.slots.len()];
        let out = self.reduce(tree, u, c, &mut rows);
        if G::ENABLED {
            for r in rows {
                g.charge(1 + r)?;
            }
        }
        Ok(out)
    }

    fn reduce<C: Collector>(&self, tree: &Tree, u: NodeId, c: &mut C, rows: &mut [u64]) -> NodeSet {
        let mut asg = Assignment::with_capacity(Some(self.max_var));
        let mut sets = vec![NodeSet::new(); self.slots.len()];
        // Each set's size after the forward pass: a set still that size
        // was not reduced, so the final pass need not map through it.
        let mut forward = vec![0; self.slots.len()];
        let ends = self.comps[1..].iter().copied().chain([self.slots.len()]);
        for (start, end) in self.comps.iter().copied().zip(ends) {
            for i in start..end {
                let slot = &self.slots[i];
                let mut s = match slot.up {
                    Some((p, link)) => {
                        c.fo_eval(FoEval::Atom);
                        map(tree, link, &sets[p], &mut rows[i])
                    }
                    None if i == 0 => NodeSet::from([u]),
                    None => {
                        let mut all = NodeSet::with_capacity(tree.len());
                        all.insert_range(NodeId(0), NodeId(tree.len() as u32 - 1));
                        rows[i] += tree.len() as u64;
                        all
                    }
                };
                for (atom, positive) in &slot.filters {
                    c.fo_eval(FoEval::Atom);
                    rows[i] += s.len() as u64;
                    s.retain(|w| {
                        asg.set(slot.var, w);
                        eval_atom(tree, atom, &asg).expect("a filter's variable is bound")
                            == *positive
                    });
                }
                if s.is_empty() {
                    return NodeSet::new();
                }
                forward[i] = s.len();
                sets[i] = s;
            }
            for i in (start + 1..end).rev() {
                let (p, link) = self.slots[i].up.expect("a component's root comes first");
                let (head, tail) = sets.split_at_mut(i);
                semijoin(tree, link, &mut head[p], &tail[0], &mut rows[i]);
                if head[p].is_empty() {
                    return NodeSet::new();
                }
            }
        }
        for &i in &self.path {
            let (p, link) = self.slots[i].up.expect("a path slot lies below x");
            if sets[p].len() != forward[p] {
                let reach = map(tree, link, &sets[p], &mut rows[i]);
                sets[i].intersect_with(&reach);
            }
        }
        std::mem::take(&mut sets[self.y])
    }
}

/// Every node `link` reaches from a member of `from`, counting the nodes
/// touched into `rows`.
fn map(tree: &Tree, link: Link, from: &NodeSet, rows: &mut u64) -> NodeSet {
    let mut out = NodeSet::with_capacity(tree.len());
    match link {
        Link::Same => out.union_with(from),
        Link::Child => {
            for v in from {
                out.extend(tree.children(v));
            }
        }
        Link::Desc => out = tree.descendants_of(from),
        Link::Parent | Link::Next | Link::Prev => {
            out.extend(from.iter().filter_map(|v| link.hop(tree, v)));
        }
        // A walk stops at the first node already reached: the walk that
        // reached it went on from there.
        Link::Anc | Link::Right | Link::Left => {
            for v in from {
                let mut cur = link.hop(tree, v);
                while let Some(w) = cur {
                    if !out.insert(w) {
                        break;
                    }
                    cur = link.hop(tree, w);
                }
            }
        }
    }
    *rows += (from.len() + out.len()) as u64;
    out
}

/// Keep the members of `parents` from which `link` reaches a member of
/// `kids`, counting the nodes touched into `rows`.
fn semijoin(tree: &Tree, link: Link, parents: &mut NodeSet, kids: &NodeSet, rows: &mut u64) {
    match link {
        Link::Same => {
            *rows += kids.len() as u64;
            parents.intersect_with(kids);
        }
        // One move from each parent: follow it.
        Link::Parent | Link::Next | Link::Prev => {
            *rows += parents.len() as u64;
            parents.retain(|p| link.hop(tree, p).is_some_and(|q| kids.contains(q)));
        }
        Link::Anc => *rows += retain_below(tree, parents, kids),
        // Many moves from each parent: map the kids back instead.
        Link::Child | Link::Desc | Link::Right | Link::Left => {
            let back = map(tree, link.inverse(), kids, rows);
            parents.intersect_with(&back);
        }
    }
}

/// Keep the members of `set` with a strict ancestor in `anc`; returns the
/// nodes climbed through. A climb stops at the first node an earlier climb
/// settled, and every node it passed shares its verdict, so each node is
/// climbed through once.
fn retain_below(tree: &Tree, set: &mut NodeSet, anc: &NodeSet) -> u64 {
    let mut settled = NodeSet::with_capacity(tree.len());
    let mut below = NodeSet::with_capacity(tree.len());
    let mut climbed = 0;
    set.retain(|p| {
        let mut top = p;
        let verdict = loop {
            if settled.contains(top) {
                break below.contains(top);
            }
            climbed += 1;
            match tree.parent(top) {
                None => break false,
                Some(a) if anc.contains(a) => break true,
                Some(a) => top = a,
            }
        };
        let mut cur = p;
        while settled.insert(cur) {
            if verdict {
                below.insert(cur);
            }
            if cur == top {
                break;
            }
            cur = tree.parent(cur).expect("`top` lies above `cur`");
        }
        verdict
    });
    climbed
}
