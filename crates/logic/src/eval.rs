//! Model checking FO formulas on attributed trees.
//!
//! The paper only ever evaluates *fixed* formulas on *growing* trees, so the
//! evaluator is the textbook recursive one: quantifiers loop over `Dom(t)`,
//! giving `O(|t|^q)` for `q` nested quantifiers. Structural atoms are O(1)
//! thanks to the arena links, except `≺` and sibling `<` which walk
//! parent/sibling chains. It is the reference the faster evaluators are
//! checked against: [`ExistsFormula::select`](crate::ExistsFormula::select)
//! reduces tree-shaped `FO(∃*)` branches by semi-joins and backtracks over
//! the rest here, pruning each partial assignment by three-valued
//! evaluation.
//!
//! That `O(|t|^q)` is exactly why every entry point here returns
//! `Result<_, TwqError>` and the sentence and selection primitives have a
//! `*_in` form taking a resource guard: a hostile sentence with a handful
//! of nested quantifiers is a denial-of-service on any non-trivial tree.
//! Guarded evaluation charges one fuel unit per quantifier binding and per
//! atom, and tracks quantifier nesting as [`DepthKind::Quantifier`].

use twq_guard::{DepthKind, Guard, NullGuard, TwqError};
use twq_obs::{Collector, FoEval, NullCollector};
use twq_tree::{NodeId, NodeSet, Tree};

use crate::fo::{Formula, TreeAtom, Var};

/// A partial assignment of tree nodes to variables, indexed by [`Var`].
#[derive(Debug, Clone, Default)]
pub struct Assignment {
    slots: Vec<Option<NodeId>>,
}

impl Assignment {
    /// An empty assignment able to hold variables up to `max_var`.
    pub fn with_capacity(max_var: Option<Var>) -> Self {
        Assignment {
            slots: vec![None; max_var.map_or(0, |v| v.0 as usize + 1)],
        }
    }

    /// The node bound to `v`, if any.
    #[inline]
    pub fn get(&self, v: Var) -> Option<NodeId> {
        self.slots.get(v.0 as usize).copied().flatten()
    }

    /// Bind `v` to `u` (growing the table if needed).
    pub fn set(&mut self, v: Var, u: NodeId) {
        let i = v.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(u);
    }

    /// Remove the binding of `v`.
    pub fn unset(&mut self, v: Var) {
        if let Some(s) = self.slots.get_mut(v.0 as usize) {
            *s = None;
        }
    }
}

/// Evaluate an atom under a total-enough assignment.
///
/// # Errors
/// Returns [`TwqError::Invalid`] if a variable mentioned by the atom is
/// unbound — callers must bind all free variables first.
pub fn eval_atom(tree: &Tree, atom: &TreeAtom, asg: &Assignment) -> Result<bool, TwqError> {
    let node = |v: Var| {
        asg.get(v)
            .ok_or_else(|| TwqError::invalid("logic::eval_atom", format!("unbound variable {v}")))
    };
    Ok(match *atom {
        TreeAtom::Edge(x, y) => tree.parent(node(y)?) == Some(node(x)?),
        TreeAtom::SibLess(x, y) => {
            let (u, v) = (node(x)?, node(y)?);
            if u == v || tree.parent(u) != tree.parent(v) {
                return Ok(false);
            }
            // Walk right from u until v or the end.
            let mut cur = tree.next_sibling(u);
            let mut hit = false;
            while let Some(s) = cur {
                if s == v {
                    hit = true;
                    break;
                }
                cur = tree.next_sibling(s);
            }
            hit
        }
        TreeAtom::Desc(x, y) => tree.is_strict_ancestor(node(x)?, node(y)?),
        TreeAtom::Lab(l, x) => tree.label(node(x)?) == l,
        TreeAtom::Eq(x, y) => node(x)? == node(y)?,
        TreeAtom::ValEq(a, x, b, y) => tree.attr(node(x)?, a) == tree.attr(node(y)?, b),
        TreeAtom::ValConst(a, x, d) => tree.attr(node(x)?, a) == d,
        TreeAtom::Root(x) => tree.is_root(node(x)?),
        TreeAtom::Leaf(x) => tree.is_leaf(node(x)?),
        TreeAtom::First(x) => tree.is_first(node(x)?),
        TreeAtom::Last(x) => tree.is_last(node(x)?),
        TreeAtom::Succ(x, y) => tree.next_sibling(node(x)?) == Some(node(y)?),
    })
}

/// Evaluate a formula under an assignment binding (at least) its free
/// variables.
///
/// # Errors
/// [`TwqError::Invalid`] on an unbound variable.
pub fn eval(tree: &Tree, formula: &Formula, asg: &mut Assignment) -> Result<bool, TwqError> {
    eval_inner(tree, formula, asg, &mut NullCollector, &mut NullGuard)
}

/// The model checker behind [`eval`], [`eval_sentence_in`] and
/// [`select_in`]: one [`FoEval::Atom`] per atom evaluation and one
/// quantifier span per binding loop for the collector; one fuel unit per
/// atom and per quantifier binding, nesting tracked as
/// [`DepthKind::Quantifier`], for the guard.
fn eval_inner<C: Collector, G: Guard>(
    tree: &Tree,
    formula: &Formula,
    asg: &mut Assignment,
    c: &mut C,
    g: &mut G,
) -> Result<bool, TwqError> {
    match formula {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Atom(a) => {
            c.fo_eval(FoEval::Atom);
            if G::ENABLED {
                g.tick()?;
            }
            eval_atom(tree, a, asg)
        }
        Formula::Not(f) => Ok(!eval_inner(tree, f, asg, c, g)?),
        Formula::And(fs) => {
            for f in fs {
                if !eval_inner(tree, f, asg, c, g)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(fs) => {
            for f in fs {
                if eval_inner(tree, f, asg, c, g)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Exists(v, f) => {
            if G::ENABLED {
                g.enter(DepthKind::Quantifier)?;
            }
            c.quant_enter(true, u32::from(v.0));
            let saved = asg.get(*v);
            let mut out = Ok(false);
            let mut witness = None;
            for u in tree.node_ids() {
                if G::ENABLED {
                    if let Err(e) = g.tick() {
                        out = Err(e.into());
                        break;
                    }
                }
                asg.set(*v, u);
                match eval_inner(tree, f, asg, c, g) {
                    Ok(true) => {
                        // `u` is the witness valuation that makes ∃v true.
                        witness = Some(u64::from(u.0));
                        out = Ok(true);
                        break;
                    }
                    Ok(false) => {}
                    Err(e) => {
                        out = Err(e);
                        break;
                    }
                }
            }
            restore(asg, *v, saved);
            if G::ENABLED {
                g.exit(DepthKind::Quantifier);
            }
            c.quant_exit(matches!(out, Ok(true)), witness);
            out
        }
        Formula::Forall(v, f) => {
            if G::ENABLED {
                g.enter(DepthKind::Quantifier)?;
            }
            c.quant_enter(false, u32::from(v.0));
            let saved = asg.get(*v);
            let mut out = Ok(true);
            let mut witness = None;
            for u in tree.node_ids() {
                if G::ENABLED {
                    if let Err(e) = g.tick() {
                        out = Err(e.into());
                        break;
                    }
                }
                asg.set(*v, u);
                match eval_inner(tree, f, asg, c, g) {
                    Ok(false) => {
                        // `u` is the counterexample that falsifies ∀v.
                        witness = Some(u64::from(u.0));
                        out = Ok(false);
                        break;
                    }
                    Ok(true) => {}
                    Err(e) => {
                        out = Err(e);
                        break;
                    }
                }
            }
            restore(asg, *v, saved);
            if G::ENABLED {
                g.exit(DepthKind::Quantifier);
            }
            c.quant_exit(matches!(out, Ok(true)), witness);
            out
        }
    }
}

/// Three-valued evaluation under a *partial* assignment: `Some(b)` when the
/// formula's value is already determined, `None` when it still depends on
/// unbound variables. Used by the backtracking `FO(∃*)` evaluator to prune:
/// a partial assignment that already falsifies the matrix cannot be
/// extended to a witness, and one that already satisfies it needs no
/// extension at all.
///
/// Reports one [`FoEval::Atom`] per decided atom to `c` and charges `g`
/// one fuel unit for it.
fn eval_partial_inner<C: Collector, G: Guard>(
    tree: &Tree,
    formula: &Formula,
    asg: &Assignment,
    c: &mut C,
    g: &mut G,
) -> Result<Option<bool>, TwqError> {
    Ok(match formula {
        Formula::True => Some(true),
        Formula::False => Some(false),
        Formula::Atom(a) => {
            if a.vars().iter().all(|&v| asg.get(v).is_some()) {
                c.fo_eval(FoEval::Atom);
                if G::ENABLED {
                    g.tick()?;
                }
                Some(eval_atom(tree, a, asg)?)
            } else {
                None
            }
        }
        Formula::Not(f) => eval_partial_inner(tree, f, asg, c, g)?.map(|b| !b),
        Formula::And(fs) => {
            let mut all_true = true;
            let mut out = None;
            for f in fs {
                match eval_partial_inner(tree, f, asg, c, g)? {
                    Some(false) => {
                        out = Some(Some(false));
                        break;
                    }
                    Some(true) => {}
                    None => all_true = false,
                }
            }
            match out {
                Some(decided) => decided,
                None if all_true => Some(true),
                None => None,
            }
        }
        Formula::Or(fs) => {
            let mut all_false = true;
            let mut out = None;
            for f in fs {
                match eval_partial_inner(tree, f, asg, c, g)? {
                    Some(true) => {
                        out = Some(Some(true));
                        break;
                    }
                    Some(false) => {}
                    None => all_false = false,
                }
            }
            match out {
                Some(decided) => decided,
                None if all_false => Some(false),
                None => None,
            }
        }
        // Quantifiers are opaque to partial evaluation.
        Formula::Exists(_, _) | Formula::Forall(_, _) => None,
    })
}

/// Backtracking satisfiability of a quantifier-free matrix over the given
/// existential variables, with three-valued pruning after each binding.
/// Each variable ranges over all of `Dom(t)`, so a conjunction over `k`
/// variables can cost `|t|^k`; [`ExistsFormula`](crate::ExistsFormula)
/// uses it only for the DNF branches its semi-joins cannot reduce (a
/// cyclic variable graph, a two-variable `val_eq`, a negated two-variable
/// atom).
///
/// Reports atoms through the pruning passes and one quantifier span per
/// bound variable, carrying its witness, to `c`; charges `g` one fuel unit
/// per binding and per decided atom.
///
/// # Errors
/// [`TwqError::Invalid`] when the matrix still contains quantifiers (so its
/// value is undetermined with every variable bound) or mentions an unbound
/// variable.
pub(crate) fn sat_exists_inner<C: Collector, G: Guard>(
    tree: &Tree,
    matrix: &Formula,
    vars: &[Var],
    asg: &mut Assignment,
    c: &mut C,
    g: &mut G,
) -> Result<bool, TwqError> {
    if let Some(b) = eval_partial_inner(tree, matrix, asg, c, g)? {
        return Ok(b);
    }
    let Some((&v, rest)) = vars.split_first() else {
        // All variables bound but the value is undetermined — only possible
        // if the matrix contains quantifiers, which callers exclude.
        return Err(TwqError::invalid(
            "logic::sat_exists",
            "matrix undetermined with all variables bound (quantifier inside matrix?)",
        ));
    };
    if G::ENABLED {
        g.enter(DepthKind::Quantifier)?;
    }
    c.quant_enter(true, u32::from(v.0));
    let mut out = Ok(false);
    let mut witness = None;
    for u in tree.node_ids() {
        if G::ENABLED {
            if let Err(e) = g.tick() {
                out = Err(e.into());
                break;
            }
        }
        asg.set(v, u);
        match sat_exists_inner(tree, matrix, rest, asg, c, g) {
            Ok(true) => {
                witness = Some(u64::from(u.0));
                out = Ok(true);
                break;
            }
            Ok(false) => {}
            Err(e) => {
                out = Err(e);
                break;
            }
        }
    }
    asg.unset(v);
    if G::ENABLED {
        g.exit(DepthKind::Quantifier);
    }
    c.quant_exit(matches!(out, Ok(true)), witness);
    out
}

fn restore(asg: &mut Assignment, v: Var, saved: Option<NodeId>) {
    match saved {
        Some(u) => asg.set(v, u),
        None => asg.unset(v),
    }
}

/// Evaluate a sentence (formula with no free variables).
///
/// # Errors
/// [`TwqError::Invalid`] if the formula has free variables.
pub fn eval_sentence(tree: &Tree, formula: &Formula) -> Result<bool, TwqError> {
    eval_sentence_in(tree, formula, &mut NullCollector, &mut NullGuard)
}

/// [`eval_sentence`] with a collector and a resource guard.
///
/// The collector sees one [`FoEval::Sentence`] per call plus one
/// [`FoEval::Atom`] per atom the recursion touches, and one quantifier
/// span per quantifier evaluation carrying the witness valuation that
/// decided it (the node making an `∃` true, or the counterexample
/// falsifying a `∀`) — what a
/// [`TraceCollector`](twq_obs::TraceCollector) records. The guard is
/// charged one fuel unit per atom and per quantifier binding, quantifier
/// nesting tracked as [`DepthKind::Quantifier`]; this is the form that
/// makes the `O(|t|^q)` evaluator safe to expose to untrusted sentences.
///
/// # Errors
/// [`TwqError::Invalid`] if the formula has free variables;
/// [`TwqError::Guard`] when the guard trips.
pub fn eval_sentence_in<C: Collector, G: Guard>(
    tree: &Tree,
    formula: &Formula,
    c: &mut C,
    g: &mut G,
) -> Result<bool, TwqError> {
    let free = formula.free_vars();
    if !free.is_empty() {
        return Err(TwqError::invalid(
            "logic::eval_sentence",
            format!("requires a sentence; free vars: {free:?}"),
        ));
    }
    c.fo_eval(FoEval::Sentence);
    let mut asg = Assignment::with_capacity(formula.max_var());
    eval_inner(tree, formula, &mut asg, c, g)
}

/// All nodes `v` such that `t ⊨ φ(u, v)` for a binary formula `φ(x, y)` —
/// the node-selection primitive behind `atp(φ(x,y), q)` (Section 3).
///
/// Results are a [`NodeSet`], whose iteration is in arena order — the same
/// order the former `Vec` return carried.
///
/// # Errors
/// [`TwqError::Invalid`] if the formula mentions variables other than `x`,
/// `y`, and its own quantified variables.
pub fn select(
    tree: &Tree,
    formula: &Formula,
    x: Var,
    u: NodeId,
    y: Var,
) -> Result<NodeSet, TwqError> {
    select_in(tree, formula, x, u, y, &mut NullCollector, &mut NullGuard)
}

/// [`select`] with a collector and a resource guard.
///
/// The collector sees one [`FoEval::Select`] per call, the per-candidate
/// quantifier evaluations (as for [`eval_sentence_in`]), and the selected
/// node set through [`Collector::selected`]. The guard is charged one fuel
/// unit per candidate node on top of the matrix's own atom and binding
/// charges.
///
/// # Errors
/// As for [`select`]; [`TwqError::Guard`] when the guard trips.
pub fn select_in<C: Collector, G: Guard>(
    tree: &Tree,
    formula: &Formula,
    x: Var,
    u: NodeId,
    y: Var,
    c: &mut C,
    g: &mut G,
) -> Result<NodeSet, TwqError> {
    c.fo_eval(FoEval::Select);
    let mut asg = Assignment::with_capacity(
        formula
            .max_var()
            .map_or(Some(x.max(y)), |m| Some(m.max(x).max(y))),
    );
    asg.set(x, u);
    let mut out = NodeSet::with_capacity(tree.len());
    let mut ids: Vec<u64> = Vec::new();
    for v in tree.node_ids() {
        if G::ENABLED {
            g.tick()?;
        }
        asg.set(y, v);
        if eval_inner(tree, formula, &mut asg, c, g)? {
            out.insert(v);
            if C::ENABLED {
                ids.push(u64::from(v.0));
            }
        }
    }
    if C::ENABLED {
        c.selected(&ids);
    }
    Ok(out)
}

/// All pairs `(u, v)` with `t ⊨ φ(u, v)`.
///
/// # Errors
/// As for [`select`].
pub fn select_pairs(
    tree: &Tree,
    formula: &Formula,
    x: Var,
    y: Var,
) -> Result<Vec<(NodeId, NodeId)>, TwqError> {
    let mut out = Vec::new();
    for u in tree.node_ids() {
        for v in select(tree, formula, x, u, y)? {
            out.push((u, v));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fo::build::*;
    use twq_tree::{parse_tree, Label, Vocab};

    fn sample() -> (Vocab, Tree) {
        let mut v = Vocab::new();
        let t = parse_tree("a[k=1](b[k=2],c[k=1](d[k=2],e[k=1]))", &mut v).unwrap();
        (v, t)
    }

    #[test]
    fn sentence_every_leaf_has_k() {
        let (mut v, t) = sample();
        let k = v.attr("k");
        let two = v.val_int(2);
        // ∀x (leaf(x) → val_k(x) = 2) — false: e is a leaf with k=1.
        let f = forall(var(0), implies(leaf(var(0)), val_const(k, var(0), two)));
        assert!(!eval_sentence(&t, &f).unwrap());
        // ∃x (leaf(x) ∧ val_k(x) = 2) — true: b and d.
        let g = exists(var(0), and([leaf(var(0)), val_const(k, var(0), two)]));
        assert!(eval_sentence(&t, &g).unwrap());
    }

    #[test]
    fn edge_and_desc_semantics() {
        let (_, t) = sample();
        let r = t.root();
        let c = t.node_at_path(&[2]).unwrap();
        let d = t.node_at_path(&[2, 1]).unwrap();
        let mut asg = Assignment::with_capacity(Some(var(1)));
        asg.set(var(0), r);
        asg.set(var(1), c);
        assert!(eval_atom(&t, &TreeAtom::Edge(var(0), var(1)), &asg).unwrap());
        asg.set(var(1), d);
        assert!(!eval_atom(&t, &TreeAtom::Edge(var(0), var(1)), &asg).unwrap());
        assert!(eval_atom(&t, &TreeAtom::Desc(var(0), var(1)), &asg).unwrap());
        // Desc is irreflexive.
        asg.set(var(1), r);
        assert!(!eval_atom(&t, &TreeAtom::Desc(var(0), var(1)), &asg).unwrap());
    }

    #[test]
    fn sibling_order_semantics() {
        let (_, t) = sample();
        let b = t.node_at_path(&[1]).unwrap();
        let c = t.node_at_path(&[2]).unwrap();
        let d = t.node_at_path(&[2, 1]).unwrap();
        let mut asg = Assignment::default();
        asg.set(var(0), b);
        asg.set(var(1), c);
        assert!(eval_atom(&t, &TreeAtom::SibLess(var(0), var(1)), &asg).unwrap());
        // Not symmetric, not reflexive, only among siblings.
        asg.set(var(0), c);
        asg.set(var(1), b);
        assert!(!eval_atom(&t, &TreeAtom::SibLess(var(0), var(1)), &asg).unwrap());
        asg.set(var(1), c);
        assert!(!eval_atom(&t, &TreeAtom::SibLess(var(0), var(1)), &asg).unwrap());
        asg.set(var(0), b);
        asg.set(var(1), d);
        assert!(!eval_atom(&t, &TreeAtom::SibLess(var(0), var(1)), &asg).unwrap());
        // succ agrees with immediate siblings.
        asg.set(var(0), b);
        asg.set(var(1), c);
        assert!(eval_atom(&t, &TreeAtom::Succ(var(0), var(1)), &asg).unwrap());
    }

    #[test]
    fn extra_predicates() {
        let (_, t) = sample();
        let r = t.root();
        let b = t.node_at_path(&[1]).unwrap();
        let c = t.node_at_path(&[2]).unwrap();
        let mut asg = Assignment::default();
        asg.set(var(0), r);
        assert!(eval_atom(&t, &TreeAtom::Root(var(0)), &asg).unwrap());
        assert!(!eval_atom(&t, &TreeAtom::Leaf(var(0)), &asg).unwrap());
        assert!(eval_atom(&t, &TreeAtom::First(var(0)), &asg).unwrap());
        assert!(eval_atom(&t, &TreeAtom::Last(var(0)), &asg).unwrap());
        asg.set(var(0), b);
        assert!(eval_atom(&t, &TreeAtom::First(var(0)), &asg).unwrap());
        assert!(!eval_atom(&t, &TreeAtom::Last(var(0)), &asg).unwrap());
        asg.set(var(0), c);
        assert!(!eval_atom(&t, &TreeAtom::First(var(0)), &asg).unwrap());
        assert!(eval_atom(&t, &TreeAtom::Last(var(0)), &asg).unwrap());
    }

    #[test]
    fn label_atoms_on_delims() {
        let (v, t) = sample();
        let dt = twq_tree::DelimTree::build(&t);
        let a = v.sym_opt("a").unwrap();
        // In delim(t): ∃x O_▽(x), ∃x O_△(x), ∃x O_a(x).
        for l in [Label::DelimRoot, Label::DelimLeaf, Label::Sym(a)] {
            let f = exists(var(0), lab(l, var(0)));
            assert!(eval_sentence(dt.tree(), &f).unwrap(), "{:?}", l);
        }
        // The original tree has no delimiters.
        let f = exists(var(0), lab(Label::DelimRoot, var(0)));
        assert!(!eval_sentence(&t, &f).unwrap());
    }

    #[test]
    fn select_descendant_leaves() {
        let (_, t) = sample();
        // φ(x, y) = x ≺ y ∧ leaf(y), from the paper's atp discussion.
        let f = and([desc(var(0), var(1)), leaf(var(1))]);
        let sel = select(&t, &f, var(0), t.root(), var(1)).unwrap();
        assert_eq!(sel.len(), 3); // b, d, e
        let c = t.node_at_path(&[2]).unwrap();
        let sel_c = select(&t, &f, var(0), c, var(1)).unwrap();
        assert_eq!(sel_c.len(), 2); // d, e
    }

    #[test]
    fn select_pairs_counts() {
        let (_, t) = sample();
        let f = edge(var(0), var(1));
        // Every non-root node contributes exactly one edge pair.
        assert_eq!(
            select_pairs(&t, &f, var(0), var(1)).unwrap().len(),
            t.len() - 1
        );
    }

    #[test]
    fn value_comparisons() {
        let (mut v, t) = sample();
        let k = v.attr("k");
        // ∃x∃y (x ≠ y ∧ val_k(x) = val_k(y))
        let f = exists_many(
            [var(0), var(1)],
            and([not(eq(var(0), var(1))), val_eq(k, var(0), k, var(1))]),
        );
        assert!(eval_sentence(&t, &f).unwrap());
    }

    #[test]
    fn unbound_variable_is_invalid_not_panic() {
        let (_, t) = sample();
        let asg = Assignment::default();
        let err = eval_atom(&t, &TreeAtom::Leaf(var(3)), &asg).unwrap_err();
        assert!(err.to_string().contains("unbound variable"), "{err}");
        assert!(!err.is_limit());
    }

    #[test]
    fn eval_sentence_rejects_free_vars() {
        let (_, t) = sample();
        let err = eval_sentence(&t, &leaf(var(0))).unwrap_err();
        assert!(err.to_string().contains("requires a sentence"), "{err}");
    }

    #[test]
    fn guarded_eval_trips_on_quantifier_depth() {
        use twq_guard::{ResourceGuard, TripReason};
        let (_, t) = sample();
        // ∃x ∃y (x = y): nesting depth 2.
        let f = exists(var(0), exists(var(1), eq(var(0), var(1))));
        let mut ok = ResourceGuard::unlimited().with_depth_limit(DepthKind::Quantifier, 2);
        assert!(eval_sentence_in(&t, &f, &mut NullCollector, &mut ok).unwrap());
        let mut tight = ResourceGuard::unlimited().with_depth_limit(DepthKind::Quantifier, 1);
        let err = eval_sentence_in(&t, &f, &mut NullCollector, &mut tight).unwrap_err();
        let trip = err.guard().expect("depth trip");
        assert_eq!(
            trip.reason,
            TripReason::Depth {
                kind: DepthKind::Quantifier,
                limit: 1
            }
        );
    }

    #[test]
    fn guarded_eval_budget_counts_bindings() {
        use twq_guard::ResourceGuard;
        let (_, t) = sample();
        // ∀x ∀y (x = x): |t|² bindings plus |t|² atoms plus |t| outer ticks.
        let f = forall(var(0), forall(var(1), eq(var(0), var(0))));
        let mut g = ResourceGuard::unlimited();
        assert!(eval_sentence_in(&t, &f, &mut NullCollector, &mut g).unwrap());
        let spent = g.fuel_spent();
        let n = t.len() as u64;
        assert!(spent >= n * n, "spent {spent} on {n} nodes");
        // A budget one unit short of the true cost trips.
        let mut tight = ResourceGuard::unlimited().with_budget(spent - 1);
        assert!(eval_sentence_in(&t, &f, &mut NullCollector, &mut tight)
            .unwrap_err()
            .is_limit());
        // The exact cost passes.
        let mut exact = ResourceGuard::unlimited().with_budget(spent);
        assert!(eval_sentence_in(&t, &f, &mut NullCollector, &mut exact).unwrap());
    }
}
