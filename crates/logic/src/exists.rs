//! The `FO(∃*)` fragment (Section 2.3): prenex formulas with existential
//! quantifiers only, over the tree vocabulary extended with
//! `root/leaf/first/last/succ`.
//!
//! The paper uses binary `FO(∃*)` formulas `φ(x, y)` as its abstraction of
//! XPath: `x` is the *current* position and `y` the *selected* position.
//! These are exactly the formulas allowed inside `atp(φ(x,y), q)` rules of
//! tree-walking automata (Definition 3.1, form 3).
//!
//! Selection splits the matrix into DNF branches, once per formula. A
//! branch whose variables, linked by its `E`/`≺`/`<`/`succ`/`=` atoms,
//! form a forest (every formula `twq_xpath::compile` emits, and every
//! stock selector) is evaluated set-at-a-time by semi-joins over the
//! tree's links, in time linear in the tree; any other branch backtracks
//! over its own ∃-variables.

use std::sync::OnceLock;

use twq_guard::{Guard, NullGuard, TwqError};
use twq_obs::{Collector, FoEval, NullCollector};
use twq_tree::{NodeId, NodeSet, Tree};

use crate::eval;
use crate::fo::{Formula, Var};
use crate::join::JoinPlan;

/// A binary `FO(∃*)` formula `φ(x, y) = ∃z₁…∃zₙ θ` with `θ` quantifier-free.
///
/// Invariants (checked by [`ExistsFormula::new`]):
/// * the matrix is quantifier-free;
/// * every variable of the matrix is `x`, `y`, or one of the quantified
///   variables;
/// * `x`, `y`, and the quantified variables are pairwise distinct.
#[derive(Debug, Clone)]
pub struct ExistsFormula {
    x: Var,
    y: Var,
    quantified: Vec<Var>,
    matrix: Formula,
    /// The matrix's DNF branches, analysed on the first selection: a
    /// formula `twq-index` translates never needs them. Analysing in
    /// [`ExistsFormula::new`], which `twq-e2e`'s `resident` workload calls
    /// per FO query, raised its p50 latency 1.27×.
    branches: OnceLock<Vec<Branch>>,
}

/// Formulas are equal when they are the same `φ(x, y)`, whether or not
/// either has been analysed.
impl PartialEq for ExistsFormula {
    fn eq(&self, other: &ExistsFormula) -> bool {
        (self.x, self.y, &self.quantified, &self.matrix)
            == (other.x, other.y, &other.quantified, &other.matrix)
    }
}

impl Eq for ExistsFormula {}

/// How [`ExistsFormula::select_in`] evaluates one DNF branch.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Branch {
    /// A tree-shaped conjunction: semi-joins over the tree's links.
    Join(JoinPlan),
    /// Anything else: backtracking over the conjunction's own
    /// ∃-variables, one candidate `y` at a time.
    Search(Formula, Vec<Var>),
}

/// Why an [`ExistsFormula`] failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExistsError {
    /// The matrix contains a quantifier.
    MatrixNotQuantifierFree,
    /// A matrix variable is neither `x`, `y`, nor quantified.
    UnboundVariable(Var),
    /// `x`, `y`, and the quantified variables must be pairwise distinct.
    DuplicateVariable(Var),
}

impl std::fmt::Display for ExistsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExistsError::MatrixNotQuantifierFree => {
                write!(f, "FO(∃*) matrix must be quantifier-free")
            }
            ExistsError::UnboundVariable(v) => write!(f, "variable {v} is not bound"),
            ExistsError::DuplicateVariable(v) => write!(f, "variable {v} bound twice"),
        }
    }
}

impl std::error::Error for ExistsError {}

impl ExistsFormula {
    /// Build and validate `φ(x, y) = ∃ quantified… matrix`.
    pub fn new(x: Var, y: Var, quantified: Vec<Var>, matrix: Formula) -> Result<Self, ExistsError> {
        if !matrix.is_quantifier_free() {
            return Err(ExistsError::MatrixNotQuantifierFree);
        }
        let mut bound = vec![x, y];
        bound.extend(&quantified);
        let mut sorted = bound.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(ExistsError::DuplicateVariable(w[0]));
            }
        }
        for v in matrix.free_vars() {
            if !bound.contains(&v) {
                return Err(ExistsError::UnboundVariable(v));
            }
        }
        Ok(ExistsFormula {
            x,
            y,
            quantified,
            matrix,
            branches: OnceLock::new(),
        })
    }

    /// The DNF branches and how each is evaluated, analysed on first use.
    fn branches(&self) -> &[Branch] {
        self.branches.get_or_init(|| {
            // Split disjunctions so each branch only binds its *own*
            // ∃-variables: a union otherwise makes every branch range over
            // the other branches' (unconstrained) variables, an `n^k`
            // blowup.
            let Some(ds) = dnf(&self.matrix, 256) else {
                // DNF too large: backtracking over all variables.
                return vec![Branch::Search(self.matrix.clone(), self.quantified.clone())];
            };
            ds.into_iter()
                .map(|lits| match JoinPlan::new(self.x, self.y, &lits) {
                    Some(plan) => Branch::Join(plan),
                    None => {
                        let conj = Formula::And(lits);
                        let free = conj.free_vars();
                        let own = self.quantified.iter().filter(|v| free.contains(v));
                        Branch::Search(conj, own.copied().collect())
                    }
                })
                .collect()
        })
    }

    /// The current-position variable `x`.
    pub fn x(&self) -> Var {
        self.x
    }

    /// The selected-position variable `y`.
    pub fn y(&self) -> Var {
        self.y
    }

    /// The quantifier-free matrix.
    pub fn matrix(&self) -> &Formula {
        &self.matrix
    }

    /// The quantified variable list.
    pub fn quantified(&self) -> &[Var] {
        &self.quantified
    }

    /// The equivalent [`Formula`] with free variables `x` and `y`.
    pub fn to_formula(&self) -> Formula {
        crate::fo::build::exists_many(self.quantified.iter().copied(), self.matrix.clone())
    }

    /// Syntactic size (contributes to the automaton size of Def. 3.1).
    pub fn size(&self) -> usize {
        self.quantified.len() + self.matrix.size()
    }

    /// Whether the selecting pair is all the formula talks about: no
    /// quantified variables were declared and the matrix is built from
    /// `∧`/`∨` over atoms (no negation) mentioning only `x` and `y`.
    ///
    /// This is the positive existential two-variable fragment the
    /// `twq-index` layer translates to set algebra; everything else keeps
    /// the [`select`](ExistsFormula::select) evaluator.
    pub fn is_positive_xy(&self) -> bool {
        fn positive(f: &Formula, x: Var, y: Var) -> bool {
            match f {
                Formula::True | Formula::False => true,
                Formula::Atom(a) => a.vars().iter().all(|&v| v == x || v == y),
                Formula::And(fs) | Formula::Or(fs) => fs.iter().all(|g| positive(g, x, y)),
                Formula::Not(_) | Formula::Exists(..) | Formula::Forall(..) => false,
            }
        }
        self.quantified.is_empty() && positive(&self.matrix, self.x, self.y)
    }

    /// How [`select`](ExistsFormula::select) evaluates the matrix: the
    /// number of DNF branches it reduces by semi-joins, and the number it
    /// backtracks over (a matrix whose DNF exceeds 256 branches counts as
    /// one backtracking branch).
    pub fn branch_paths(&self) -> (usize, usize) {
        let branches = self.branches();
        let joins = branches
            .iter()
            .filter(|b| matches!(b, Branch::Join(_)))
            .count();
        (joins, branches.len() - joins)
    }

    /// All nodes `v` with `t ⊨ φ(u, v)` — the `atp` selection primitive.
    ///
    /// The union over the DNF branches: tree-shaped branches by
    /// semi-joins, in time linear in what `u`'s links reach; the others by
    /// backtracking with three-valued pruning, for each candidate `v` not
    /// already selected. The returned [`NodeSet`] iterates in arena order.
    pub fn select(&self, tree: &Tree, u: NodeId) -> NodeSet {
        self.select_in(tree, u, &mut NullCollector, &mut NullGuard)
            .expect("ExistsFormula invariants hold and NullGuard never trips")
    }

    /// [`ExistsFormula::select`] with a collector and a resource guard.
    ///
    /// The collector sees one [`FoEval::Select`] per call; one
    /// [`FoEval::Atom`] per literal a semi-join branch applies; and the
    /// atom evaluations and quantifier spans of the backtracking branches.
    /// The guard sees one [`Guard::charge`] per variable of each semi-join
    /// branch, of one unit plus the nodes touched on its behalf (as the
    /// XPath walker charges per AST node), and one fuel unit per binding
    /// and per decided atom of a backtracking branch, whose nesting is
    /// tracked as [`DepthKind::Quantifier`](twq_guard::DepthKind).
    ///
    /// # Errors
    /// [`TwqError::Guard`] when the guard trips; with [`NullGuard`] the
    /// call never fails.
    pub fn select_in<C: Collector, G: Guard>(
        &self,
        tree: &Tree,
        u: NodeId,
        c: &mut C,
        g: &mut G,
    ) -> Result<NodeSet, TwqError> {
        c.fo_eval(FoEval::Select);
        let branches = self.branches();
        let mut out = NodeSet::new();
        for b in branches {
            if let Branch::Join(plan) = b {
                let s = plan.select(tree, u, c, g)?;
                if out.is_empty() {
                    out = s;
                } else {
                    out.union_with(&s);
                }
            }
        }
        if branches.iter().any(|b| matches!(b, Branch::Search(..))) {
            let max = self
                .quantified
                .iter()
                .copied()
                .chain([self.x, self.y])
                .max();
            let mut asg = eval::Assignment::with_capacity(max);
            asg.set(self.x, u);
            for v in tree.node_ids() {
                if out.contains(v) {
                    continue;
                }
                asg.set(self.y, v);
                for b in branches {
                    if let Branch::Search(conj, vars) = b {
                        if eval::sat_exists_inner(tree, conj, vars, &mut asg, c, g)? {
                            out.insert(v);
                            break;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Whether `φ` selects exactly one node from `u` — the syntactic
    /// single-selection requirement of `tw^l` (Definition 5.1) checked
    /// semantically.
    pub fn selects_unique(&self, tree: &Tree, u: NodeId) -> bool {
        self.select(tree, u).len() == 1
    }

    /// Conservative syntactic check that `φ` selects **at most one** node
    /// from any position — the `tw^l` requirement of Definition 5.1 ("every
    /// `φ` … should select only one node (for instance, select parent or
    /// first child)"). Exactly the following shapes are recognized:
    ///
    /// * `x = y` (self) and `y = x`;
    /// * `E(y, x)` (parent);
    /// * a conjunction containing `E(x, y)` and `first(y)` (first child);
    /// * a conjunction containing `root(y)` (the root);
    /// * `succ(x, y)` / `succ(y, x)` (right/left sibling).
    ///
    /// Single-node selection is undecidable in general; programs using
    /// other shapes are classified as full look-ahead.
    pub fn is_syntactically_single(&self) -> bool {
        use crate::fo::TreeAtom as A;
        let (x, y) = (self.x, self.y);
        let single_atom = |a: &A| -> bool {
            matches!(a,
                A::Eq(p, q) if (*p == x && *q == y) || (*p == y && *q == x))
                || matches!(a, A::Edge(p, q) if *p == y && *q == x)
                || matches!(a, A::Root(p) if *p == y)
                || matches!(a, A::Succ(p, q) if (*p == x && *q == y) || (*p == y && *q == x))
        };
        let first_child = |fs: &[Formula]| -> bool {
            let has_edge = fs
                .iter()
                .any(|f| matches!(f, Formula::Atom(A::Edge(p, q)) if *p == x && *q == y));
            let has_first = fs
                .iter()
                .any(|f| matches!(f, Formula::Atom(A::First(p)) if *p == y));
            has_edge && has_first
        };
        match &self.matrix {
            Formula::Atom(a) => single_atom(a),
            Formula::And(fs) => {
                fs.iter()
                    .any(|f| matches!(f, Formula::Atom(a) if single_atom(a)))
                    || first_child(fs)
            }
            _ => false,
        }
    }

    /// Render with the given vocabulary.
    pub fn display(&self, vocab: &twq_tree::Vocab) -> String {
        format!(
            "φ({}, {}) := {}",
            self.x,
            self.y,
            self.to_formula().display(vocab)
        )
    }
}

/// Negation normal form: push `Not` down to atoms, folding constants.
fn nnf(f: &Formula, neg: bool) -> Formula {
    match f {
        Formula::True => {
            if neg {
                Formula::False
            } else {
                Formula::True
            }
        }
        Formula::False => {
            if neg {
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::Atom(a) => {
            if neg {
                Formula::Not(Box::new(Formula::Atom(a.clone())))
            } else {
                Formula::Atom(a.clone())
            }
        }
        Formula::Not(g) => nnf(g, !neg),
        Formula::And(fs) => {
            let parts: Vec<Formula> = fs.iter().map(|g| nnf(g, neg)).collect();
            if neg {
                Formula::Or(parts)
            } else {
                Formula::And(parts)
            }
        }
        Formula::Or(fs) => {
            let parts: Vec<Formula> = fs.iter().map(|g| nnf(g, neg)).collect();
            if neg {
                Formula::And(parts)
            } else {
                Formula::Or(parts)
            }
        }
        // Quantifiers never occur in FO(∃*) matrices.
        Formula::Exists(_, _) | Formula::Forall(_, _) => {
            unreachable!("matrix is quantifier-free")
        }
    }
}

/// Disjunctive normal form as a list of literal-conjunctions, or `None`
/// when the number of disjuncts would exceed `cap`.
fn dnf(matrix: &Formula, cap: usize) -> Option<Vec<Vec<Formula>>> {
    fn go(f: &Formula, cap: usize) -> Option<Vec<Vec<Formula>>> {
        match f {
            Formula::True => Some(vec![vec![]]),
            Formula::False => Some(vec![]),
            Formula::Atom(_) | Formula::Not(_) => Some(vec![vec![f.clone()]]),
            Formula::Or(fs) => {
                let mut out = Vec::new();
                for g in fs {
                    out.extend(go(g, cap)?);
                    if out.len() > cap {
                        return None;
                    }
                }
                Some(out)
            }
            Formula::And(fs) => {
                let mut acc: Vec<Vec<Formula>> = vec![vec![]];
                for g in fs {
                    let gs = go(g, cap)?;
                    let mut next = Vec::with_capacity(acc.len() * gs.len());
                    for left in &acc {
                        for right in &gs {
                            let mut lits = left.clone();
                            lits.extend(right.iter().cloned());
                            next.push(lits);
                        }
                    }
                    if next.len() > cap {
                        return None;
                    }
                    acc = next;
                }
                Some(acc)
            }
            Formula::Exists(_, _) | Formula::Forall(_, _) => None,
        }
    }
    go(&nnf(matrix, false), cap)
}

/// Stock selectors used throughout the automata and compilers. All take
/// `x = x0`, `y = x1`; auxiliary variables start at `x2`.
pub mod selectors {
    use super::*;
    use crate::fo::build::*;
    use twq_tree::Label;

    fn xy() -> (Var, Var) {
        (var(0), var(1))
    }

    /// `φ(x, y) = (x = y)` — select the current node.
    pub fn self_node() -> ExistsFormula {
        let (x, y) = xy();
        ExistsFormula::new(x, y, vec![], eq(x, y)).expect("valid selector")
    }

    /// `φ(x, y) = E(y, x)` — select the parent.
    pub fn parent() -> ExistsFormula {
        let (x, y) = xy();
        ExistsFormula::new(x, y, vec![], edge(y, x)).expect("valid selector")
    }

    /// `φ(x, y) = E(x, y) ∧ first(y)` — select the first child.
    pub fn first_child() -> ExistsFormula {
        let (x, y) = xy();
        ExistsFormula::new(x, y, vec![], and([edge(x, y), first(y)])).expect("valid selector")
    }

    /// `φ(x, y) = E(x, y)` — select all children.
    pub fn children() -> ExistsFormula {
        let (x, y) = xy();
        ExistsFormula::new(x, y, vec![], edge(x, y)).expect("valid selector")
    }

    /// `φ(x, y) = x ≺ y` — select all strict descendants.
    pub fn descendants() -> ExistsFormula {
        let (x, y) = xy();
        ExistsFormula::new(x, y, vec![], desc(x, y)).expect("valid selector")
    }

    /// `φ(x, y) = x ≺ y ∧ O_σ(y)` — strict descendants labeled `σ`.
    pub fn descendants_labeled(l: Label) -> ExistsFormula {
        let (x, y) = xy();
        ExistsFormula::new(x, y, vec![], and([desc(x, y), lab(l, y)])).expect("valid selector")
    }

    /// `φ(x, y) = ∃z (x ≺ y ∧ E(y, z) ∧ O_△(z))` — on a delimited tree,
    /// the original-leaf descendants of `x` (the parents of `△`-nodes);
    /// this is the paper's `φ₂` from Example 3.2.
    pub fn delim_leaf_descendants() -> ExistsFormula {
        let (x, y) = xy();
        let z = var(2);
        ExistsFormula::new(
            x,
            y,
            vec![z],
            and([desc(x, y), edge(y, z), lab(Label::DelimLeaf, z)]),
        )
        .expect("valid selector")
    }

    /// `φ(x, y) = root(x) ∧ …` is unnecessary: `φ(x, y) = root(y)` selects
    /// the root from anywhere.
    pub fn root_node() -> ExistsFormula {
        let (x, y) = xy();
        // `x` must occur for the formula to be "binary"; `x = x` is free.
        ExistsFormula::new(x, y, vec![], and([eq(x, x), root(y)])).expect("valid selector")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fo::build::*;
    use twq_tree::{parse_tree, DelimTree, Vocab};

    fn sample() -> (Vocab, Tree) {
        let mut v = Vocab::new();
        let t = parse_tree("a(b,c(d,e))", &mut v).unwrap();
        (v, t)
    }

    #[test]
    fn validation_rejects_quantified_matrix() {
        let bad = ExistsFormula::new(var(0), var(1), vec![], exists(var(2), eq(var(0), var(2))));
        assert_eq!(bad.unwrap_err(), ExistsError::MatrixNotQuantifierFree);
    }

    #[test]
    fn validation_rejects_unbound() {
        let bad = ExistsFormula::new(var(0), var(1), vec![], eq(var(0), var(7)));
        assert_eq!(bad.unwrap_err(), ExistsError::UnboundVariable(var(7)));
    }

    #[test]
    fn validation_rejects_duplicates() {
        let bad = ExistsFormula::new(var(0), var(1), vec![var(1)], eq(var(0), var(1)));
        assert_eq!(bad.unwrap_err(), ExistsError::DuplicateVariable(var(1)));
    }

    #[test]
    fn paper_example_formula() {
        // The paper's §2.3 example:
        //   φ(x, y) = ∃y₂∃y₃ (x ≺ y ∧ y ≺ y₂ ∧ E(y, y₃)
        //              ∧ O_a(x) ∧ O_b(y) ∧ O_c(y₂) ∧ O_d(y₃))
        let mut v = Vocab::new();
        let t = parse_tree("a(b(c(q),d),b(d))", &mut v).unwrap();
        let (a, b, c, d) = (
            v.sym_opt("a").unwrap(),
            v.sym_opt("b").unwrap(),
            v.sym_opt("c").unwrap(),
            v.sym_opt("d").unwrap(),
        );
        use twq_tree::Label::Sym;
        let (x, y, y2, y3) = (var(0), var(1), var(2), var(3));
        let phi = ExistsFormula::new(
            x,
            y,
            vec![y2, y3],
            and([
                desc(x, y),
                desc(y, y2),
                edge(y, y3),
                lab(Sym(a), x),
                lab(Sym(b), y),
                lab(Sym(c), y2),
                lab(Sym(d), y3),
            ]),
        )
        .unwrap();
        // From the root: the first b has descendants c(q) and a child d — it
        // matches. The second b has child d but no c descendant — no match.
        let sel = phi.select(&t, t.root());
        assert_eq!(sel.len(), 1);
        assert_eq!(sel.first(), t.node_at_path(&[1]));
    }

    #[test]
    fn stock_selectors() {
        let (_, t) = sample();
        let r = t.root();
        let c = t.node_at_path(&[2]).unwrap();
        let d = t.node_at_path(&[2, 1]).unwrap();
        assert_eq!(selectors::self_node().select(&t, c).to_vec(), vec![c]);
        assert_eq!(selectors::parent().select(&t, c).to_vec(), vec![r]);
        assert_eq!(selectors::parent().select(&t, r).to_vec(), vec![]);
        assert_eq!(selectors::first_child().select(&t, c).to_vec(), vec![d]);
        assert_eq!(selectors::children().select(&t, r).len(), 2);
        assert_eq!(selectors::descendants().select(&t, r).len(), 4);
        assert_eq!(selectors::root_node().select(&t, d).to_vec(), vec![r]);
        assert!(selectors::self_node().selects_unique(&t, c));
        assert!(!selectors::children().selects_unique(&t, r));
    }

    #[test]
    fn delim_leaf_descendants_selects_original_leaves() {
        let (_, t) = sample();
        let dt = DelimTree::build(&t);
        let phi = selectors::delim_leaf_descendants();
        let sel = phi.select(dt.tree(), dt.tree().root());
        // Original leaves: b, d, e.
        assert_eq!(sel.len(), 3);
        for u in sel {
            let orig = dt.original(u).expect("selected nodes are images");
            assert!(t.is_leaf(orig));
        }
    }

    #[test]
    fn size_accounts_for_quantifiers() {
        let phi = selectors::delim_leaf_descendants();
        assert!(phi.size() > phi.matrix().size());
    }

    #[test]
    fn syntactic_single_selector_recognition() {
        assert!(selectors::self_node().is_syntactically_single());
        assert!(selectors::parent().is_syntactically_single());
        assert!(selectors::first_child().is_syntactically_single());
        assert!(selectors::root_node().is_syntactically_single());
        assert!(!selectors::children().is_syntactically_single());
        assert!(!selectors::descendants().is_syntactically_single());
        assert!(!selectors::delim_leaf_descendants().is_syntactically_single());
    }

    #[test]
    fn display_shows_both_roles() {
        let v = Vocab::new();
        let s = selectors::self_node().display(&v);
        assert!(s.contains("φ(x0, x1)"), "{s}");
    }
}
