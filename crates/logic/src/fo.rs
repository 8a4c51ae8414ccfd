//! First-order logic over the tree vocabulary
//! `τ_{Σ,A} = {E, <, ≺, (O_σ)_σ, (val_a)_a}` (Section 2.2 of the paper).
//!
//! Atomic formulas are `E(x,y)` (y is a child of x), `x < y` (sibling
//! order), `x ≺ y` (y is a strict descendant of x), `O_σ(x)`, `x = y`,
//! `val_a(x) = val_b(y)`, and `val_a(x) = d`. On top of these, the
//! `FO(∃*)` fragment of Section 2.3 additionally allows the FO-definable
//! (but not `FO(∃*)`-definable) unary predicates `root`, `leaf`, `first`,
//! `last` and the binary `succ`; we expose them as primitive atoms so both
//! fragments share one AST.
//!
//! Formulas are plain ASTs built either with the [`build`] helpers or the
//! parser in [`crate::parse`]; evaluation lives in [`crate::eval`].

use std::fmt;

use twq_tree::{AttrId, Label, Value, Vocab};

/// A first-order variable. Formulas address variables by dense index;
/// display renders `x0, x1, …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u16);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// An atomic formula over the tree vocabulary.
///
/// `Ord` is the canonical atom order used by the `twq-rw` normalizer to
/// sort and deduplicate conjuncts/disjuncts; it is the derived structural
/// order and carries no semantic meaning.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TreeAtom {
    /// `E(x, y)`: `y` is a child of `x`.
    Edge(Var, Var),
    /// `x < y`: `x` and `y` are siblings and `x` comes before `y`.
    SibLess(Var, Var),
    /// `x ≺ y`: `y` is a strict descendant of `x`.
    Desc(Var, Var),
    /// `O_σ(x)`: the label of `x` is `σ` (delimiter labels allowed, since
    /// automata evaluate formulas on `delim(t)`).
    Lab(Label, Var),
    /// `x = y`.
    Eq(Var, Var),
    /// `val_a(x) = val_b(y)`.
    ValEq(AttrId, Var, AttrId, Var),
    /// `val_a(x) = d`.
    ValConst(AttrId, Var, Value),
    /// `root(x)` — extra predicate of the `FO(∃*)` layer (Section 2.3).
    Root(Var),
    /// `leaf(x)`.
    Leaf(Var),
    /// `first(x)` — `x` is a first child.
    First(Var),
    /// `last(x)` — `x` is a last child.
    Last(Var),
    /// `succ(x, y)` — `y` is the immediate right sibling of `x`.
    Succ(Var, Var),
}

impl TreeAtom {
    /// Variables mentioned by this atom.
    pub fn vars(&self) -> Vec<Var> {
        match *self {
            TreeAtom::Edge(x, y)
            | TreeAtom::SibLess(x, y)
            | TreeAtom::Desc(x, y)
            | TreeAtom::Eq(x, y)
            | TreeAtom::ValEq(_, x, _, y)
            | TreeAtom::Succ(x, y) => vec![x, y],
            TreeAtom::Lab(_, x)
            | TreeAtom::ValConst(_, x, _)
            | TreeAtom::Root(x)
            | TreeAtom::Leaf(x)
            | TreeAtom::First(x)
            | TreeAtom::Last(x) => vec![x],
        }
    }

    /// Whether this atom is one of the extra `FO(∃*)` predicates
    /// (`root/leaf/first/last/succ`) that are FO-definable but not atomic
    /// in the base vocabulary.
    pub fn is_extra(&self) -> bool {
        matches!(
            self,
            TreeAtom::Root(_)
                | TreeAtom::Leaf(_)
                | TreeAtom::First(_)
                | TreeAtom::Last(_)
                | TreeAtom::Succ(_, _)
        )
    }

    /// Render with the given vocabulary.
    pub fn display(&self, vocab: &Vocab) -> String {
        match self {
            TreeAtom::Edge(x, y) => format!("E({x},{y})"),
            TreeAtom::SibLess(x, y) => format!("{x} < {y}"),
            TreeAtom::Desc(x, y) => format!("{x} ≺ {y}"),
            TreeAtom::Lab(l, x) => format!("O_{}({x})", l.display(vocab)),
            TreeAtom::Eq(x, y) => format!("{x} = {y}"),
            TreeAtom::ValEq(a, x, b, y) => format!(
                "val_{}({x}) = val_{}({y})",
                vocab.attr_name(*a),
                vocab.attr_name(*b)
            ),
            TreeAtom::ValConst(a, x, d) => format!(
                "val_{}({x}) = {}",
                vocab.attr_name(*a),
                vocab.value_display(*d)
            ),
            TreeAtom::Root(x) => format!("root({x})"),
            TreeAtom::Leaf(x) => format!("leaf({x})"),
            TreeAtom::First(x) => format!("first({x})"),
            TreeAtom::Last(x) => format!("last({x})"),
            TreeAtom::Succ(x, y) => format!("succ({x},{y})"),
        }
    }
}

/// A first-order formula over the tree vocabulary.
///
/// `Ord` is the canonical formula order used by the `twq-rw` normalizer
/// (see `TreeAtom`); it carries no semantic meaning.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Formula {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// An atom.
    Atom(TreeAtom),
    /// Negation.
    Not(Box<Formula>),
    /// n-ary conjunction (empty = true).
    And(Vec<Formula>),
    /// n-ary disjunction (empty = false).
    Or(Vec<Formula>),
    /// Existential quantification over `Dom(t)`.
    Exists(Var, Box<Formula>),
    /// Universal quantification over `Dom(t)`.
    Forall(Var, Box<Formula>),
}

impl Formula {
    /// Free variables, sorted and deduplicated.
    pub fn free_vars(&self) -> Vec<Var> {
        let mut free = Vec::new();
        self.collect_free(&mut Vec::new(), &mut free);
        free.sort_unstable();
        free.dedup();
        free
    }

    fn collect_free(&self, bound: &mut Vec<Var>, out: &mut Vec<Var>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => {
                for v in a.vars() {
                    if !bound.contains(&v) {
                        out.push(v);
                    }
                }
            }
            Formula::Not(f) => f.collect_free(bound, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_free(bound, out);
                }
            }
            Formula::Exists(v, f) | Formula::Forall(v, f) => {
                bound.push(*v);
                f.collect_free(bound, out);
                bound.pop();
            }
        }
    }

    /// The largest variable index mentioned anywhere (bound or free), if
    /// any. Used to size assignment vectors.
    pub fn max_var(&self) -> Option<Var> {
        match self {
            Formula::True | Formula::False => None,
            Formula::Atom(a) => a.vars().into_iter().max(),
            Formula::Not(f) => f.max_var(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().filter_map(Formula::max_var).max(),
            Formula::Exists(v, f) | Formula::Forall(v, f) => {
                Some(f.max_var().map_or(*v, |m| m.max(*v)))
            }
        }
    }

    /// Number of syntactic nodes — the paper's `|ξ|` contribution to the
    /// size of an automaton (Definition 3.1).
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(Formula::size).sum::<usize>(),
            Formula::Exists(_, f) | Formula::Forall(_, f) => 1 + f.size(),
        }
    }

    /// Whether the formula is quantifier-free.
    pub fn is_quantifier_free(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => true,
            Formula::Not(f) => f.is_quantifier_free(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_quantifier_free),
            Formula::Exists(_, _) | Formula::Forall(_, _) => false,
        }
    }

    /// Whether the formula uses any of the extra `root/leaf/first/last/succ`
    /// predicates.
    pub fn uses_extra_predicates(&self) -> bool {
        match self {
            Formula::True | Formula::False => false,
            Formula::Atom(a) => a.is_extra(),
            Formula::Not(f) => f.uses_extra_predicates(),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().any(Formula::uses_extra_predicates),
            Formula::Exists(_, f) | Formula::Forall(_, f) => f.uses_extra_predicates(),
        }
    }

    /// Render with the given vocabulary.
    pub fn display(&self, vocab: &Vocab) -> String {
        match self {
            Formula::True => "true".to_owned(),
            Formula::False => "false".to_owned(),
            Formula::Atom(a) => a.display(vocab),
            Formula::Not(f) => format!("¬({})", f.display(vocab)),
            Formula::And(fs) => {
                if fs.is_empty() {
                    "true".to_owned()
                } else {
                    let parts: Vec<String> = fs
                        .iter()
                        .map(|f| format!("({})", f.display(vocab)))
                        .collect();
                    parts.join(" ∧ ")
                }
            }
            Formula::Or(fs) => {
                if fs.is_empty() {
                    "false".to_owned()
                } else {
                    let parts: Vec<String> = fs
                        .iter()
                        .map(|f| format!("({})", f.display(vocab)))
                        .collect();
                    parts.join(" ∨ ")
                }
            }
            Formula::Exists(v, f) => format!("∃{v} ({})", f.display(vocab)),
            Formula::Forall(v, f) => format!("∀{v} ({})", f.display(vocab)),
        }
    }
}

/// Ergonomic constructors for [`Formula`].
pub mod build {
    use super::*;

    /// Variable `xN`.
    pub fn var(n: u16) -> Var {
        Var(n)
    }

    /// `E(x, y)`.
    pub fn edge(x: Var, y: Var) -> Formula {
        Formula::Atom(TreeAtom::Edge(x, y))
    }

    /// `x < y` (sibling order).
    pub fn sib_less(x: Var, y: Var) -> Formula {
        Formula::Atom(TreeAtom::SibLess(x, y))
    }

    /// `x ≺ y` (strict descendant).
    pub fn desc(x: Var, y: Var) -> Formula {
        Formula::Atom(TreeAtom::Desc(x, y))
    }

    /// `O_σ(x)` for an element symbol.
    pub fn lab(l: Label, x: Var) -> Formula {
        Formula::Atom(TreeAtom::Lab(l, x))
    }

    /// `x = y`.
    pub fn eq(x: Var, y: Var) -> Formula {
        Formula::Atom(TreeAtom::Eq(x, y))
    }

    /// `val_a(x) = val_b(y)`.
    pub fn val_eq(a: AttrId, x: Var, b: AttrId, y: Var) -> Formula {
        Formula::Atom(TreeAtom::ValEq(a, x, b, y))
    }

    /// `val_a(x) = d`.
    pub fn val_const(a: AttrId, x: Var, d: Value) -> Formula {
        Formula::Atom(TreeAtom::ValConst(a, x, d))
    }

    /// `root(x)`.
    pub fn root(x: Var) -> Formula {
        Formula::Atom(TreeAtom::Root(x))
    }

    /// `leaf(x)`.
    pub fn leaf(x: Var) -> Formula {
        Formula::Atom(TreeAtom::Leaf(x))
    }

    /// `first(x)`.
    pub fn first(x: Var) -> Formula {
        Formula::Atom(TreeAtom::First(x))
    }

    /// `last(x)`.
    pub fn last(x: Var) -> Formula {
        Formula::Atom(TreeAtom::Last(x))
    }

    /// `succ(x, y)`.
    pub fn succ(x: Var, y: Var) -> Formula {
        Formula::Atom(TreeAtom::Succ(x, y))
    }

    /// Negation.
    pub fn not(f: Formula) -> Formula {
        Formula::Not(Box::new(f))
    }

    /// Conjunction.
    pub fn and(fs: impl IntoIterator<Item = Formula>) -> Formula {
        Formula::And(fs.into_iter().collect())
    }

    /// Disjunction.
    pub fn or(fs: impl IntoIterator<Item = Formula>) -> Formula {
        Formula::Or(fs.into_iter().collect())
    }

    /// Implication `a → b`.
    pub fn implies(a: Formula, b: Formula) -> Formula {
        or([not(a), b])
    }

    /// `∃x φ`.
    pub fn exists(x: Var, f: Formula) -> Formula {
        Formula::Exists(x, Box::new(f))
    }

    /// `∃x₁…∃xₙ φ`.
    pub fn exists_many(xs: impl IntoIterator<Item = Var>, f: Formula) -> Formula {
        let xs: Vec<Var> = xs.into_iter().collect();
        xs.into_iter().rev().fold(f, |acc, x| exists(x, acc))
    }

    /// `∀x φ`.
    pub fn forall(x: Var, f: Formula) -> Formula {
        Formula::Forall(x, Box::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;

    #[test]
    fn free_vars_respect_binders() {
        let x = var(0);
        let y = var(1);
        let f = exists(y, and([edge(x, y), leaf(y)]));
        assert_eq!(f.free_vars(), vec![x]);
        let g = and([f.clone(), eq(y, y)]);
        assert_eq!(g.free_vars(), vec![x, y]);
    }

    #[test]
    fn max_var_covers_bound() {
        let f = exists(var(5), edge(var(0), var(5)));
        assert_eq!(f.max_var(), Some(var(5)));
        assert_eq!(Formula::True.max_var(), None);
    }

    #[test]
    fn size_counts_nodes() {
        let f = exists(var(0), and([Formula::True, not(leaf(var(0)))]));
        // exists + and + true + not + atom = 5
        assert_eq!(f.size(), 5);
    }

    #[test]
    fn quantifier_free_detection() {
        let qf = and([leaf(var(0)), not(root(var(0)))]);
        assert!(qf.is_quantifier_free());
        assert!(!exists(var(0), qf.clone()).is_quantifier_free());
        assert!(!forall(var(1), qf).is_quantifier_free());
    }

    #[test]
    fn extra_predicate_detection() {
        assert!(leaf(var(0)).uses_extra_predicates());
        assert!(!edge(var(0), var(1)).uses_extra_predicates());
        assert!(exists(var(0), succ(var(0), var(1))).uses_extra_predicates());
    }

    #[test]
    fn display_is_readable() {
        let mut vocab = Vocab::new();
        let a = vocab.sym("a");
        let at = vocab.attr("v");
        let d = vocab.val_int(3);
        let f = exists(
            var(1),
            and([
                edge(var(0), var(1)),
                lab(Label::Sym(a), var(1)),
                val_const(at, var(1), d),
            ]),
        );
        let s = f.display(&vocab);
        assert!(s.contains("∃x1"), "{s}");
        assert!(s.contains("O_a(x1)"), "{s}");
        assert!(s.contains("val_v(x1) = 3"), "{s}");
    }

    #[test]
    fn exists_many_order() {
        let f = exists_many([var(0), var(1)], eq(var(0), var(1)));
        match f {
            Formula::Exists(v, inner) => {
                assert_eq!(v, var(0));
                assert!(matches!(*inner, Formula::Exists(w, _) if w == var(1)));
            }
            _ => panic!("expected exists"),
        }
    }
}
