//! Relational storage and the FO logic that manipulates it (Section 3).
//!
//! A `tw^{r,l}` automaton owns relation names `X̄ = X₁,…,X_k` of fixed
//! arities, interpreted by finite relations over `D`. Guards `ξ` and
//! register updates `ψ` are FO formulas over the vocabulary
//! `X̄ ∪ {a : a ∈ A} ∪ {d : d ∈ D}` where each attribute name `a` is a
//! *constant* denoting `val_a(u)` at the current node `u`, and each `d` is
//! a constant denoting itself. Quantification is over the **active domain**
//! of the store (plus the interpreted constants) — "there is no access to
//! the tree structure".
//!
//! ## Representation
//!
//! A [`Relation`] is one vector of values: its tuples, sorted
//! lexicographically and deduplicated, laid end to end (stride = arity),
//! plus a tuple count, the only field that tells `{}` from `{()}` at arity
//! 0. Data values are only ever compared for equality; the order of their
//! interned ids just makes each relation canonical, so membership is a
//! binary search, a union is one merge, and equal sets are equal vectors.
//! Relations compare by arity, then by their tuple sequences
//! lexicographically, and iterate in that order. Copying a store into one
//! that already holds registers (`clone_from`) reuses their buffers.
//!
//! ## Evaluation
//!
//! [`eval_guard`] and [`eval_query`] bind variables in frames on the call
//! stack and read attributes through an [`AttrEnv`] view of the current
//! node. The active domain is built only where a query needs it:
//!
//! * a guard never builds it. A quantifier walks the registers' values,
//!   the formula's constants and the values of its attributes in place,
//!   repeats included, which neither `∃` nor `∀` can tell apart; a
//!   quantifier-free guard never touches it. A guard allocates nothing.
//! * an atom `X_i(t̄)` is a binary search against the terms' values, with
//!   no tuple built;
//! * the single-value update `x = t` (Definition 5.1, `t` an attribute or
//!   a constant) is `{t}`;
//! * any other query builds the sorted domain once and enumerates it per
//!   free variable, so its tuples arrive in order and each is appended.

use std::cmp::Ordering;
use std::fmt;

use twq_tree::{AttrId, NodeId, Tree, Value, Vocab};

use crate::fo::Var;

/// A register index (`X_{i+1}` in the paper's 1-based naming).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegId(pub u8);

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0 as usize + 1)
    }
}

/// A finite relation over `D` with a fixed arity: its tuples, sorted
/// lexicographically and deduplicated, laid end to end in one vector (see
/// the module docs), so equality, hashing, and set operations are
/// canonical.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub struct Relation {
    arity: usize,
    /// The number of tuples. At arity 0 it is the only field that tells `{}`
    /// from `{()}`.
    len: usize,
    /// The tuples in ascending order, `arity` values each.
    data: Vec<Value>,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            len: self.len,
            data: self.data.clone(),
        }
    }

    /// Reuses `self`'s buffer: copying a register into a store that held
    /// one of the same size allocates nothing.
    fn clone_from(&mut self, src: &Self) {
        self.arity = src.arity;
        self.len = src.len;
        self.data.clone_from(&src.data);
    }
}

impl PartialOrd for Relation {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Relation {
    /// Arity first, then the tuple sequences lexicographically. At a fixed
    /// positive arity that is the order of the flat vectors, since every
    /// tuple has the same width; at arity 0 both vectors are empty and
    /// `{} < {()}`.
    fn cmp(&self, other: &Self) -> Ordering {
        self.arity
            .cmp(&other.arity)
            .then_with(|| self.data.cmp(&other.data))
            .then_with(|| self.len.cmp(&other.len))
    }
}

impl Relation {
    /// The empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        Relation {
            arity,
            len: 0,
            data: Vec::new(),
        }
    }

    /// A unary singleton `{d}` — the shape `tw^l` registers are limited to.
    pub fn singleton(d: Value) -> Self {
        Relation {
            arity: 1,
            len: 1,
            data: vec![d],
        }
    }

    /// Build from tuples; all must have the given arity.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Vec<Value>>) -> Self {
        let mut ts: Vec<Vec<Value>> = tuples.into_iter().collect();
        for t in &ts {
            assert_eq!(t.len(), arity, "tuple arity mismatch");
        }
        ts.sort_unstable();
        ts.dedup();
        Relation {
            arity,
            len: ts.len(),
            data: ts.concat(),
        }
    }

    /// The arity.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tuple `i` (`i < len`).
    #[inline]
    fn tuple(&self, i: usize) -> &[Value] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Binary search by `cmp`, which orders a stored tuple against the
    /// one sought: `Ok(i)` if tuple `i` matches, else `Err(i)` where it
    /// would be inserted.
    fn search_by(&self, mut cmp: impl FnMut(&[Value]) -> Ordering) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp(self.tuple(mid)) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Insert a tuple.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn insert(&mut self, tuple: Vec<Value>) {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        if let Err(i) = self.search_by(|t| t.cmp(&tuple)) {
            let at = i * self.arity;
            self.data.splice(at..at, tuple);
            self.len += 1;
        }
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        tuple.len() == self.arity && self.search_by(|t| t.cmp(tuple)).is_ok()
    }

    /// Iterate over tuples in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.len).map(|i| self.tuple(i))
    }

    /// Union with another relation of the same arity (the `atp` combiner):
    /// one merge, from the back, in `self`'s own buffer.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn union_with(&mut self, other: &Relation) {
        assert_eq!(self.arity, other.arity, "union arity mismatch");
        let a = self.arity;
        if a == 0 {
            self.len = self.len.max(other.len);
            return;
        }
        let (mut i, mut j, mut w) = (self.len, other.len, self.len + other.len);
        self.data.resize(w * a, Value::BOT);
        // `w ≥ i + j` throughout, so a write never lands on a tuple of
        // `self` that is still to be read.
        while j > 0 {
            let t = other.tuple(j - 1);
            let ord = match i {
                0 => Ordering::Less,
                _ => self.data[(i - 1) * a..i * a].cmp(t),
            };
            w -= 1;
            if ord == Ordering::Less {
                self.data[w * a..(w + 1) * a].copy_from_slice(t);
                j -= 1;
            } else {
                self.data.copy_within((i - 1) * a..i * a, w * a);
                i -= 1;
                j -= usize::from(ord == Ordering::Equal);
            }
        }
        // Tuples `[0, i)` of `self` are in place; close the gap duplicates
        // left before the merged tail `[w, ·)`.
        let end = self.data.len();
        self.data.copy_within(w * a..end, i * a);
        self.len = i + end / a - w;
        self.data.truncate(self.len * a);
    }

    /// All values occurring in any tuple.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.data.iter().copied()
    }

    /// If this is a unary singleton, its value.
    pub fn as_singleton(&self) -> Option<Value> {
        if self.arity == 1 && self.len == 1 {
            Some(self.data[0])
        } else {
            None
        }
    }

    /// Render with the given vocabulary.
    pub fn display(&self, vocab: &Vocab) -> String {
        let mut parts = Vec::with_capacity(self.len());
        for t in self.iter() {
            let vals: Vec<String> = t.iter().map(|&v| vocab.value_display(v)).collect();
            parts.push(format!("({})", vals.join(",")));
        }
        format!("{{{}}}", parts.join(", "))
    }
}

/// The relational store `τ` of an automaton: one relation per register.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Store {
    regs: Vec<Relation>,
}

impl Clone for Store {
    fn clone(&self) -> Self {
        Store {
            regs: self.regs.clone(),
        }
    }

    /// Reuses `self`'s register buffers (see [`Relation::clone_from`]).
    fn clone_from(&mut self, src: &Self) {
        self.regs.clone_from(&src.regs);
    }
}

impl Store {
    /// A store with the given register arities, all registers empty.
    pub fn with_arities(arities: &[usize]) -> Self {
        Store {
            regs: arities.iter().map(|&a| Relation::empty(a)).collect(),
        }
    }

    /// Number of registers (`k`).
    pub fn reg_count(&self) -> usize {
        self.regs.len()
    }

    /// Read register `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn get(&self, i: RegId) -> &Relation {
        &self.regs[i.0 as usize]
    }

    /// Replace register `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the arity changes.
    pub fn set(&mut self, i: RegId, rel: Relation) {
        let slot = &mut self.regs[i.0 as usize];
        assert_eq!(slot.arity(), rel.arity(), "register arity is fixed");
        *slot = rel;
    }

    /// The arity of register `i`.
    pub fn arity(&self, i: RegId) -> usize {
        self.regs[i.0 as usize].arity()
    }

    /// Active domain of the store: every value in every register, sorted
    /// and deduplicated.
    pub fn active_domain(&self) -> Vec<Value> {
        let mut vals: Vec<Value> = self.values().collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// Every value in every register, in register order, repeats included.
    fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.regs.iter().flat_map(Relation::values)
    }

    /// Total number of tuples across registers (a space measure for the
    /// PSPACE experiments).
    pub fn total_tuples(&self) -> usize {
        self.regs.iter().map(Relation::len).sum()
    }
}

/// A term of the store logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum STerm {
    /// A first-order variable ranging over the active domain.
    Var(Var),
    /// The constant `a` — interpreted as `val_a(u)` at the current node.
    Attr(AttrId),
    /// The constant `d ∈ D ∪ {⊥}` — interpreted as itself.
    Const(Value),
}

/// An atomic formula of the store logic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SAtom {
    /// `X_i(t̄)`.
    Rel(RegId, Vec<STerm>),
    /// `t₁ = t₂`.
    Eq(STerm, STerm),
}

/// An FO formula over the store vocabulary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SFormula {
    /// The constant true.
    True,
    /// The constant false.
    False,
    /// An atom.
    Atom(SAtom),
    /// Negation.
    Not(Box<SFormula>),
    /// n-ary conjunction.
    And(Vec<SFormula>),
    /// n-ary disjunction.
    Or(Vec<SFormula>),
    /// Existential quantification over the active domain.
    Exists(Var, Box<SFormula>),
    /// Universal quantification over the active domain.
    Forall(Var, Box<SFormula>),
}

impl SFormula {
    /// Free variables, sorted and deduplicated. The sorted order also fixes
    /// the column order of relations computed by [`eval_query`].
    pub fn free_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_free(&self, bound: &mut Vec<Var>, out: &mut Vec<Var>) {
        match self {
            SFormula::True | SFormula::False => {}
            SFormula::Atom(a) => {
                let terms: Vec<&STerm> = match a {
                    SAtom::Rel(_, ts) => ts.iter().collect(),
                    SAtom::Eq(s, t) => vec![s, t],
                };
                for t in terms {
                    if let STerm::Var(v) = t {
                        if !bound.contains(v) {
                            out.push(*v);
                        }
                    }
                }
            }
            SFormula::Not(f) => f.collect_free(bound, out),
            SFormula::And(fs) | SFormula::Or(fs) => {
                for f in fs {
                    f.collect_free(bound, out);
                }
            }
            SFormula::Exists(v, f) | SFormula::Forall(v, f) => {
                bound.push(*v);
                f.collect_free(bound, out);
                bound.pop();
            }
        }
    }

    /// Constants `d` mentioned in the formula.
    pub fn constants(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.any_term(&mut |t| {
            if let STerm::Const(d) = t {
                out.push(*d);
            }
            false
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Attribute constants mentioned in the formula.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut out = Vec::new();
        self.any_term(&mut |t| {
            if let STerm::Attr(a) = t {
                out.push(*a);
            }
            false
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether `f` holds for some term, visited in syntactic order; stops
    /// at the first.
    fn any_term(&self, f: &mut impl FnMut(&STerm) -> bool) -> bool {
        match self {
            SFormula::True | SFormula::False => false,
            SFormula::Atom(SAtom::Rel(_, ts)) => ts.iter().any(&mut *f),
            SFormula::Atom(SAtom::Eq(s, t)) => f(s) || f(t),
            SFormula::Not(g) | SFormula::Exists(_, g) | SFormula::Forall(_, g) => g.any_term(f),
            SFormula::And(gs) | SFormula::Or(gs) => gs.iter().any(|g| g.any_term(f)),
        }
    }

    /// Whether the formula has no free variables. Allocates nothing.
    fn is_sentence(&self) -> bool {
        self.closed_under(None)
    }

    /// Whether every variable is bound, by a quantifier or in `bound`
    /// (whose values are not read).
    fn closed_under(&self, bound: Option<&Frame<'_>>) -> bool {
        let closed = |t: &STerm| !matches!(t, STerm::Var(v) if lookup(bound, *v).is_none());
        match self {
            SFormula::True | SFormula::False => true,
            SFormula::Atom(SAtom::Rel(_, ts)) => ts.iter().all(closed),
            SFormula::Atom(SAtom::Eq(s, t)) => closed(s) && closed(t),
            SFormula::Not(g) => g.closed_under(bound),
            SFormula::And(gs) | SFormula::Or(gs) => gs.iter().all(|g| g.closed_under(bound)),
            SFormula::Exists(v, g) | SFormula::Forall(v, g) => {
                let bind = Frame {
                    var: *v,
                    val: Value::BOT,
                    up: bound,
                };
                g.closed_under(Some(&bind))
            }
        }
    }

    /// Registers mentioned in the formula.
    pub fn registers(&self) -> Vec<RegId> {
        let mut out = Vec::new();
        self.walk_atoms(&mut |a| {
            if let SAtom::Rel(r, _) = a {
                out.push(*r);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    fn walk_atoms(&self, f: &mut impl FnMut(&SAtom)) {
        match self {
            SFormula::True | SFormula::False => {}
            SFormula::Atom(a) => f(a),
            SFormula::Not(g) => g.walk_atoms(f),
            SFormula::And(gs) | SFormula::Or(gs) => {
                for g in gs {
                    g.walk_atoms(f);
                }
            }
            SFormula::Exists(_, g) | SFormula::Forall(_, g) => g.walk_atoms(f),
        }
    }

    /// Whether the formula is quantifier-free (required for `tw^l` and `TW`
    /// updates, Definition 5.1).
    pub fn is_quantifier_free(&self) -> bool {
        match self {
            SFormula::True | SFormula::False | SFormula::Atom(_) => true,
            SFormula::Not(f) => f.is_quantifier_free(),
            SFormula::And(fs) | SFormula::Or(fs) => fs.iter().all(SFormula::is_quantifier_free),
            SFormula::Exists(_, _) | SFormula::Forall(_, _) => false,
        }
    }

    /// Render with the given vocabulary.
    pub fn display(&self, vocab: &Vocab) -> String {
        let term = |t: &STerm| -> String {
            match t {
                STerm::Var(x) => x.to_string(),
                STerm::Attr(a) => vocab.attr_name(*a).to_owned(),
                STerm::Const(d) => vocab.value_display(*d),
            }
        };
        match self {
            SFormula::True => "true".into(),
            SFormula::False => "false".into(),
            SFormula::Atom(SAtom::Eq(a, b)) => format!("{} = {}", term(a), term(b)),
            SFormula::Atom(SAtom::Rel(r, ts)) => {
                let args: Vec<String> = ts.iter().map(term).collect();
                format!("{r}({})", args.join(","))
            }
            SFormula::Not(f) => format!("¬({})", f.display(vocab)),
            SFormula::And(fs) => {
                if fs.is_empty() {
                    "true".into()
                } else {
                    fs.iter()
                        .map(|f| format!("({})", f.display(vocab)))
                        .collect::<Vec<_>>()
                        .join(" ∧ ")
                }
            }
            SFormula::Or(fs) => {
                if fs.is_empty() {
                    "false".into()
                } else {
                    fs.iter()
                        .map(|f| format!("({})", f.display(vocab)))
                        .collect::<Vec<_>>()
                        .join(" ∨ ")
                }
            }
            SFormula::Exists(x, f) => format!("∃{x} ({})", f.display(vocab)),
            SFormula::Forall(x, f) => format!("∀{x} ({})", f.display(vocab)),
        }
    }

    /// Syntactic size (the `|ξ|` of Definition 3.1).
    pub fn size(&self) -> usize {
        match self {
            SFormula::True | SFormula::False | SFormula::Atom(_) => 1,
            SFormula::Not(f) => 1 + f.size(),
            SFormula::And(fs) | SFormula::Or(fs) => {
                1 + fs.iter().map(SFormula::size).sum::<usize>()
            }
            SFormula::Exists(_, f) | SFormula::Forall(_, f) => 1 + f.size(),
        }
    }
}

/// The interpretation of attribute constants at the current node: a view
/// of that node's attribute columns (missing attributes read `⊥`). Taking
/// one copies nothing.
#[derive(Debug, Clone, Default)]
pub struct AttrEnv<'t> {
    /// The node whose columns are read, for [`AttrEnv::of`].
    at: Option<(&'t Tree, NodeId)>,
    /// Values by attribute id, for [`AttrEnv::from_pairs`].
    vals: Vec<Value>,
}

impl<'t> AttrEnv<'t> {
    /// The attribute environment of node `u` in `tree`.
    pub fn of(tree: &'t Tree, u: NodeId) -> Self {
        AttrEnv {
            at: Some((tree, u)),
            vals: Vec::new(),
        }
    }

    /// An environment from explicit pairs (testing convenience).
    pub fn from_pairs(pairs: &[(AttrId, Value)]) -> Self {
        let mut vals = Vec::new();
        for &(a, v) in pairs {
            let i = a.0 as usize;
            if i >= vals.len() {
                vals.resize(i + 1, Value::BOT);
            }
            vals[i] = v;
        }
        AttrEnv { at: None, vals }
    }

    /// The value of attribute `a` (`⊥` when unset).
    #[inline]
    pub fn get(&self, a: AttrId) -> Value {
        match self.at {
            Some((tree, u)) => tree.attr(u, a),
            None => self.vals.get(a.0 as usize).copied().unwrap_or(Value::BOT),
        }
    }
}

/// The sorted, deduplicated active domain of `formula` at `store` and
/// `env`: every register value, every constant, and the value of every
/// attribute the formula mentions.
fn active_domain(store: &Store, env: &AttrEnv, formula: &SFormula) -> Vec<Value> {
    let mut dom: Vec<Value> = store.values().collect();
    formula.any_term(&mut |t| {
        match t {
            STerm::Var(_) => {}
            STerm::Attr(a) => dom.push(env.get(*a)),
            STerm::Const(d) => dom.push(*d),
        }
        false
    });
    dom.sort_unstable();
    dom.dedup();
    dom
}

/// The binding of one variable, chained to those of the enclosing
/// quantifiers on the call stack, so an assignment allocates nothing. The
/// innermost binding of a variable shadows the outer ones.
struct Frame<'f> {
    var: Var,
    val: Value,
    up: Option<&'f Frame<'f>>,
}

fn lookup(mut asg: Option<&Frame<'_>>, v: Var) -> Option<Value> {
    while let Some(f) = asg {
        if f.var == v {
            return Some(f.val);
        }
        asg = f.up;
    }
    None
}

/// One evaluation of a guard or an update.
struct Eval<'a> {
    store: &'a Store,
    env: &'a AttrEnv<'a>,
    /// The formula evaluated: its constants and attributes join the domain.
    root: &'a SFormula,
    /// The sorted active domain, when it was built; `None` walks it in
    /// place, repeats included, which neither `∃` nor `∀` can tell apart.
    dom: Option<&'a [Value]>,
}

impl Eval<'_> {
    fn term(&self, t: &STerm, asg: Option<&Frame<'_>>) -> Value {
        match t {
            STerm::Var(v) => {
                lookup(asg, *v).unwrap_or_else(|| panic!("unbound store variable {v}"))
            }
            STerm::Attr(a) => self.env.get(*a),
            STerm::Const(d) => *d,
        }
    }

    /// Whether `f` holds for some value of the active domain.
    fn any_in_domain(&self, mut f: impl FnMut(Value) -> bool) -> bool {
        if let Some(dom) = self.dom {
            return dom.iter().any(|&d| f(d));
        }
        self.store.values().any(&mut f)
            || self.root.any_term(&mut |t| match t {
                STerm::Var(_) => false,
                STerm::Attr(a) => f(self.env.get(*a)),
                STerm::Const(d) => f(*d),
            })
    }

    fn holds(&self, formula: &SFormula, asg: Option<&Frame<'_>>) -> bool {
        match formula {
            SFormula::True => true,
            SFormula::False => false,
            SFormula::Atom(SAtom::Eq(s, t)) => self.term(s, asg) == self.term(t, asg),
            SFormula::Atom(SAtom::Rel(r, ts)) => {
                // Binary search against the terms' values, with no tuple
                // built.
                let rel = self.store.get(*r);
                ts.len() == rel.arity()
                    && rel
                        .search_by(|tuple| {
                            (tuple.iter().zip(ts))
                                .map(|(d, t)| d.cmp(&self.term(t, asg)))
                                .find(|o| o.is_ne())
                                .unwrap_or(Ordering::Equal)
                        })
                        .is_ok()
            }
            SFormula::Not(f) => !self.holds(f, asg),
            SFormula::And(fs) => fs.iter().all(|f| self.holds(f, asg)),
            SFormula::Or(fs) => fs.iter().any(|f| self.holds(f, asg)),
            SFormula::Exists(v, f) => self.any_in_domain(|d| {
                let bind = Frame {
                    var: *v,
                    val: d,
                    up: asg,
                };
                self.holds(f, Some(&bind))
            }),
            SFormula::Forall(v, f) => !self.any_in_domain(|d| {
                let bind = Frame {
                    var: *v,
                    val: d,
                    up: asg,
                };
                !self.holds(f, Some(&bind))
            }),
        }
    }

    /// Bind `free[i..]` to every domain value in turn and append each
    /// satisfying tuple. The domain is sorted and deduplicated and the
    /// columns are bound in order, so tuples arrive ascending and distinct.
    fn fill(
        &self,
        free: &[Var],
        i: usize,
        asg: Option<&Frame<'_>>,
        tuple: &mut [Value],
        out: &mut Relation,
    ) {
        let Some(&var) = free.get(i) else {
            if self.holds(self.root, asg) {
                out.data.extend_from_slice(tuple);
                out.len += 1;
            }
            return;
        };
        for &d in self.dom.expect("a query enumerates a built domain") {
            tuple[i] = d;
            let bind = Frame {
                var,
                val: d,
                up: asg,
            };
            self.fill(free, i + 1, Some(&bind), tuple, out);
        }
    }
}

/// Evaluate a store *sentence* (a guard `ξ`). Allocates nothing: `true`
/// returns at once, and quantifiers walk the active domain in place.
///
/// # Panics
/// Panics if the formula has free variables.
pub fn eval_guard(store: &Store, env: &AttrEnv, formula: &SFormula) -> bool {
    assert!(
        formula.is_sentence(),
        "guards must be sentences; free vars: {:?}",
        formula.free_vars()
    );
    let ev = Eval {
        store,
        env,
        root: formula,
        dom: None,
    };
    ev.holds(formula, None)
}

/// Evaluate a store query `ψ(x̄)`: the relation
/// `{ d̄ | ψ(d̄) holds }` with columns ordered by ascending variable index.
/// This is the register-update primitive (Definition 3.1, form 2).
///
/// The single-value update `x = t` (Definition 5.1), with `t` an attribute
/// or a constant, is `{t}` without a domain; any other query enumerates
/// the sorted active domain once per free variable.
pub fn eval_query(store: &Store, env: &AttrEnv, formula: &SFormula) -> Relation {
    if let SFormula::Atom(SAtom::Eq(STerm::Var(_), t) | SAtom::Eq(t, STerm::Var(_))) = formula {
        match t {
            STerm::Var(_) => {}
            STerm::Attr(a) => return Relation::singleton(env.get(*a)),
            STerm::Const(d) => return Relation::singleton(*d),
        }
    }
    let free = formula.free_vars();
    let dom = active_domain(store, env, formula);
    let ev = Eval {
        store,
        env,
        root: formula,
        dom: Some(&dom),
    };
    let mut out = Relation::empty(free.len());
    let mut tuple = vec![Value::BOT; free.len()];
    ev.fill(&free, 0, None, &mut tuple, &mut out);
    out
}

/// Ergonomic constructors for store formulas.
pub mod sbuild {
    use super::*;

    /// Variable term.
    pub fn v(n: u16) -> STerm {
        STerm::Var(Var(n))
    }

    /// Attribute-constant term (`val_a(current)`).
    pub fn attr(a: AttrId) -> STerm {
        STerm::Attr(a)
    }

    /// Constant term.
    pub fn cst(d: Value) -> STerm {
        STerm::Const(d)
    }

    /// `X_i(t̄)`.
    pub fn rel(i: RegId, ts: impl IntoIterator<Item = STerm>) -> SFormula {
        SFormula::Atom(SAtom::Rel(i, ts.into_iter().collect()))
    }

    /// `s = t`.
    pub fn eq(s: STerm, t: STerm) -> SFormula {
        SFormula::Atom(SAtom::Eq(s, t))
    }

    /// Negation.
    pub fn not(f: SFormula) -> SFormula {
        SFormula::Not(Box::new(f))
    }

    /// Conjunction.
    pub fn and(fs: impl IntoIterator<Item = SFormula>) -> SFormula {
        SFormula::And(fs.into_iter().collect())
    }

    /// Disjunction.
    pub fn or(fs: impl IntoIterator<Item = SFormula>) -> SFormula {
        SFormula::Or(fs.into_iter().collect())
    }

    /// Implication.
    pub fn implies(a: SFormula, b: SFormula) -> SFormula {
        or([not(a), b])
    }

    /// `∃x f`.
    pub fn exists(x: Var, f: SFormula) -> SFormula {
        SFormula::Exists(x, Box::new(f))
    }

    /// `∀x f`.
    pub fn forall(x: Var, f: SFormula) -> SFormula {
        SFormula::Forall(x, Box::new(f))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::sbuild::*;
    use super::*;
    use crate::fo::Var;

    fn vals(vocab: &mut Vocab, ns: &[i64]) -> Vec<Value> {
        ns.iter().map(|&n| vocab.val_int(n)).collect()
    }

    #[test]
    fn relation_basics() {
        let mut vocab = Vocab::new();
        let d = vals(&mut vocab, &[1, 2, 3]);
        let mut r = Relation::empty(2);
        r.insert(vec![d[0], d[1]]);
        r.insert(vec![d[0], d[1]]); // dedup
        r.insert(vec![d[1], d[2]]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[d[0], d[1]]));
        assert!(!r.contains(&[d[1], d[0]]));
        assert!(!r.contains(&[d[0]]));
        let s = Relation::singleton(d[2]);
        assert_eq!(s.as_singleton(), Some(d[2]));
        assert_eq!(r.as_singleton(), None);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn relation_rejects_bad_arity() {
        let mut vocab = Vocab::new();
        let d = vals(&mut vocab, &[1]);
        let mut r = Relation::empty(2);
        r.insert(vec![d[0]]);
    }

    #[test]
    fn union_accumulates() {
        let mut vocab = Vocab::new();
        let d = vals(&mut vocab, &[1, 2]);
        let mut a = Relation::singleton(d[0]);
        let b = Relation::singleton(d[1]);
        a.union_with(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn store_active_domain() {
        let mut vocab = Vocab::new();
        let d = vals(&mut vocab, &[5, 6]);
        let mut st = Store::with_arities(&[1, 2]);
        st.set(RegId(0), Relation::singleton(d[0]));
        st.set(RegId(1), Relation::from_tuples(2, [vec![d[0], d[1]]]));
        assert_eq!(st.active_domain(), {
            let mut v = vec![d[0], d[1]];
            v.sort_unstable();
            v
        });
        assert_eq!(st.total_tuples(), 2);
    }

    #[test]
    fn guard_singleton_check() {
        // The paper's Example 3.2 guard:
        //   ξ ≡ ∀x∀y (X₁(x) ∧ X₁(y) → x = y)  — "X₁ is (at most) a singleton".
        let mut vocab = Vocab::new();
        let d = vals(&mut vocab, &[1, 2]);
        let x = Var(0);
        let y = Var(1);
        let xi = forall(
            x,
            forall(
                y,
                implies(
                    and([rel(RegId(0), [v(0)]), rel(RegId(0), [v(1)])]),
                    eq(v(0), v(1)),
                ),
            ),
        );
        let env = AttrEnv::default();
        let mut st = Store::with_arities(&[1]);
        assert!(eval_guard(&st, &env, &xi)); // empty: vacuously true
        st.set(RegId(0), Relation::singleton(d[0]));
        assert!(eval_guard(&st, &env, &xi));
        st.set(RegId(0), Relation::from_tuples(1, [vec![d[0]], vec![d[1]]]));
        assert!(!eval_guard(&st, &env, &xi));
    }

    #[test]
    fn query_computes_relation() {
        // ψ(x) = X₁(x) ∧ ¬(x = d₁): filter out a constant.
        let mut vocab = Vocab::new();
        let d = vals(&mut vocab, &[1, 2, 3]);
        let mut st = Store::with_arities(&[1]);
        st.set(
            RegId(0),
            Relation::from_tuples(1, d.iter().map(|&x| vec![x])),
        );
        let psi = and([rel(RegId(0), [v(0)]), not(eq(v(0), cst(d[0])))]);
        let env = AttrEnv::default();
        let r = eval_query(&st, &env, &psi);
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&[d[0]]));
    }

    #[test]
    fn attr_constant_reads_current_node() {
        // ψ(x) = (x = a): the singleton holding the current a-attribute —
        // the paper's "x = a … defines the set containing the value of the
        // a attribute of the current node" (Example 3.2, rules 5 and 6).
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let d7 = vocab.val_int(7);
        let env = AttrEnv::from_pairs(&[(a, d7)]);
        let st = Store::with_arities(&[1]);
        let psi = eq(v(0), attr(a));
        let r = eval_query(&st, &env, &psi);
        assert_eq!(r.as_singleton(), Some(d7));
    }

    #[test]
    fn quantifiers_range_over_active_domain_only() {
        // ∃x ¬(x = d₁) is false when the active domain is exactly {d₁}.
        let mut vocab = Vocab::new();
        let d = vals(&mut vocab, &[1, 2]);
        let mut st = Store::with_arities(&[1]);
        st.set(RegId(0), Relation::singleton(d[0]));
        let env = AttrEnv::default();
        let f = exists(Var(0), not(eq(v(0), cst(d[0]))));
        assert!(!eval_guard(&st, &env, &f));
        // Adding d₂ to the store makes it true.
        st.set(RegId(0), Relation::from_tuples(1, [vec![d[0]], vec![d[1]]]));
        assert!(eval_guard(&st, &env, &f));
    }

    #[test]
    fn query_with_two_free_vars_orders_columns() {
        // ψ(x0, x1) = X₁(x0, x1): copies the register.
        let mut vocab = Vocab::new();
        let d = vals(&mut vocab, &[1, 2]);
        let mut st = Store::with_arities(&[2]);
        st.set(RegId(0), Relation::from_tuples(2, [vec![d[0], d[1]]]));
        let env = AttrEnv::default();
        let psi = rel(RegId(0), [v(0), v(1)]);
        let r = eval_query(&st, &env, &psi);
        assert!(r.contains(&[d[0], d[1]]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn formula_introspection() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let d = vocab.val_int(1);
        let f = exists(
            Var(0),
            and([rel(RegId(1), [v(0), attr(a)]), eq(v(1), cst(d))]),
        );
        assert_eq!(f.free_vars(), vec![Var(1)]);
        assert_eq!(f.constants(), vec![d]);
        assert_eq!(f.attrs(), vec![a]);
        assert_eq!(f.registers(), vec![RegId(1)]);
        assert!(!f.is_quantifier_free());
        assert!(f.size() >= 4);
    }

    #[test]
    fn display_renders_readably() {
        let mut vocab = Vocab::new();
        let a = vocab.attr("a");
        let d = vocab.val_int(3);
        let f = forall(
            Var(0),
            implies(
                rel(RegId(0), [v(0)]),
                or([eq(v(0), cst(d)), eq(v(0), attr(a))]),
            ),
        );
        let shown = f.display(&vocab);
        assert!(shown.contains("∀x0"), "{shown}");
        assert!(shown.contains("X1(x0)"), "{shown}");
        assert!(shown.contains("= 3"), "{shown}");
        assert!(shown.contains("= a"), "{shown}");
    }

    /// Cases per reference-model test: fewer under the Miri interpreter,
    /// which runs this crate's unit tests in CI.
    const CASES: usize = if cfg!(miri) { 40 } else { 240 };

    /// Values `⊥, 1, 2, 3`: the reference-model tests' whole universe.
    fn universe() -> [Value; 4] {
        [Value::BOT, Value(1), Value(2), Value(3)]
    }

    fn random_tuple(rng: &mut StdRng, arity: usize) -> Vec<Value> {
        (0..arity)
            .map(|_| universe()[rng.gen_range(0..4usize)])
            .collect()
    }

    /// A relation and its model, from up to five random inserts.
    fn random_relation(rng: &mut StdRng, arity: usize) -> (Relation, BTreeSet<Vec<Value>>) {
        let mut r = Relation::empty(arity);
        let mut m = BTreeSet::new();
        for _ in 0..rng.gen_range(0..6) {
            let t = random_tuple(rng, arity);
            r.insert(t.clone());
            m.insert(t);
        }
        (r, m)
    }

    fn assert_models(r: &Relation, m: &BTreeSet<Vec<Value>>) {
        let arity = r.arity();
        assert_eq!(r.len(), m.len());
        assert_eq!(r.is_empty(), m.is_empty());
        let tuples: Vec<Vec<Value>> = r.iter().map(<[Value]>::to_vec).collect();
        assert_eq!(tuples, m.iter().cloned().collect::<Vec<_>>());
        let single = match (arity, m.len()) {
            (1, 1) => m.first().map(|t| t[0]),
            _ => None,
        };
        assert_eq!(r.as_singleton(), single);
        // Every tuple of the universe at this arity, and one too wide.
        for code in 0..4usize.pow(arity as u32) {
            let t: Vec<Value> = (0..arity)
                .map(|i| universe()[code / 4usize.pow(i as u32) % 4])
                .collect();
            assert_eq!(r.contains(&t), m.contains(&t), "{t:?}");
        }
        assert!(!r.contains(&vec![Value(1); arity + 1]));
        assert_eq!(*r, Relation::from_tuples(arity, m.iter().cloned()));
    }

    /// `Relation` agrees with a `BTreeSet<Vec<Value>>` model at arities
    /// 0–3: membership, iteration order, size, singletons, union, and the
    /// order (arity first, then the tuple sequences).
    #[test]
    fn relation_agrees_with_a_set_model() {
        let mut rng = StdRng::seed_from_u64(20);
        for case in 0..CASES {
            let arity = case % 4;
            let (mut r, mut m) = random_relation(&mut rng, arity);
            let (s, n) = random_relation(&mut rng, arity);
            assert_models(&r, &m);
            assert_eq!(r == s, m == n);
            assert_eq!(r.cmp(&s), m.cmp(&n), "{m:?} vs {n:?}");
            let wider = Relation::empty(arity + 1);
            assert_eq!(r.cmp(&wider), Ordering::Less);
            r.union_with(&s);
            m.extend(n);
            assert_models(&r, &m);
        }
    }

    /// Random store formulas over a unary `X1`, a binary `X2`, a nullary
    /// `X3`, attributes `a`, `b`, the universe's constants and variables
    /// `x0`–`x2`, with `bound` the variables in scope.
    fn random_sformula(rng: &mut StdRng, depth: u32, bound: &mut Vec<Var>) -> SFormula {
        let term = |rng: &mut StdRng, bound: &[Var]| match rng.gen_range(0..5) {
            0 | 1 if !bound.is_empty() => STerm::Var(bound[rng.gen_range(0..bound.len())]),
            0..=2 => STerm::Attr(AttrId(rng.gen_range(0..2))),
            _ => STerm::Const(universe()[rng.gen_range(0..4usize)]),
        };
        if depth == 0 || rng.gen_bool(0.3) {
            return match rng.gen_range(0..7) {
                0 => SFormula::True,
                1 => SFormula::False,
                2 | 3 => eq(term(rng, bound), term(rng, bound)),
                4 => rel(RegId(0), [term(rng, bound)]),
                5 => rel(RegId(1), [term(rng, bound), term(rng, bound)]),
                _ => rel(RegId(2), []),
            };
        }
        match rng.gen_range(0..5) {
            0 => not(random_sformula(rng, depth - 1, bound)),
            1 => and([
                random_sformula(rng, depth - 1, bound),
                random_sformula(rng, depth - 1, bound),
            ]),
            2 => or([
                random_sformula(rng, depth - 1, bound),
                random_sformula(rng, depth - 1, bound),
            ]),
            q => {
                let x = Var(rng.gen_range(0..3));
                bound.push(x);
                let f = random_sformula(rng, depth - 1, bound);
                bound.pop();
                if q == 3 {
                    exists(x, f)
                } else {
                    forall(x, f)
                }
            }
        }
    }

    /// The reference semantics: every formula, quantified or not, over
    /// the full sorted active domain, with a map for the assignment.
    fn reference_holds(
        st: &Store,
        env: &AttrEnv,
        dom: &[Value],
        f: &SFormula,
        asg: &mut std::collections::HashMap<Var, Value>,
    ) -> bool {
        let val = |t: &STerm, asg: &std::collections::HashMap<Var, Value>| match t {
            STerm::Var(v) => asg[v],
            STerm::Attr(a) => env.get(*a),
            STerm::Const(d) => *d,
        };
        let mut quantified = |v: &Var, g: &SFormula, want: bool| {
            let saved = asg.get(v).copied();
            let hit = dom.iter().any(|&d| {
                asg.insert(*v, d);
                reference_holds(st, env, dom, g, asg) == want
            });
            match saved {
                Some(d) => asg.insert(*v, d),
                None => asg.remove(v),
            };
            hit
        };
        match f {
            SFormula::True => true,
            SFormula::False => false,
            SFormula::Atom(SAtom::Eq(s, t)) => val(s, asg) == val(t, asg),
            SFormula::Atom(SAtom::Rel(r, ts)) => {
                let t: Vec<Value> = ts.iter().map(|t| val(t, asg)).collect();
                st.get(*r).contains(&t)
            }
            SFormula::Not(g) => !reference_holds(st, env, dom, g, asg),
            SFormula::And(gs) => gs.iter().all(|g| reference_holds(st, env, dom, g, asg)),
            SFormula::Or(gs) => gs.iter().any(|g| reference_holds(st, env, dom, g, asg)),
            SFormula::Exists(v, g) => quantified(v, g, true),
            SFormula::Forall(v, g) => !quantified(v, g, false),
        }
    }

    fn reference_query(st: &Store, env: &AttrEnv, f: &SFormula) -> Relation {
        let free = f.free_vars();
        let dom = active_domain(st, env, f);
        let mut tuples = Vec::new();
        for code in 0..dom.len().pow(free.len() as u32) {
            let t: Vec<Value> = (0..free.len())
                .map(|i| dom[code / dom.len().pow(i as u32) % dom.len()])
                .collect();
            let mut asg = free.iter().copied().zip(t.iter().copied()).collect();
            if reference_holds(st, env, &dom, f, &mut asg) {
                tuples.push(t);
            }
        }
        Relation::from_tuples(free.len(), tuples)
    }

    /// `eval_guard` and `eval_query` agree with the reference on random
    /// stores, environments and formulas: sentences as guards, and
    /// queries over 0–2 free variables, among them the single-value
    /// updates `x = t`, `t = x`, and `x = x`.
    #[test]
    fn store_logic_agrees_with_the_full_domain_reference() {
        let mut rng = StdRng::seed_from_u64(51);
        let (mut guards, mut quantified) = (0, 0);
        for _ in 0..CASES {
            let mut st = Store::with_arities(&[1, 2, 0]);
            st.set(RegId(0), random_relation(&mut rng, 1).0);
            st.set(RegId(1), random_relation(&mut rng, 2).0);
            st.set(RegId(2), random_relation(&mut rng, 0).0);
            let pick = |rng: &mut StdRng| universe()[rng.gen_range(0..4usize)];
            let env =
                AttrEnv::from_pairs(&[(AttrId(0), pick(&mut rng)), (AttrId(1), pick(&mut rng))]);
            let sentence = random_sformula(&mut rng, 4, &mut Vec::new());
            let dom = active_domain(&st, &env, &sentence);
            let want = reference_holds(&st, &env, &dom, &sentence, &mut Default::default());
            assert_eq!(eval_guard(&st, &env, &sentence), want, "{sentence:?}");
            guards += 1;
            quantified += usize::from(!sentence.is_quantifier_free());

            let free: Vec<Var> = (0..rng.gen_range(0..3)).map(Var).collect();
            let x = STerm::Var(Var(0));
            let t = match rng.gen_range(0..3) {
                0 => STerm::Attr(AttrId(rng.gen_range(0..2))),
                1 => STerm::Const(pick(&mut rng)),
                _ => x,
            };
            let query = match rng.gen_range(0..4) {
                0 => eq(x, t),
                1 => eq(t, x),
                _ => random_sformula(&mut rng, 3, &mut free.clone()),
            };
            assert_eq!(
                eval_query(&st, &env, &query),
                reference_query(&st, &env, &query),
                "{query:?}"
            );
        }
        assert!(quantified > guards / 4, "{quantified} of {guards}");
    }

    #[test]
    fn empty_domain_queries() {
        // With an empty store and no constants, queries over free variables
        // return the empty relation and ∀ is vacuously true.
        let st = Store::with_arities(&[1]);
        let env = AttrEnv::default();
        let psi = eq(v(0), v(0));
        let r = eval_query(&st, &env, &psi);
        assert!(r.is_empty());
        assert!(eval_guard(&st, &env, &forall(Var(0), SFormula::False)));
    }
}
