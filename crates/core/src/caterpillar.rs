//! Caterpillar expressions — the first instance of the tree-walking
//! paradigm the paper's introduction cites (Brüggemann-Klein & Wood, the
//! paper's reference \[7\]).
//!
//! A caterpillar expression is a regular expression over an alphabet of
//! atomic *moves* (`up`, `down` = first child, `left`, `right`) and
//! *tests* (`isRoot`, `isLeaf`, `isFirst`, `isLast`, `label = σ`). It
//! denotes a binary relation on `Dom(t)`: `(u, v)` is in the relation iff
//! some word of the expression's language describes a walk from `u` to
//! `v` (tests don't move; a failing test kills the walk).
//!
//! Caterpillars are the *nondeterministic* cousins of the paper's
//! deterministic `tw` walkers. Evaluation here is the standard product
//! construction: Thompson NFA × tree, reachability over
//! `(node, NFA-state)` pairs — linear in `|t|·|e|`.

use std::collections::VecDeque;

use twq_tree::{Cursor, Label, NodeId, ParseError, Syntax, Tree, Vocab};

/// An atomic move or test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatAtom {
    /// Move to the parent.
    Up,
    /// Move to the first child.
    Down,
    /// Move to the left sibling.
    Left,
    /// Move to the right sibling.
    Right,
    /// Test: the current node is the root.
    IsRoot,
    /// Test: the current node is a leaf.
    IsLeaf,
    /// Test: the current node is a first child.
    IsFirst,
    /// Test: the current node is a last child.
    IsLast,
    /// Test: the current node carries this label.
    LabelIs(Label),
}

impl CatAtom {
    /// Apply the atom at `u`: `Some(target)` (tests stay in place when
    /// they succeed), `None` when the move/test fails.
    pub fn apply(self, tree: &Tree, u: NodeId) -> Option<NodeId> {
        match self {
            CatAtom::Up => tree.parent(u),
            CatAtom::Down => tree.first_child(u),
            CatAtom::Left => tree.prev_sibling(u),
            CatAtom::Right => tree.next_sibling(u),
            CatAtom::IsRoot => tree.is_root(u).then_some(u),
            CatAtom::IsLeaf => tree.is_leaf(u).then_some(u),
            CatAtom::IsFirst => tree.is_first(u).then_some(u),
            CatAtom::IsLast => tree.is_last(u).then_some(u),
            CatAtom::LabelIs(l) => (tree.label(u) == l).then_some(u),
        }
    }
}

/// A caterpillar expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatExpr {
    /// An atom.
    Atom(CatAtom),
    /// The empty walk (matches without moving).
    Epsilon,
    /// Concatenation.
    Seq(Vec<CatExpr>),
    /// Alternation.
    Alt(Vec<CatExpr>),
    /// Kleene star.
    Star(Box<CatExpr>),
    /// One or more.
    Plus(Box<CatExpr>),
    /// Zero or one.
    Opt(Box<CatExpr>),
}

impl CatExpr {
    /// Syntactic size.
    pub fn size(&self) -> usize {
        match self {
            CatExpr::Atom(_) | CatExpr::Epsilon => 1,
            CatExpr::Seq(es) | CatExpr::Alt(es) => 1 + es.iter().map(CatExpr::size).sum::<usize>(),
            CatExpr::Star(e) | CatExpr::Plus(e) | CatExpr::Opt(e) => 1 + e.size(),
        }
    }

    /// Render (parser-compatible for `Sym` labels).
    pub fn display(&self, vocab: &Vocab) -> String {
        match self {
            CatExpr::Atom(a) => match a {
                CatAtom::Up => "up".into(),
                CatAtom::Down => "down".into(),
                CatAtom::Left => "left".into(),
                CatAtom::Right => "right".into(),
                CatAtom::IsRoot => "isRoot".into(),
                CatAtom::IsLeaf => "isLeaf".into(),
                CatAtom::IsFirst => "isFirst".into(),
                CatAtom::IsLast => "isLast".into(),
                CatAtom::LabelIs(l) => format!("#{}", l.display(vocab)),
            },
            CatExpr::Epsilon => "()".into(),
            CatExpr::Seq(es) => es
                .iter()
                .map(|e| match e {
                    CatExpr::Alt(_) => format!("({})", e.display(vocab)),
                    _ => e.display(vocab),
                })
                .collect::<Vec<_>>()
                .join(" "),
            CatExpr::Alt(es) => es
                .iter()
                .map(|e| e.display(vocab))
                .collect::<Vec<_>>()
                .join(" | "),
            CatExpr::Star(e) => format!("({})*", e.display(vocab)),
            CatExpr::Plus(e) => format!("({})+", e.display(vocab)),
            CatExpr::Opt(e) => format!("({})?", e.display(vocab)),
        }
    }
}

/// Ergonomic constructors.
pub mod cat {
    use super::*;

    /// One atom.
    pub fn atom(a: CatAtom) -> CatExpr {
        CatExpr::Atom(a)
    }

    /// Sequence.
    pub fn seq(es: impl IntoIterator<Item = CatExpr>) -> CatExpr {
        CatExpr::Seq(es.into_iter().collect())
    }

    /// Alternation.
    pub fn alt(es: impl IntoIterator<Item = CatExpr>) -> CatExpr {
        CatExpr::Alt(es.into_iter().collect())
    }

    /// Kleene star.
    pub fn star(e: CatExpr) -> CatExpr {
        CatExpr::Star(Box::new(e))
    }

    /// One or more.
    pub fn plus(e: CatExpr) -> CatExpr {
        CatExpr::Plus(Box::new(e))
    }

    /// The "strict descendant" caterpillar: `(down right*)+`.
    pub fn descendants() -> CatExpr {
        plus(seq([atom(CatAtom::Down), star(atom(CatAtom::Right))]))
    }

    /// The "leftmost leaf" caterpillar: `down* isLeaf`.
    pub fn leftmost_leaf() -> CatExpr {
        seq([star(atom(CatAtom::Down)), atom(CatAtom::IsLeaf)])
    }

    /// The classic caterpillar walk: the document-order traversal
    /// footprint `(down | right | isLeaf up)* isRoot`-ish is expressible,
    /// but the *relation* "u to its document-order successor" needs
    /// guarded branches:
    /// `down isFirst | right | (isLast up)+ right` — successor for
    /// non-last inner nodes, with the delimiters of `delim(t)` this is
    /// what `twir::macros::doc_next` walks.
    pub fn doc_successor() -> CatExpr {
        alt([
            seq([atom(CatAtom::Down), atom(CatAtom::IsFirst)]),
            seq([atom(CatAtom::IsLeaf), atom(CatAtom::Right)]),
            seq([
                atom(CatAtom::IsLeaf),
                plus(seq([atom(CatAtom::IsLast), atom(CatAtom::Up)])),
                atom(CatAtom::Right),
            ]),
        ])
    }
}

// ----- Thompson construction + product reachability ----------------------

#[derive(Debug, Clone)]
struct Nfa {
    /// `eps[q]` = ε-successors of q.
    eps: Vec<Vec<usize>>,
    /// `step[q]` = (atom, target) edges of q.
    step: Vec<Vec<(CatAtom, usize)>>,
    start: usize,
    accept: usize,
}

impl Nfa {
    fn new() -> Nfa {
        Nfa {
            eps: Vec::new(),
            step: Vec::new(),
            start: 0,
            accept: 0,
        }
    }

    fn fresh(&mut self) -> usize {
        self.eps.push(Vec::new());
        self.step.push(Vec::new());
        self.eps.len() - 1
    }

    /// Compile `e` with the given entry state; returns the exit state.
    fn compile(&mut self, e: &CatExpr, entry: usize) -> usize {
        match e {
            CatExpr::Atom(a) => {
                let exit = self.fresh();
                self.step[entry].push((*a, exit));
                exit
            }
            CatExpr::Epsilon => entry,
            CatExpr::Seq(es) => {
                let mut cur = entry;
                for sub in es {
                    cur = self.compile(sub, cur);
                }
                cur
            }
            CatExpr::Alt(es) => {
                let exit = self.fresh();
                for sub in es {
                    let sub_entry = self.fresh();
                    self.eps[entry].push(sub_entry);
                    let sub_exit = self.compile(sub, sub_entry);
                    self.eps[sub_exit].push(exit);
                }
                exit
            }
            CatExpr::Star(sub) => {
                let hub = self.fresh();
                self.eps[entry].push(hub);
                let sub_exit = self.compile(sub, hub);
                self.eps[sub_exit].push(hub);
                hub
            }
            CatExpr::Plus(sub) => {
                let first_exit = self.compile(sub, entry);
                let hub = self.fresh();
                self.eps[first_exit].push(hub);
                let rep_exit = self.compile(sub, hub);
                self.eps[rep_exit].push(hub);
                hub
            }
            CatExpr::Opt(sub) => {
                let exit = self.fresh();
                self.eps[entry].push(exit);
                let sub_exit = self.compile(sub, entry);
                self.eps[sub_exit].push(exit);
                exit
            }
        }
    }

    fn build(e: &CatExpr) -> Nfa {
        let mut nfa = Nfa::new();
        let entry = nfa.fresh();
        nfa.start = entry;
        nfa.accept = nfa.compile(e, entry);
        nfa
    }
}

/// All nodes reachable from `start` by a walk matching `e` —
/// `{v | (start, v) ∈ ⟦e⟧}`.
pub fn select(tree: &Tree, e: &CatExpr, start: NodeId) -> Vec<NodeId> {
    let nfa = Nfa::build(e);
    let nstates = nfa.eps.len();
    let idx = |u: NodeId, q: usize| u.0 as usize * nstates + q;
    let mut seen = vec![false; tree.len() * nstates];
    let mut queue = VecDeque::new();
    seen[idx(start, nfa.start)] = true;
    queue.push_back((start, nfa.start));
    let mut out = Vec::new();
    while let Some((u, q)) = queue.pop_front() {
        if q == nfa.accept && !out.contains(&u) {
            out.push(u);
        }
        for &q2 in &nfa.eps[q] {
            if !seen[idx(u, q2)] {
                seen[idx(u, q2)] = true;
                queue.push_back((u, q2));
            }
        }
        for &(a, q2) in &nfa.step[q] {
            if let Some(v) = a.apply(tree, u) {
                if !seen[idx(v, q2)] {
                    seen[idx(v, q2)] = true;
                    queue.push_back((v, q2));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Whether `(u, v) ∈ ⟦e⟧`.
pub fn relates(tree: &Tree, e: &CatExpr, u: NodeId, v: NodeId) -> bool {
    select(tree, e, u).contains(&v)
}

// ----- parser -------------------------------------------------------------

/// Parse the concrete syntax:
///
/// ```text
/// expr   := branch ('|' branch)*
/// branch := factor+                         (juxtaposition = sequence)
/// factor := base ('*' | '+' | '?')*
/// base   := '(' expr ')' | atom
/// atom   := up | down | left | right
///         | isRoot | isLeaf | isFirst | isLast | '#' ident
/// ```
pub fn parse_caterpillar(src: &str, vocab: &mut Vocab) -> Result<CatExpr, ParseError> {
    let mut p = CatP {
        c: Cursor::new(Syntax::Caterpillar, src),
        vocab,
    };
    let e = p.expr()?;
    p.c.end("trailing input")?;
    Ok(e)
}

struct CatP<'s, 'v> {
    c: Cursor<'s>,
    vocab: &'v mut Vocab,
}

impl<'s> CatP<'s, '_> {
    fn expr(&mut self) -> Result<CatExpr, ParseError> {
        let mut branches = vec![self.branch()?];
        loop {
            self.c.skip_ws();
            if self.c.eat(b'|') {
                branches.push(self.branch()?);
            } else {
                break;
            }
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            CatExpr::Alt(branches)
        })
    }

    fn branch(&mut self) -> Result<CatExpr, ParseError> {
        let mut parts = Vec::new();
        loop {
            self.c.skip_ws();
            match self.c.peek() {
                Some(b'|') | Some(b')') | None => break,
                _ => parts.push(self.factor()?),
            }
        }
        match parts.len() {
            0 => Ok(CatExpr::Epsilon),
            1 => Ok(parts.pop().expect("one part")),
            _ => Ok(CatExpr::Seq(parts)),
        }
    }

    fn factor(&mut self) -> Result<CatExpr, ParseError> {
        let mut base = self.base()?;
        loop {
            base = if self.c.eat(b'*') {
                CatExpr::Star(Box::new(base))
            } else if self.c.eat(b'+') {
                CatExpr::Plus(Box::new(base))
            } else if self.c.eat(b'?') {
                CatExpr::Opt(Box::new(base))
            } else {
                return Ok(base);
            };
        }
    }

    fn base(&mut self) -> Result<CatExpr, ParseError> {
        self.c.skip_ws();
        if self.c.eat(b'(') {
            let e = self.expr()?;
            self.c.skip_ws();
            if !self.c.eat(b')') {
                return Err(self.c.error("expected ')'"));
            }
            return Ok(e);
        }
        if self.c.eat(b'#') {
            let name = self.word()?;
            let sym = self.vocab.sym(name);
            return Ok(CatExpr::Atom(CatAtom::LabelIs(Label::Sym(sym))));
        }
        let atom = match self.word()? {
            "up" => CatAtom::Up,
            "down" => CatAtom::Down,
            "left" => CatAtom::Left,
            "right" => CatAtom::Right,
            "isRoot" => CatAtom::IsRoot,
            "isLeaf" => CatAtom::IsLeaf,
            "isFirst" => CatAtom::IsFirst,
            "isLast" => CatAtom::IsLast,
            other => return Err(self.c.error(format!("unknown atom '{other}'"))),
        };
        Ok(CatExpr::Atom(atom))
    }

    /// A name after optional whitespace.
    fn word(&mut self) -> Result<&'s str, ParseError> {
        self.c.skip_ws();
        self.c.name().ok_or_else(|| self.c.error("expected atom"))
    }
}

#[cfg(test)]
mod tests {
    use super::cat::*;
    use super::*;
    use twq_tree::parse_tree;

    fn sample() -> (Vocab, Tree) {
        let mut v = Vocab::new();
        let t = parse_tree("a(b(c,d),e(f))", &mut v).unwrap();
        (v, t)
    }

    #[test]
    fn atoms_move_and_test() {
        let (_, t) = sample();
        let r = t.root();
        let b = t.node_at_path(&[1]).unwrap();
        assert_eq!(CatAtom::Down.apply(&t, r), Some(b));
        assert_eq!(CatAtom::Up.apply(&t, b), Some(r));
        assert_eq!(CatAtom::Up.apply(&t, r), None);
        assert_eq!(CatAtom::IsRoot.apply(&t, r), Some(r));
        assert_eq!(CatAtom::IsRoot.apply(&t, b), None);
        assert_eq!(CatAtom::IsLeaf.apply(&t, b), None);
    }

    #[test]
    fn descendants_caterpillar_equals_desc_relation() {
        let (_, t) = sample();
        let e = descendants();
        for u in t.node_ids() {
            let selected = select(&t, &e, u);
            let expected: Vec<NodeId> = t
                .node_ids()
                .filter(|&v| t.is_strict_ancestor(u, v))
                .collect();
            assert_eq!(selected, expected, "from {u}");
        }
    }

    #[test]
    fn leftmost_leaf_caterpillar() {
        let (_, t) = sample();
        let e = leftmost_leaf();
        // From the root: down* isLeaf can stop at any leftmost-path node
        // that is a leaf — only c on this tree.
        let c = t.node_at_path(&[1, 1]).unwrap();
        assert_eq!(select(&t, &e, t.root()), vec![c]);
        // From a leaf, the empty down* matches.
        assert_eq!(select(&t, &e, c), vec![c]);
    }

    #[test]
    fn alternation_and_star_semantics() {
        let (_, t) = sample();
        // (right | left)* from b reaches b and e.
        let e = star(alt([atom(CatAtom::Right), atom(CatAtom::Left)]));
        let b = t.node_at_path(&[1]).unwrap();
        let ee = t.node_at_path(&[2]).unwrap();
        assert_eq!(select(&t, &e, b), vec![b, ee]);
    }

    #[test]
    fn tests_kill_walks() {
        let (mut v, t) = sample();
        // down #e — descend to the first child, require label e: fails
        // (first child is b).
        let e = parse_caterpillar("down #e", &mut v).unwrap();
        assert!(select(&t, &e, t.root()).is_empty());
        // down right #e succeeds.
        let e2 = parse_caterpillar("down right #e", &mut v).unwrap();
        assert_eq!(e2.size(), 4);
        assert_eq!(select(&t, &e2, t.root()).len(), 1);
    }

    #[test]
    fn parser_round_trip() {
        let mut v = Vocab::new();
        v.sym("a");
        for src in [
            "down",
            "down right",
            "(down right*)+",
            "up | down",
            "isLeaf (up isLast)* right?",
            "#a down",
        ] {
            let e = parse_caterpillar(src, &mut v).unwrap();
            let shown = e.display(&v);
            let e2 = parse_caterpillar(&shown, &mut v).unwrap();
            // Displayed form may differ syntactically; semantics must
            // agree — compare on a tree.
            let t = parse_tree("a(a(a),a)", &mut v).unwrap();
            for u in t.node_ids() {
                assert_eq!(select(&t, &e, u), select(&t, &e2, u), "{src} → {shown}");
            }
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        let mut v = Vocab::new();
        for src in ["(", "down)", "wiggle", "#", "down |"] {
            // "down |" parses an empty right branch = epsilon — accept it;
            // the others must fail.
            if src == "down |" {
                assert!(parse_caterpillar(src, &mut v).is_ok());
            } else {
                assert!(parse_caterpillar(src, &mut v).is_err(), "{src}");
            }
        }
    }

    #[test]
    fn epsilon_matches_in_place() {
        let (_, t) = sample();
        assert_eq!(select(&t, &CatExpr::Epsilon, t.root()), vec![t.root()]);
    }

    #[test]
    fn relates_api() {
        let (_, t) = sample();
        let b = t.node_at_path(&[1]).unwrap();
        assert!(relates(&t, &descendants(), t.root(), b));
        assert!(!relates(&t, &descendants(), b, t.root()));
    }
}
