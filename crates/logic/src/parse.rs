//! Concrete syntax for FO formulas over the tree vocabulary — handy in
//! examples, tests, and REPL-style exploration.
//!
//! ```text
//! formula := quantified
//! quantified := ('E' | 'A') ident '.' quantified      (∃ / ∀)
//!             | implication
//! implication := disjunction ('->' disjunction)?
//! disjunction := conjunction ('|' conjunction)*
//! conjunction := negation ('&' negation)*
//! negation    := '!' negation | '(' formula ')' | atom | 'true' | 'false'
//! atom        := 'E(' x ',' y ')'          edge
//!             | 'desc(' x ',' y ')'        strict descendant  (x ≺ y)
//!             | 'sib(' x ',' y ')'         sibling order      (x < y)
//!             | 'lab(' name ',' x ')'      O_name(x)
//!             | 'root(' x ')' | 'leaf(' x ')' | 'first(' x ')' | 'last(' x ')'
//!             | 'succ(' x ',' y ')'
//!             | x '=' y
//!             | 'val(' attr ',' x ')' '=' ('val(' attr ',' y ')' | literal)
//! literal     := integer | ident          (interned as a data value)
//! ```
//!
//! Variables are identifiers; the parser assigns dense [`Var`] indices in
//! order of first occurrence and reports the mapping.

use std::collections::HashMap;

use twq_tree::{Cursor, Label, ParseError, Syntax, Vocab};

use crate::fo::{Formula, TreeAtom, Var};

/// A parsed formula plus the variable-name mapping.
#[derive(Debug, Clone)]
pub struct ParsedFormula {
    /// The formula.
    pub formula: Formula,
    /// Variable names in index order (`vars[i]` is the name of `Var(i)`).
    pub vars: Vec<String>,
}

impl ParsedFormula {
    /// The variable with the given name, if it occurred.
    pub fn var(&self, name: &str) -> Option<Var> {
        self.vars
            .iter()
            .position(|n| n == name)
            .map(|i| Var(i as u16))
    }
}

struct P<'s, 'v> {
    c: Cursor<'s>,
    vocab: &'v mut Vocab,
    vars: Vec<String>,
    by_name: HashMap<String, Var>,
}

impl<'s> P<'s, '_> {
    fn err<T>(&self, msg: &str) -> Result<T, ParseError> {
        Err(self.c.error(msg))
    }

    // Any token may follow whitespace: these three skip it first.

    fn eat(&mut self, c: u8) -> bool {
        self.c.skip_ws();
        self.c.eat(c)
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.c.skip_ws();
        self.c.eat_str(s)
    }

    fn ident(&mut self) -> Result<&'s str, ParseError> {
        self.c.skip_ws();
        self.c.ident()
    }

    fn variable(&mut self) -> Result<Var, ParseError> {
        let name = self.ident()?;
        Ok(self.var_named(name))
    }

    fn var_named(&mut self, name: &str) -> Var {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = Var(self.vars.len() as u16);
        self.vars.push(name.to_owned());
        self.by_name.insert(name.to_owned(), v);
        v
    }

    fn formula(&mut self) -> Result<Formula, ParseError> {
        self.c.skip_ws();
        // Quantifiers: `E x.` / `A x.` — disambiguate from the atom `E(`.
        if self.c.starts_with("E ") {
            self.c.eat(b'E');
            let v = self.variable()?;
            if !self.eat(b'.') {
                return self.err("expected '.' after quantified variable");
            }
            let body = self.formula()?;
            return Ok(Formula::Exists(v, Box::new(body)));
        }
        if self.c.starts_with("A ") {
            self.c.eat(b'A');
            let v = self.variable()?;
            if !self.eat(b'.') {
                return self.err("expected '.' after quantified variable");
            }
            let body = self.formula()?;
            return Ok(Formula::Forall(v, Box::new(body)));
        }
        self.implication()
    }

    fn implication(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.disjunction()?;
        if self.eat_str("->") {
            let rhs = self.formula()?;
            return Ok(Formula::Or(vec![Formula::Not(Box::new(lhs)), rhs]));
        }
        Ok(lhs)
    }

    fn disjunction(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.conjunction()?];
        while self.eat(b'|') {
            parts.push(self.conjunction()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("one element"))
        } else {
            Ok(Formula::Or(parts))
        }
    }

    fn conjunction(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.negation()?];
        while self.eat(b'&') {
            parts.push(self.negation()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("one element"))
        } else {
            Ok(Formula::And(parts))
        }
    }

    fn negation(&mut self) -> Result<Formula, ParseError> {
        if self.eat(b'!') {
            return Ok(Formula::Not(Box::new(self.negation()?)));
        }
        if self.eat(b'(') {
            let f = self.formula()?;
            if !self.eat(b')') {
                return self.err("expected ')'");
            }
            return Ok(f);
        }
        if self.eat_str("true") {
            return Ok(Formula::True);
        }
        if self.eat_str("false") {
            return Ok(Formula::False);
        }
        self.atom()
    }

    fn two_vars(&mut self) -> Result<(Var, Var), ParseError> {
        if !self.eat(b'(') {
            return self.err("expected '('");
        }
        let x = self.variable()?;
        if !self.eat(b',') {
            return self.err("expected ','");
        }
        let y = self.variable()?;
        if !self.eat(b')') {
            return self.err("expected ')'");
        }
        Ok((x, y))
    }

    fn one_var(&mut self) -> Result<Var, ParseError> {
        if !self.eat(b'(') {
            return self.err("expected '('");
        }
        let x = self.variable()?;
        if !self.eat(b')') {
            return self.err("expected ')'");
        }
        Ok(x)
    }

    fn atom(&mut self) -> Result<Formula, ParseError> {
        self.c.skip_ws();
        // E(x, y)
        if self.c.starts_with("E(") {
            self.c.eat(b'E');
            let (x, y) = self.two_vars()?;
            return Ok(Formula::Atom(TreeAtom::Edge(x, y)));
        }
        if self.eat_str("desc") {
            let (x, y) = self.two_vars()?;
            return Ok(Formula::Atom(TreeAtom::Desc(x, y)));
        }
        if self.eat_str("sib") {
            let (x, y) = self.two_vars()?;
            return Ok(Formula::Atom(TreeAtom::SibLess(x, y)));
        }
        if self.eat_str("succ") {
            let (x, y) = self.two_vars()?;
            return Ok(Formula::Atom(TreeAtom::Succ(x, y)));
        }
        if self.eat_str("lab") {
            if !self.eat(b'(') {
                return self.err("expected '('");
            }
            let name = self.ident()?;
            let sym = self.vocab.sym(name);
            if !self.eat(b',') {
                return self.err("expected ','");
            }
            let x = self.variable()?;
            if !self.eat(b')') {
                return self.err("expected ')'");
            }
            return Ok(Formula::Atom(TreeAtom::Lab(Label::Sym(sym), x)));
        }
        if self.eat_str("root") {
            return Ok(Formula::Atom(TreeAtom::Root(self.one_var()?)));
        }
        if self.eat_str("leaf") {
            return Ok(Formula::Atom(TreeAtom::Leaf(self.one_var()?)));
        }
        if self.eat_str("first") {
            return Ok(Formula::Atom(TreeAtom::First(self.one_var()?)));
        }
        if self.eat_str("last") {
            return Ok(Formula::Atom(TreeAtom::Last(self.one_var()?)));
        }
        if self.eat_str("val") {
            // val(a, x) = val(b, y)  |  val(a, x) = literal
            if !self.eat(b'(') {
                return self.err("expected '('");
            }
            let name = self.ident()?;
            let a = self.vocab.attr(name);
            if !self.eat(b',') {
                return self.err("expected ','");
            }
            let x = self.variable()?;
            if !self.eat(b')') {
                return self.err("expected ')'");
            }
            if !self.eat(b'=') {
                return self.err("expected '=' after val(...)");
            }
            if self.eat_str("val") {
                if !self.eat(b'(') {
                    return self.err("expected '('");
                }
                let name = self.ident()?;
                let bb = self.vocab.attr(name);
                if !self.eat(b',') {
                    return self.err("expected ','");
                }
                let y = self.variable()?;
                if !self.eat(b')') {
                    return self.err("expected ')'");
                }
                return Ok(Formula::Atom(TreeAtom::ValEq(a, x, bb, y)));
            }
            self.c.skip_ws();
            let d = self.c.value(self.vocab)?;
            return Ok(Formula::Atom(TreeAtom::ValConst(a, x, d)));
        }
        // x = y
        let x = self.variable()?;
        if !self.eat(b'=') {
            return self.err("expected '=' in equality atom");
        }
        let y = self.variable()?;
        Ok(Formula::Atom(TreeAtom::Eq(x, y)))
    }
}

/// Parse an FO formula from the concrete syntax.
pub fn parse_fo(src: &str, vocab: &mut Vocab) -> Result<ParsedFormula, ParseError> {
    let mut p = P {
        c: Cursor::new(Syntax::Fo, src),
        vocab,
        vars: Vec::new(),
        by_name: HashMap::new(),
    };
    let formula = p.formula()?;
    p.c.end("trailing input")?;
    Ok(ParsedFormula {
        formula,
        vars: p.vars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_sentence;
    use twq_tree::parse_tree;

    #[test]
    fn parses_quantifiers_and_atoms() {
        let mut v = Vocab::new();
        let p = parse_fo("A x. leaf(x) -> E y. E(y, x)", &mut v).unwrap();
        assert!(p.formula.free_vars().is_empty());
        assert_eq!(p.vars, vec!["x", "y"]);
        assert_eq!(p.var("x"), Some(Var(0)));
        assert_eq!(p.var("zzz"), None);
    }

    #[test]
    fn sentence_semantics_match_builders() {
        let mut v = Vocab::new();
        let t = parse_tree("a(b,c(d,e))", &mut v).unwrap();
        // "some leaf is a last child" — true (e, and also b? b is not last).
        let p = parse_fo("E x. leaf(x) & last(x)", &mut v).unwrap();
        assert!(eval_sentence(&t, &p.formula).unwrap());
        // "every node is a leaf" — false.
        let q = parse_fo("A x. leaf(x)", &mut v).unwrap();
        assert!(!eval_sentence(&t, &q.formula).unwrap());
    }

    #[test]
    fn value_atoms() {
        let mut v = Vocab::new();
        let t = parse_tree("a[k=1](b[k=2],c[k=1])", &mut v).unwrap();
        let p = parse_fo("E x. E y. !(x = y) & val(k, x) = val(k, y)", &mut v).unwrap();
        assert!(eval_sentence(&t, &p.formula).unwrap());
        let q = parse_fo("E x. val(k, x) = 2", &mut v).unwrap();
        assert!(eval_sentence(&t, &q.formula).unwrap());
        let r = parse_fo("E x. val(k, x) = 9", &mut v).unwrap();
        assert!(!eval_sentence(&t, &r.formula).unwrap());
    }

    #[test]
    fn structural_atoms() {
        let mut v = Vocab::new();
        let t = parse_tree("a(b,c(d))", &mut v).unwrap();
        for (src, expect) in [
            ("E x. E y. E(x, y) & lab(c, x) & lab(d, y)", true),
            ("E x. E y. desc(x, y) & lab(a, x) & lab(d, y)", true),
            ("E x. E y. sib(x, y) & lab(b, x) & lab(c, y)", true),
            ("E x. E y. sib(x, y) & lab(c, x) & lab(b, y)", false),
            ("E x. E y. succ(x, y) & lab(b, x) & lab(c, y)", true),
            ("E x. root(x) & lab(a, x)", true),
            ("E x. first(x) & lab(c, x)", false),
        ] {
            let p = parse_fo(src, &mut v).unwrap();
            assert_eq!(eval_sentence(&t, &p.formula).unwrap(), expect, "{src}");
        }
    }

    #[test]
    fn precedence_and_grouping() {
        let mut v = Vocab::new();
        let t = parse_tree("a(b)", &mut v).unwrap();
        // & binds tighter than |: false & false | true = true.
        let p = parse_fo("false & false | true", &mut v).unwrap();
        assert!(eval_sentence(&t, &p.formula).unwrap());
        // Parentheses override: false & (false | true) = false.
        let q = parse_fo("false & (false | true)", &mut v).unwrap();
        assert!(!eval_sentence(&t, &q.formula).unwrap());
        // Implication with false antecedent.
        let r = parse_fo("false -> false", &mut v).unwrap();
        assert!(eval_sentence(&t, &r.formula).unwrap());
    }

    #[test]
    fn the_papers_background_example() {
        // §2.2: ∀x (val_a(x) = d ∨ val_a(x) = val_b(x)).
        let mut v = Vocab::new();
        let t = parse_tree("s[a=d,b=q](s[a=7,b=7])", &mut v).unwrap();
        let p = parse_fo("A x. val(a, x) = d | val(a, x) = val(b, x)", &mut v).unwrap();
        assert!(eval_sentence(&t, &p.formula).unwrap());
        let t2 = parse_tree("s[a=z,b=q]", &mut v).unwrap();
        assert!(!eval_sentence(&t2, &p.formula).unwrap());
    }

    #[test]
    fn errors_are_positioned() {
        let mut v = Vocab::new();
        for src in [
            "",
            "E x",
            "E x.",
            "lab(a x)",
            "x =",
            "val(a, x)",
            "(true",
            "x y",
        ] {
            let e = parse_fo(src, &mut v);
            assert!(e.is_err(), "{src}");
        }
    }
}
