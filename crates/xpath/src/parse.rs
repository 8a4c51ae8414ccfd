//! Concrete syntax for the XPath fragment.
//!
//! ```text
//! path   := seq ('|' seq)*
//! seq    := ('/' | '//')? step (('/' | '//') step)*
//! step   := test filter*
//! test   := ident | '*'
//! filter := '[' path ']' | '[@' ident '=' value ']' | '[@' ident '=@' ident ']'
//! value  := ident | integer
//! ```

use twq_tree::{Cursor, ParseError, Syntax, Vocab};

use crate::ast::{Pred, XPath};

struct P<'s, 'v> {
    c: Cursor<'s>,
    vocab: &'v mut Vocab,
}

impl P<'_, '_> {
    fn path(&mut self) -> Result<XPath, ParseError> {
        let mut p = self.seq()?;
        loop {
            self.c.skip_ws();
            if self.c.eat(b'|') {
                let q = self.seq()?;
                p = XPath::Union(Box::new(p), Box::new(q));
            } else {
                return Ok(p);
            }
        }
    }

    fn seq(&mut self) -> Result<XPath, ParseError> {
        self.c.skip_ws();
        // Leading axis.
        let mut p = if self.c.eat_str("//") {
            XPath::FromDesc(Box::new(self.step()?))
        } else if self.c.eat(b'/') {
            XPath::FromRoot(Box::new(self.step()?))
        } else {
            self.step()?
        };
        loop {
            self.c.skip_ws();
            if self.c.eat_str("//") {
                let s = self.step()?;
                p = XPath::Descendant(Box::new(p), Box::new(s));
            } else if self.c.eat(b'/') {
                let s = self.step()?;
                p = XPath::Child(Box::new(p), Box::new(s));
            } else {
                return Ok(p);
            }
        }
    }

    fn step(&mut self) -> Result<XPath, ParseError> {
        self.c.skip_ws();
        let mut p = if self.c.eat(b'*') {
            XPath::Wild
        } else {
            XPath::Name(self.vocab.sym(self.c.ident()?))
        };
        loop {
            self.c.skip_ws();
            if self.c.eat(b'[') {
                let pred = self.pred()?;
                self.c.skip_ws();
                if !self.c.eat(b']') {
                    return Err(self.c.error("expected ']'"));
                }
                p = XPath::Filter(Box::new(p), Box::new(pred));
            } else {
                return Ok(p);
            }
        }
    }

    fn pred(&mut self) -> Result<Pred, ParseError> {
        self.c.skip_ws();
        if self.c.eat(b'@') {
            let a = self.vocab.attr(self.c.ident()?);
            self.c.skip_ws();
            if !self.c.eat(b'=') {
                return Err(self.c.error("expected '=' in attribute predicate"));
            }
            self.c.skip_ws();
            if self.c.eat(b'@') {
                return Ok(Pred::AttrEqAttr(a, self.vocab.attr(self.c.ident()?)));
            }
            return Ok(Pred::AttrEqConst(a, self.c.value(self.vocab)?));
        }
        Ok(Pred::Path(crate::ast::relativize(self.path()?)))
    }
}

/// Parse an XPath expression, interning names into `vocab`.
pub fn parse_xpath(src: &str, vocab: &mut Vocab) -> Result<XPath, ParseError> {
    let mut p = P {
        c: Cursor::new(Syntax::XPath, src),
        vocab,
    };
    let path = p.path()?;
    p.c.end("trailing input")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::xb;

    #[test]
    fn parses_paper_shapes() {
        let mut v = Vocab::new();
        for src in [
            "a",
            "*",
            "a/b",
            "a//b",
            "/a",
            "//a",
            "a/b[c//d]",
            "a | b",
            "a/b | c//d",
            "a[b][c]",
            "a[@k=3]",
            "a[@k=@m]",
            "a[@k=xyz]",
        ] {
            let p = parse_xpath(src, &mut v);
            assert!(p.is_ok(), "{src}: {p:?}");
        }
    }

    #[test]
    fn structure_of_composite() {
        let mut v = Vocab::new();
        let p = parse_xpath("a/b//c", &mut v).unwrap();
        let (a, b, c) = (
            v.sym_opt("a").unwrap(),
            v.sym_opt("b").unwrap(),
            v.sym_opt("c").unwrap(),
        );
        // Left-associated: (a/b)//c.
        assert_eq!(
            p,
            xb::desc(xb::child(xb::name(a), xb::name(b)), xb::name(c))
        );
    }

    #[test]
    fn union_binds_loosest() {
        let mut v = Vocab::new();
        let p = parse_xpath("a/b | c", &mut v).unwrap();
        assert!(matches!(p, XPath::Union(_, _)));
    }

    #[test]
    fn display_parse_round_trip() {
        let mut v = Vocab::new();
        for src in ["a/b//c[d]", "/a[@k=3] | //b[@k=@m]", "*[b/c]"] {
            let p = parse_xpath(src, &mut v).unwrap();
            let shown = p.display(&v);
            let p2 = parse_xpath(&shown, &mut v).unwrap();
            assert_eq!(p, p2, "{src} → {shown}");
        }
    }

    #[test]
    fn rejects_garbage() {
        let mut v = Vocab::new();
        for src in ["", "/", "a/", "a[", "a[]", "a[@k]", "a]", "a[@k=-x]", "|a"] {
            assert!(parse_xpath(src, &mut v).is_err(), "{src}");
        }
    }
}
