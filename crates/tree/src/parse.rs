//! A compact term syntax for attributed trees, used by tests, examples, and
//! documentation.
//!
//! Grammar:
//!
//! ```text
//! term     := label attrs? children?
//! label    := ident
//! attrs    := '[' ident '=' value (',' ident '=' value)* ']'
//! value    := ident | integer
//! children := '(' term (',' term)* ')'
//! ```
//!
//! Example: `a[id=1](b[v=x], c(d, e[v=7]))`.

use std::fmt::Write as _;

use crate::lex::{Cursor, ParseError, Syntax};
use crate::tree::{Label, NodeId, Tree};
use crate::vocab::Vocab;

struct Parser<'s, 'v> {
    c: Cursor<'s>,
    vocab: &'v mut Vocab,
}

impl Parser<'_, '_> {
    fn term(
        &mut self,
        tree: &mut Option<Tree>,
        parent: Option<NodeId>,
    ) -> Result<NodeId, ParseError> {
        self.c.skip_ws();
        let name = self.c.ident()?;
        let label = Label::Sym(self.vocab.sym(name));
        let node = match (parent, tree.as_mut()) {
            (Some(p), Some(t)) => t.add_child(p, label),
            (None, None) => {
                *tree = Some(Tree::new(label));
                tree.as_ref().expect("just set").root()
            }
            _ => unreachable!("parent iff tree exists"),
        };
        self.c.skip_ws();
        if self.c.eat(b'[') {
            loop {
                self.c.skip_ws();
                let attr = self.vocab.attr(self.c.ident()?);
                self.c.skip_ws();
                if !self.c.eat(b'=') {
                    return Err(self.c.error("expected '=' in attribute"));
                }
                self.c.skip_ws();
                let val = self.c.value(self.vocab)?;
                tree.as_mut()
                    .expect("tree exists")
                    .set_attr(node, attr, val);
                self.c.skip_ws();
                if self.c.eat(b']') {
                    break;
                }
                if !self.c.eat(b',') {
                    return Err(self.c.error("expected ',' or ']' in attribute list"));
                }
            }
        }
        self.c.skip_ws();
        if self.c.eat(b'(') {
            loop {
                self.term(tree, Some(node))?;
                self.c.skip_ws();
                if self.c.eat(b')') {
                    break;
                }
                if !self.c.eat(b',') {
                    return Err(self.c.error("expected ',' or ')' in child list"));
                }
            }
        }
        Ok(node)
    }
}

/// Parse a tree from the term syntax, interning into `vocab`.
pub fn parse_tree(src: &str, vocab: &mut Vocab) -> Result<Tree, ParseError> {
    let mut p = Parser {
        c: Cursor::new(Syntax::Term, src),
        vocab,
    };
    let mut tree = None;
    p.term(&mut tree, None)?;
    p.c.end("trailing input after tree")?;
    let t = tree.expect("term() always creates the root");
    debug_assert!(t.check_consistency().is_ok());
    Ok(t)
}

/// Render a tree back into the term syntax (inverse of [`parse_tree`] up to
/// whitespace).
pub fn tree_to_string(tree: &Tree, vocab: &Vocab) -> String {
    let mut out = String::new();
    write_node(tree, tree.root(), vocab, &mut out);
    out
}

fn write_node(tree: &Tree, u: NodeId, vocab: &Vocab, out: &mut String) {
    out.push_str(&tree.label(u).display(vocab));
    let attrs: Vec<(u16, crate::vocab::Value)> = (0..tree.attr_columns() as u16)
        .filter_map(|a| {
            let v = tree.attr(u, crate::vocab::AttrId(a));
            (!v.is_bot()).then_some((a, v))
        })
        .collect();
    if !attrs.is_empty() {
        out.push('[');
        for (i, (a, v)) in attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}={}",
                vocab.attr_name(crate::vocab::AttrId(*a)),
                vocab.value_display(*v)
            );
        }
        out.push(']');
    }
    if !tree.is_leaf(u) {
        out.push('(');
        for (i, c) in tree.children(u).enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_node(tree, c, vocab, out);
        }
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let mut v = Vocab::new();
        let t = parse_tree("a(b,c(d,e))", &mut v).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.child_count(t.root()), 2);
        let c = t.node_at_path(&[2]).unwrap();
        assert_eq!(t.child_count(c), 2);
    }

    #[test]
    fn parse_attributes() {
        let mut v = Vocab::new();
        let t = parse_tree("a[id=1,v=x](b[v=-3])", &mut v).unwrap();
        let id = v.attr_opt("id").unwrap();
        let va = v.attr_opt("v").unwrap();
        assert_eq!(t.attr(t.root(), id), v.val_int_opt(1).unwrap());
        assert_eq!(t.attr(t.root(), va), v.val_str_opt("x").unwrap());
        let b = t.node_at_path(&[1]).unwrap();
        assert_eq!(t.attr(b, va), v.val_int_opt(-3).unwrap());
        assert!(t.attr(b, id).is_bot());
    }

    #[test]
    fn parse_whitespace_tolerant() {
        let mut v = Vocab::new();
        let t = parse_tree("  a ( b , c [ k = 7 ] ) ", &mut v).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn parse_errors() {
        let mut v = Vocab::new();
        assert!(parse_tree("", &mut v).is_err());
        assert!(parse_tree("a(", &mut v).is_err());
        assert!(parse_tree("a(b,)", &mut v).is_err());
        assert!(parse_tree("a[x]", &mut v).is_err());
        assert!(parse_tree("a[x=1", &mut v).is_err());
        assert!(parse_tree("a b", &mut v).is_err());
        assert!(parse_tree("a[x=-y]", &mut v).is_err());
    }

    #[test]
    fn display_round_trips() {
        let mut v = Vocab::new();
        let src = "a[id=1](b[v=x],c(d[k=-9],e))";
        let t = parse_tree(src, &mut v).unwrap();
        let rendered = tree_to_string(&t, &v);
        assert_eq!(rendered, src);
        let t2 = parse_tree(&rendered, &mut v).unwrap();
        assert_eq!(tree_to_string(&t2, &v), src);
    }

    #[test]
    fn error_display_mentions_position() {
        let mut v = Vocab::new();
        let e = parse_tree("a(b,)", &mut v).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("parse error"), "{msg}");
    }
}
