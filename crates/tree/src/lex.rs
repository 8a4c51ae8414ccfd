//! The reader core of the workspace's hand-written text syntaxes: the term
//! syntax ([`parse_tree`](crate::parse_tree)), XML
//! ([`parse_xml`](crate::parse_xml)), XPath, FO and caterpillar
//! expressions.
//!
//! Each grammar keeps only its productions. What a name is, how
//! whitespace is skipped, how a literal becomes a data value
//! ([`Vocab::val_text`]) and how an error reads ([`ParseError`]) are
//! decided here, so a query literal interns to the same [`Value`] as the
//! document text that spells it.

use std::fmt;

use crate::vocab::{int_text, Value, Vocab};

/// The text syntaxes the workspace reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syntax {
    /// The compact term syntax of [`parse_tree`](crate::parse_tree).
    Term,
    /// The XML subset of [`parse_xml`](crate::parse_xml).
    Xml,
    /// The paper's XPath fragment.
    XPath,
    /// First-order formulas over the tree vocabulary.
    Fo,
    /// Caterpillar expressions.
    Caterpillar,
}

impl Syntax {
    /// How an error in this syntax begins.
    fn what(self) -> &'static str {
        match self {
            Syntax::Term => "parse error",
            Syntax::Xml => "xml error",
            Syntax::XPath => "xpath parse error",
            Syntax::Fo => "FO parse error",
            Syntax::Caterpillar => "caterpillar parse error",
        }
    }

    /// Whether `c` may occur in a name: an ASCII alphanumeric or `_`, and
    /// in the term syntax also `#` (the spelling of fresh values). XML
    /// names, which also take `-` and `.`, are found by `parse_xml`'s own
    /// word-at-a-time scan.
    fn name_byte(self, c: u8) -> bool {
        c.is_ascii_alphanumeric() || c == b'_' || (c == b'#' && self == Syntax::Term)
    }
}

/// An error produced while reading one of the [`Syntax`]es.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The syntax being read.
    pub syntax: Syntax,
    /// Byte offset of the error in the input.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at byte {}: {}",
            self.syntax.what(),
            self.at,
            self.msg
        )
    }
}

impl std::error::Error for ParseError {}

/// A position in an input being read. Tokens are handed out as slices of
/// the input; no method skips whitespace unless it says so.
pub struct Cursor<'s> {
    syntax: Syntax,
    src: &'s str,
    pos: usize,
}

impl<'s> Cursor<'s> {
    /// A cursor at the start of `src`.
    pub fn new(syntax: Syntax, src: &'s str) -> Self {
        Cursor {
            syntax,
            src,
            pos: 0,
        }
    }

    /// An error at the cursor.
    pub fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            syntax: self.syntax,
            at: self.pos,
            msg: msg.into(),
        }
    }

    /// Skip ASCII whitespace.
    pub fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// The next byte, if any.
    pub fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// Whether the unread input starts with `s`.
    pub fn starts_with(&self, s: &str) -> bool {
        self.src.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    /// Consume `c` if it is next.
    pub fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    /// Consume `s` if it is next. A keyword made of name bytes must not run
    /// into a further name byte: `true` is not eaten from `trueish`.
    pub fn eat_str(&mut self, s: &str) -> bool {
        let name = |c: &u8| self.syntax.name_byte(*c);
        let after = self.src.as_bytes().get(self.pos + s.len());
        let hit =
            self.starts_with(s) && !(s.as_bytes().iter().all(name) && after.is_some_and(name));
        self.pos += if hit { s.len() } else { 0 };
        hit
    }

    /// The longest run of name bytes at the cursor, if it is not empty.
    pub fn name(&mut self) -> Option<&'s str> {
        let start = self.pos;
        while self.peek().is_some_and(|c| self.syntax.name_byte(c)) {
            self.pos += 1;
        }
        (self.pos > start).then(|| &self.src[start..self.pos])
    }

    /// A name, or the error `expected identifier`.
    pub fn ident(&mut self) -> Result<&'s str, ParseError> {
        self.name().ok_or_else(|| self.error("expected identifier"))
    }

    /// A literal `-?name`, interned by [`Vocab::val_text`]. A `-` must start
    /// an integer; the error for one that does not points at the `-`.
    pub fn value(&mut self, vocab: &mut Vocab) -> Result<Value, ParseError> {
        let start = self.pos;
        let neg = self.eat(b'-');
        self.ident()?;
        let text = &self.src[start..self.pos];
        if neg && int_text(text).is_none() {
            self.pos = start;
            return Err(self.error("'-' must precede an integer"));
        }
        Ok(vocab.val_text(text))
    }

    /// Skip whitespace, then require the end of the input: anything left is
    /// the error `trailing`.
    pub fn end(&mut self, trailing: &str) -> Result<(), ParseError> {
        self.skip_ws();
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error(trailing)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `i64::MIN` reads as an integer; a `-` that starts anything else is an
    /// error at the `-`, and interns nothing.
    #[test]
    fn a_minus_must_start_an_integer() {
        let mut v = Vocab::new();
        let min = Cursor::new(Syntax::XPath, "-9223372036854775808").value(&mut v);
        assert_eq!(min, Ok(v.val_int(i64::MIN)));
        for (src, at, msg) in [
            ("-y", 0, "'-' must precede an integer"),
            ("-99999999999999999999", 0, "'-' must precede an integer"),
            ("- 5", 1, "expected identifier"),
        ] {
            let e = Cursor::new(Syntax::Fo, src).value(&mut v).unwrap_err();
            assert_eq!((e.at, e.msg.as_str()), (at, msg), "{src}");
        }
        assert_eq!(v.value_count(), 2, "⊥ and i64::MIN");
    }

    #[test]
    fn names_and_keywords_follow_the_syntax() {
        assert_eq!(Cursor::new(Syntax::Term, "#f1(").name(), Some("#f1"));
        assert_eq!(Cursor::new(Syntax::Caterpillar, "#f1").name(), None);
        let mut c = Cursor::new(Syntax::Fo, "trueish -> true ");
        assert!(!c.eat_str("true"));
        assert_eq!(c.ident(), Ok("trueish"));
        c.skip_ws();
        assert!(c.eat_str("->"));
        c.skip_ws();
        assert!(c.eat_str("true"));
        assert_eq!(c.end("trailing input"), Ok(()));
    }

    #[test]
    fn errors_name_their_syntax() {
        let mut c = Cursor::new(Syntax::Xml, "  x");
        let e = c.end("expected '<'").unwrap_err();
        assert_eq!(e.to_string(), "xml error at byte 2: expected '<'");
    }
}
