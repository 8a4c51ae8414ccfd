//! A small XML-ish concrete syntax for attributed trees — the paper's
//! documents *are* XML, so the library should read and write them.
//!
//! Supported subset: elements with attributes and child elements,
//! self-closing tags, double-quoted attribute values, whitespace between
//! tags. Deliberately *not* supported (the paper's abstraction excludes
//! them; `[4]` shows mixed content reduces to attributed trees with dummy
//! nodes): text content, comments, processing instructions, entities,
//! namespaces.

use std::fmt::Write;
use std::ops::Range;

use crate::tree::{Label, NodeId, Tree};
use crate::vocab::{AttrId, SymId, Vocab};

/// An XML parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset.
    pub at: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "xml error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for XmlError {}

/// A per-call, direct-mapped cache in front of one of [`Vocab`]'s name
/// interners, keyed by spans of the input. A document uses few element
/// and attribute names many times, so nearly every lookup ends here: a
/// short hash and a byte compare instead of a SipHash probe into
/// `Vocab`'s maps. Values are not memoized: how often they repeat
/// depends on the document, and on one whose values rarely repeat a
/// value memo costs more than it saves.
///
/// Each key maps to exactly one slot. A slot is trusted only after its
/// bytes compare equal to the key, so a collision, crafted or not, is a
/// miss: the id then comes from `Vocab`, whose default hasher keeps its
/// protection against keys built to collide, and the slot is overwritten.
/// A hit returns the id an earlier miss got from `Vocab`, so the ids
/// issued and their order are those of interning every token in turn.
struct Memo<T> {
    slots: Vec<Option<(usize, usize, T)>>,
}

impl<T: Copy> Memo<T> {
    /// `slots` must be a power of two.
    fn new(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        Memo {
            slots: vec![None; slots],
        }
    }

    /// The id of `src[span]`, from the slot or else from `miss`. Spans
    /// start and end at ASCII bytes, so slicing `src` cannot panic.
    fn intern(&mut self, src: &str, span: Range<usize>, miss: impl FnOnce(&str) -> T) -> T {
        let bytes = src.as_bytes();
        let key = &bytes[span.clone()];
        // FNV-1a: cheap on short keys; its quality only affects the hit rate.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[(h ^ (h >> 32)) as usize & mask];
        if let Some((start, end, id)) = *slot {
            if bytes[start..end] == *key {
                return id;
            }
        }
        let id = miss(&src[span.clone()]);
        *slot = Some((span.start, span.end, id));
        id
    }
}

/// Name slots for an input of `len` bytes: about one per 32 bytes, at
/// least 16 and at most 256, so a small document does not pay for a large
/// table. A slot takes 32 bytes, so a table holds at most 8 KiB.
fn name_slots(len: usize) -> usize {
    (len / 32).clamp(16, 256).next_power_of_two()
}

struct Reader<'s, 'v> {
    src: &'s str,
    pos: usize,
    vocab: &'v mut Vocab,
    syms: Memo<SymId>,
    attrs: Memo<AttrId>,
}

impl Reader<'_, '_> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError {
            at: self.pos,
            msg: msg.into(),
        })
    }

    /// Skip whitespace. After a newline, the indentation's spaces are
    /// skipped eight bytes at a time: `to_xml` indents by depth, so on a
    /// pretty-printed document most bytes are these spaces.
    fn ws(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(&c) = bytes.get(self.pos) {
            if !c.is_ascii_whitespace() {
                return;
            }
            self.pos += 1;
            if c == b'\n' {
                while let Some(word) = bytes.get(self.pos..self.pos + 8) {
                    let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
                    // The number of spaces the word starts with.
                    let spaces = (word ^ u64::from_le_bytes([b' '; 8])).trailing_zeros() / 8;
                    self.pos += spaces as usize;
                    if spaces < 8 {
                        break;
                    }
                }
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), XmlError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", c as char))
        }
    }

    /// The span of a name: one or more ASCII alphanumerics, `_`, `-`, `.`.
    fn name(&mut self) -> Result<Range<usize>, XmlError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected name");
        }
        Ok(start..self.pos)
    }

    /// An element name, interned.
    fn tag(&mut self) -> Result<(Range<usize>, Label), XmlError> {
        let name = self.name()?;
        let sym = self
            .syms
            .intern(self.src, name.clone(), |s| self.vocab.sym(s));
        Ok((name, Label::Sym(sym)))
    }

    /// The attributes of `node`, up to the `/` or `>` that ends its start
    /// tag. A repeated attribute keeps its last value.
    fn attributes(&mut self, tree: &mut Tree, node: NodeId) -> Result<(), XmlError> {
        loop {
            self.ws();
            if matches!(self.peek(), Some(b'/' | b'>')) {
                return Ok(());
            }
            let name = self.name()?;
            let attr = self.attrs.intern(self.src, name, |s| self.vocab.attr(s));
            self.ws();
            self.expect(b'=')?;
            self.ws();
            self.expect(b'"')?;
            let start = self.pos;
            self.pos = self.src.as_bytes()[start..]
                .iter()
                .position(|&c| c == b'"')
                .map_or(self.src.len(), |k| start + k);
            let raw = &self.src[start..self.pos];
            self.expect(b'"')?;
            let value = match raw.parse::<i64>() {
                Ok(i) => self.vocab.val_int(i),
                Err(_) => self.vocab.val_str(raw),
            };
            tree.set_attr(node, attr, value);
        }
    }
}

/// Parse the XML subset into a tree.
///
/// One pass over the bytes with an explicit stack of open elements, so
/// nesting depth costs heap, not call stack. Names and values are read as
/// spans of `src`; a closing tag is checked against its start tag's span.
pub fn parse_xml(src: &str, vocab: &mut Vocab) -> Result<Tree, XmlError> {
    let mut r = Reader {
        src,
        pos: 0,
        vocab,
        syms: Memo::new(name_slots(src.len())),
        attrs: Memo::new(16),
    };
    r.ws();
    r.expect(b'<')?;
    let (mut name, label) = r.tag()?;
    let mut tree = Tree::new(label);
    let mut node = tree.root();
    // Open elements, innermost last, with their start tags' name spans.
    let mut open: Vec<(NodeId, Range<usize>)> = Vec::new();
    loop {
        // `node`'s start tag is read up to its name.
        r.attributes(&mut tree, node)?;
        if r.peek() == Some(b'/') {
            r.pos += 1;
            r.expect(b'>')?;
        } else {
            r.expect(b'>')?;
            open.push((node, name));
        }
        // Close elements until the next start tag or the document's end.
        loop {
            r.ws();
            let Some((parent, tag)) = open.last().cloned() else {
                if r.pos != src.len() {
                    return r.err("trailing input after the document element");
                }
                return Ok(tree);
            };
            if src[r.pos..].starts_with("</") {
                r.pos += 2;
                let closing = r.name()?;
                let (closing, tag) = (&src[closing], &src[tag]);
                if closing != tag {
                    return r.err(format!("mismatched </{closing}>, expected </{tag}>"));
                }
                r.ws();
                r.expect(b'>')?;
                open.pop();
            } else if r.peek() == Some(b'<') {
                r.pos += 1;
                let label;
                (name, label) = r.tag()?;
                node = tree.add_child(parent, label);
                break;
            } else {
                return r.err("expected a child element or closing tag");
            }
        }
    }
}

/// Serialize a tree as XML (pretty-printed, 2-space indent). Delimiter
/// labels are rejected: serialize the *original* tree, not `delim(t)`.
///
/// Walks the tree's links in document order, writing straight into the
/// output; the depth is the indent.
pub fn to_xml(tree: &Tree, vocab: &Vocab) -> String {
    let name = |u: NodeId| match tree.label(u) {
        Label::Sym(s) => vocab.sym_name(s),
        other => panic!("cannot serialize delimiter label {other:?}"),
    };
    let indent = |out: &mut String, depth: usize| {
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    let mut out = String::new();
    let mut u = tree.root();
    let mut depth = 0;
    loop {
        indent(&mut out, depth);
        out.push('<');
        out.push_str(name(u));
        for a in 0..tree.attr_columns() as u16 {
            let a = AttrId(a);
            let v = tree.attr(u, a);
            if !v.is_bot() {
                let _ = write!(out, " {}=\"{}\"", vocab.attr_name(a), vocab.value_repr(v));
            }
        }
        if let Some(c) = tree.first_child(u) {
            out.push_str(">\n");
            depth += 1;
            u = c;
            continue;
        }
        out.push_str("/>\n");
        // Close every element `u` is the last descendant of.
        loop {
            if let Some(s) = tree.next_sibling(u) {
                u = s;
                break;
            }
            let Some(p) = tree.parent(u) else {
                return out;
            };
            depth -= 1;
            indent(&mut out, depth);
            let _ = writeln!(out, "</{}>", name(p));
            u = p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_tree, TreeGenConfig};
    use crate::parse::tree_to_string;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_document() {
        let mut v = Vocab::new();
        let t = parse_xml(
            r#"<lib><book y="1999"><title/><author id="knuth"/></book><book y="2001"/></lib>"#,
            &mut v,
        )
        .unwrap();
        assert_eq!(t.len(), 5);
        let y = v.attr_opt("y").unwrap();
        let b1 = t.node_at_path(&[1]).unwrap();
        assert_eq!(t.attr(b1, y), v.val_int_opt(1999).unwrap());
    }

    #[test]
    fn whitespace_and_string_values() {
        let mut v = Vocab::new();
        let t = parse_xml("<a x=\"hello world\">\n  <b/>\n  <c/>\n</a>", &mut v).unwrap();
        assert_eq!(t.len(), 3);
        let x = v.attr_opt("x").unwrap();
        assert_eq!(t.attr(t.root(), x), v.val_str_opt("hello world").unwrap());
    }

    #[test]
    fn round_trips_through_xml() {
        let mut v = Vocab::new();
        let t = crate::parse::parse_tree("a[k=1](b[v=x],c(d,e[v=7]))", &mut v).unwrap();
        let xml = to_xml(&t, &v);
        let back = parse_xml(&xml, &mut v).unwrap();
        assert_eq!(
            crate::parse::tree_to_string(&back, &v),
            crate::parse::tree_to_string(&t, &v)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        // One case or more per error kind, with the offsets and messages
        // the reader has always reported.
        let cases: &[(&str, usize, &str)] = &[
            ("", 0, "expected '<'"),
            ("  x", 2, "expected '<'"),
            ("< a/>", 1, "expected name"),
            ("<a", 2, "expected name"),
            ("<a x=\"1\"", 8, "expected name"),
            ("<a></ a>", 5, "expected name"),
            ("<a x/>", 4, "expected '='"),
            ("<a x=1/>", 5, "expected '\"'"),
            ("<a x=\"1", 7, "expected '\"'"),
            ("<a/ >", 3, "expected '>'"),
            ("<a></a", 6, "expected '>'"),
            ("<a></b>", 6, "mismatched </b>, expected </a>"),
            ("<a><b></a></b>", 9, "mismatched </a>, expected </b>"),
            ("<a>", 3, "expected a child element or closing tag"),
            ("<a>text</a>", 3, "expected a child element or closing tag"),
            ("<a><b/>é</a>", 7, "expected a child element or closing tag"),
            ("<a/><b/>", 4, "trailing input after the document element"),
        ];
        for &(src, at, msg) in cases {
            let err = parse_xml(src, &mut Vocab::new()).expect_err(src);
            assert_eq!((err.at, err.msg.as_str()), (at, msg), "{src:?}");
        }
    }

    #[test]
    fn values_intern_by_meaning_and_the_last_repeat_wins() {
        let mut v = Vocab::new();
        let t = parse_xml(
            r#"<a k="007"><b k="+7"/><c k="7"/><d k="7" k="x"/><e k="99999999999999999999"/></a>"#,
            &mut v,
        )
        .unwrap();
        let k = v.attr_opt("k").unwrap();
        let seven = v.val_int_opt(7).unwrap();
        let values: Vec<_> = t.nodes().map(|u| t.attr(u, k)).collect();
        assert_eq!(&values[..3], &[seven; 3]);
        assert_eq!(values[3], v.val_str_opt("x").unwrap());
        // Beyond i64, a number is a string value.
        assert_eq!(values[4], v.val_str_opt("99999999999999999999").unwrap());
        assert_eq!(v.value_count(), 4, "⊥, 7, \"x\" and the long number");
    }

    /// Runs `f` on a thread with a 128 KiB stack, so a reader or writer
    /// that recursed once per nesting level would overflow it.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(128 * 1024)
            .spawn(f)
            .expect("spawn a thread")
            .join()
            .expect("the thread completes")
    }

    #[test]
    fn deep_documents_parse_on_a_small_stack() {
        let parsed = on_small_stack(|| {
            let src = "<a>".repeat(100_000) + &"</a>".repeat(100_000);
            parse_xml(&src, &mut Vocab::new()).map(|t| t.len())
        });
        assert_eq!(parsed, Ok(100_000));
    }

    #[test]
    fn deep_chains_round_trip_on_a_small_stack() {
        let (nodes, chain) = on_small_stack(|| {
            let mut v = Vocab::new();
            let t = crate::generate::chain_tree(v.sym("a"), 2_000);
            // Indentation grows with depth: about 8 MB of text.
            let back = parse_xml(&to_xml(&t, &v), &mut v).expect("to_xml output parses");
            (back.len(), back.nodes().all(|u| back.child_count(u) <= 1))
        });
        assert_eq!((nodes, chain), (2_001, true));
    }

    /// Three symbols, an integer and a string column drawing from
    /// `values`-sized pools, and a column left empty. With `values == 0`
    /// the tree has no attributes at all.
    fn round_trip_config(
        v: &mut Vocab,
        nodes: usize,
        width: usize,
        values: usize,
    ) -> TreeGenConfig {
        let half = values as i64 / 2;
        let ints = (0..values as i64).map(|i| v.val_int(i - half)).collect();
        let strs = (0..values)
            .map(|i| v.val_str(&format!("v {i}-x")))
            .collect();
        TreeGenConfig {
            nodes,
            max_children: width,
            symbols: ["a", "b-c", "d.e_1"].iter().map(|s| v.sym(s)).collect(),
            attributes: vec![
                (v.attr("n"), ints),
                (v.attr("s"), strs),
                (v.attr("z"), vec![]),
            ],
            collision_pool: None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `parse_xml` inverts `to_xml`, read into a fresh vocabulary.
        #[test]
        fn to_xml_then_parse_xml_is_the_identity(
            (seed, nodes, width, values) in (0u64..1_000_000, 1usize..400, 1usize..6, 0usize..300)
        ) {
            let mut v = Vocab::new();
            let t = random_tree(&round_trip_config(&mut v, nodes, width, values), seed);
            let mut fresh = Vocab::new();
            let back = parse_xml(&to_xml(&t, &v), &mut fresh).expect("to_xml output parses");
            prop_assert_eq!(tree_to_string(&back, &fresh), tree_to_string(&t, &v));
        }
    }

    #[test]
    fn round_trips_more_distinct_names_than_memo_slots() {
        // 600 element names against at most 256 slots and 40 attribute
        // names against 16, so names collide, evict each other and miss.
        let mut v = Vocab::new();
        let one = vec![v.val_int(1)];
        let cfg = TreeGenConfig {
            nodes: 3_000,
            max_children: 4,
            symbols: (0..600).map(|i| v.sym(&format!("e{i}"))).collect(),
            attributes: (0..40)
                .map(|i| (v.attr(&format!("a{i}")), one.clone()))
                .collect(),
            collision_pool: None,
        };
        let t = random_tree(&cfg, 7);
        let mut fresh = Vocab::new();
        let back = parse_xml(&to_xml(&t, &v), &mut fresh).unwrap();
        assert_eq!(tree_to_string(&back, &fresh), tree_to_string(&t, &v));
        // Ids are issued in order of first occurrence, hit or miss.
        let mut first: Vec<&str> = Vec::new();
        for u in t.nodes() {
            let name = v.sym_name(t.label(u).sym().unwrap());
            if !first.contains(&name) {
                first.push(name);
            }
        }
        assert!(first.len() > 256);
        let issued: Vec<&str> = (0..fresh.sym_count())
            .map(|i| fresh.sym_name(SymId(i as u16)))
            .collect();
        assert_eq!(issued, first);
        let attrs: Vec<&str> = (0..40).map(|i| fresh.attr_name(AttrId(i))).collect();
        assert_eq!(attrs, (0..40).map(|i| format!("a{i}")).collect::<Vec<_>>());
    }

    #[test]
    fn self_closing_and_full_forms_agree() {
        let mut v = Vocab::new();
        let t1 = parse_xml("<a><b/></a>", &mut v).unwrap();
        let t2 = parse_xml("<a><b></b></a>", &mut v).unwrap();
        assert_eq!(
            crate::parse::tree_to_string(&t1, &v),
            crate::parse::tree_to_string(&t2, &v)
        );
    }
}
