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

use crate::lex::{ParseError, Syntax};
use crate::tree::{Label, NodeId, Tree};
use crate::vocab::{AttrId, SymId, Vocab};

// ----- errors: built off the hot path --------------------------------

#[cold]
fn error(at: usize, msg: impl Into<String>) -> ParseError {
    ParseError {
        syntax: Syntax::Xml,
        at,
        msg: msg.into(),
    }
}

#[cold]
fn expected(at: usize, c: char) -> ParseError {
    error(at, format!("expected '{c}'"))
}

/// The error for a closing tag at `at` whose name is not `src[tag]`: no
/// name at all, or another one, reported where it ends.
#[cold]
fn closing_error(src: &str, at: usize, tag: Range<usize>) -> ParseError {
    let end = name_end(src.as_bytes(), at);
    if end == at {
        return error(at, "expected name");
    }
    let msg = format!("mismatched </{}>, expected </{}>", &src[at..end], &src[tag]);
    error(end, msg)
}

// ----- eight bytes at a time -----------------------------------------

/// `b` in every byte of a word.
const fn splat(b: u8) -> u64 {
    u64::from_le_bytes([b; 8])
}

const HIGH: u64 = splat(0x80);

/// The eight bytes of `src` from `at` as a little-endian word, zero past
/// the end: no name byte, quote or space is zero, so every search below
/// stops at the end of the input without a separate bounds test.
#[inline]
fn word_at(src: &[u8], at: usize) -> u64 {
    match src.get(at..at + 8) {
        Some(w) => u64::from_le_bytes(w.try_into().expect("eight bytes")),
        None => tail_word(src, at),
    }
}

/// [`word_at`] within eight bytes of the end.
#[cold]
#[inline(never)]
fn tail_word(src: &[u8], at: usize) -> u64 {
    let mut w = [0; 8];
    let tail = src.get(at..).unwrap_or_default();
    w[..tail.len()].copy_from_slice(tail);
    u64::from_le_bytes(w)
}

/// The high bit of each byte of `w` in `lo..=hi`. The bytes of `w` must
/// be below 0x80, so no sum carries into the next byte.
#[inline]
fn in_range(w: u64, lo: u8, hi: u8) -> u64 {
    w.wrapping_add(splat(0x80 - lo)) & !w.wrapping_add(splat(0x7f - hi)) & HIGH
}

/// The high bit of each byte of `w` that is a name byte: an ASCII
/// alphanumeric, `_`, `-` or `.`.
#[inline]
fn name_bytes(w: u64) -> u64 {
    let low = w & !HIGH;
    let letters = in_range(low | splat(0x20), b'a', b'z');
    let dash_dot_digits = in_range(low, b'-', b'9') & !in_range(low, b'/', b'/');
    let underscores = in_range(low, b'_', b'_');
    (letters | dash_dot_digits | underscores) & !w
}

/// The first byte at or after `at` that is not a name byte, or the end.
#[inline]
fn name_end(src: &[u8], mut at: usize) -> usize {
    loop {
        let stop = !name_bytes(word_at(src, at)) & HIGH;
        if stop != 0 {
            return at + (stop.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
}

/// The name starting at `at`: its length, and its first word with the
/// bytes past the name zeroed (the key of a [`Memo`] slot).
#[inline(always)]
fn name_at(src: &[u8], at: usize) -> (usize, u64) {
    let head = word_at(src, at);
    let stop = !name_bytes(head) & HIGH;
    if stop == 0 {
        return (name_end(src, at + 8) - at, head);
    }
    // The lowest stop bit is bit 8·len + 7; below it lie the name's bytes.
    let below = ((stop & stop.wrapping_neg()) >> 7) - 1;
    ((stop.trailing_zeros() / 8) as usize, head & below)
}

/// The index of the first `"` in `w`, if any.
#[inline]
fn quote_in(w: u64) -> Option<usize> {
    let x = w ^ splat(b'"');
    // The lowest flagged byte is the first zero byte of `x`.
    let found = x.wrapping_sub(splat(1)) & !x & HIGH;
    (found != 0).then(|| (found.trailing_zeros() / 8) as usize)
}

/// The first `"` at or after `at`, or the end.
fn quote_at(src: &[u8], mut at: usize) -> usize {
    while at < src.len() {
        if let Some(k) = quote_in(word_at(src, at)) {
            return at + k;
        }
        at += 8;
    }
    src.len()
}

/// The value of a string of `len` bytes whose first word is `head`, when
/// it is one to eight ASCII digits. Any other value is left to
/// [`Vocab::val_text`], so both agree on every input.
#[inline]
fn digits(head: u64, len: usize) -> Option<i64> {
    if !(1..=8).contains(&len) {
        return None;
    }
    // The value's bytes move to the word's top, leaving zero bytes, that
    // is, leading zero digits, below them.
    let shift = 64 - 8 * len as u32;
    let w = head << shift;
    let top = u64::MAX << shift;
    let digits = in_range(w & !HIGH, b'0', b'9') & !w;
    if digits != top & HIGH {
        return None;
    }
    // Byte i holds digit i, most significant first: fold pairs of bytes,
    // then of 16-bit and of 32-bit lanes, scaling the higher half by
    // 10, 100 and 10 000.
    let d = w ^ (splat(b'0') & top);
    let d = (d.wrapping_mul(10 << 8 | 1) >> 8) & 0x00ff_00ff_00ff_00ff;
    let d = (d.wrapping_mul(100 << 16 | 1) >> 16) & 0x0000_ffff_0000_ffff;
    let d = d.wrapping_mul(10_000 << 32 | 1) >> 32;
    Some(d as i64)
}

/// The first byte at or after `at` that is not ASCII whitespace. After a
/// newline the indentation's spaces are skipped eight bytes at a time:
/// `to_xml` indents by depth, so on a pretty-printed document most bytes
/// are these spaces.
#[inline]
fn skip_ws(src: &[u8], mut at: usize) -> usize {
    while let Some(&c) = src.get(at) {
        if !c.is_ascii_whitespace() {
            break;
        }
        at += 1;
        if c == b'\n' {
            loop {
                let spaces = (word_at(src, at) ^ splat(b' ')).trailing_zeros() / 8;
                at += spaces as usize;
                if spaces < 8 {
                    break;
                }
            }
        }
    }
    at
}

/// A per-call, direct-mapped cache in front of one of [`Vocab`]'s name
/// interners. A document uses few element and attribute names many times,
/// so nearly every lookup ends here: a multiply and a word compare instead
/// of a SipHash probe into `Vocab`'s maps. Values are not memoized: how
/// often they repeat depends on the document, and on one whose values
/// rarely repeat a value memo costs more than it saves.
///
/// A slot's key is a name's first word (zero past the name) and its
/// length; a name longer than a word also compares its remaining bytes
/// with the slot's span of the input. The slot index also mixes in the
/// name's last word, so names that share their first eight bytes spread
/// over the table. A slot is trusted only after the key compares equal,
/// so a collision, crafted or not, is a miss: the id then comes from
/// `Vocab`, whose default hasher keeps its protection against keys built
/// to collide, and the slot is overwritten. A hit returns the id an
/// earlier miss got from `Vocab`, so the ids issued and their order are
/// those of interning every token in turn.
struct Memo<T> {
    /// Empty slots have length 0, which no name has.
    slots: Vec<Slot<T>>,
    /// 64 − log₂(slots): a hash's top bits index the table.
    shift: u32,
}

#[derive(Clone, Copy)]
struct Slot<T> {
    head: u64,
    len: usize,
    start: usize,
    id: T,
}

impl<T: Copy> Memo<T> {
    /// `slots` must be a power of two; `none` fills the empty slots.
    fn new(slots: usize, none: T) -> Self {
        debug_assert!(slots.is_power_of_two());
        let empty = Slot {
            head: 0,
            len: 0,
            start: 0,
            id: none,
        };
        Memo {
            slots: vec![empty; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// The id of the name `src[start..start + len]`, whose [`name_at`]
    /// key is `head`, from its slot or else from `miss`.
    #[inline]
    fn intern(
        &mut self,
        src: &str,
        start: usize,
        (len, head): (usize, u64),
        miss: impl FnOnce(&str) -> T,
    ) -> T {
        let bytes = src.as_bytes();
        let last = if len > 8 {
            word_at(bytes, start + len - 8)
        } else {
            0
        };
        let h = (head ^ last.rotate_left(32) ^ len as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let slot = &mut self.slots[(h >> self.shift) as usize];
        if slot.head == head
            && slot.len == len
            && (len <= 8
                || bytes[slot.start + 8..slot.start + len] == bytes[start + 8..start + len])
        {
            return slot.id;
        }
        let id = miss(&src[start..start + len]);
        *slot = Slot {
            head,
            len,
            start,
            id,
        };
        id
    }
}

/// Name slots for an input of `len` bytes: about one per 32 bytes, at
/// least 16 and at most 256, so a small document does not pay for a large
/// table. A slot takes 32 bytes, so a table holds at most 8 KiB.
fn name_slots(len: usize) -> usize {
    (len / 32).clamp(16, 256).next_power_of_two()
}

/// Parse the XML subset into a tree.
///
/// One flat pass over the bytes with a local cursor and an explicit stack
/// of open elements, so nesting depth costs heap, not call stack. Names,
/// quotes and short integers are found eight bytes at a time; names and
/// values are read as spans of `src`, and a closing tag is checked
/// against its start tag's span.
pub fn parse_xml(src: &str, vocab: &mut Vocab) -> Result<Tree, ParseError> {
    let bytes = src.as_bytes();
    let mut syms = Memo::new(name_slots(bytes.len()), SymId(0));
    let mut attrs = Memo::new(16, AttrId(0));
    let mut pos = skip_ws(bytes, 0);
    if bytes.get(pos) != Some(&b'<') {
        return Err(expected(pos, '<'));
    }
    pos += 1;
    let key = name_at(bytes, pos);
    if key.0 == 0 {
        return Err(error(pos, "expected name"));
    }
    let sym = syms.intern(src, pos, key, |s| vocab.sym(s));
    let mut tree = Tree::new(Label::Sym(sym));
    // The element whose start tag is being read, and its name's start
    // and key.
    let mut node = tree.root();
    let mut name = (pos, key);
    pos += key.0;
    // Open elements, innermost last, with their start tags' names: start
    // and key.
    let mut open: Vec<(NodeId, usize, (usize, u64))> = Vec::new();
    loop {
        // `node`'s attributes, up to the `/` or `>` that ends its start
        // tag. A repeated attribute keeps its last value.
        loop {
            pos = skip_ws(bytes, pos);
            if matches!(bytes.get(pos), Some(b'/' | b'>')) {
                break;
            }
            let key = name_at(bytes, pos);
            if key.0 == 0 {
                return Err(error(pos, "expected name"));
            }
            let attr = attrs.intern(src, pos, key, |s| vocab.attr(s));
            pos = skip_ws(bytes, pos + key.0);
            if bytes.get(pos) != Some(&b'=') {
                return Err(expected(pos, '='));
            }
            pos = skip_ws(bytes, pos + 1);
            if bytes.get(pos) != Some(&b'"') {
                return Err(expected(pos, '"'));
            }
            let start = pos + 1;
            let head = word_at(bytes, start);
            pos = match quote_in(head) {
                Some(k) => start + k,
                None => quote_at(bytes, start + 8),
            };
            if pos == bytes.len() {
                return Err(expected(pos, '"'));
            }
            let value = match digits(head, pos - start) {
                Some(i) => vocab.val_int(i),
                None => vocab.val_text(&src[start..pos]),
            };
            tree.attr_column_mut(attr)[node.idx()] = value;
            pos += 1;
        }
        pos += 1;
        if bytes[pos - 1] == b'/' {
            if bytes.get(pos) != Some(&b'>') {
                return Err(expected(pos, '>'));
            }
            pos += 1;
        } else {
            open.push((node, name.0, name.1));
        }
        // Close elements until the next start tag or the document's end.
        loop {
            pos = skip_ws(bytes, pos);
            let Some(&(parent, tag, key)) = open.last() else {
                if pos != bytes.len() {
                    return Err(error(pos, "trailing input after the document element"));
                }
                return Ok(tree);
            };
            if bytes.get(pos) != Some(&b'<') {
                return Err(error(pos, "expected a child element or closing tag"));
            }
            pos += 1;
            if bytes.get(pos) == Some(&b'/') {
                pos += 1;
                let len = key.0;
                if name_at(bytes, pos) != key
                    || (len > 8 && bytes[pos + 8..pos + len] != bytes[tag + 8..tag + len])
                {
                    return Err(closing_error(src, pos, tag..tag + len));
                }
                pos = skip_ws(bytes, pos + len);
                if bytes.get(pos) != Some(&b'>') {
                    return Err(expected(pos, '>'));
                }
                pos += 1;
                open.pop();
            } else {
                let key = name_at(bytes, pos);
                if key.0 == 0 {
                    return Err(error(pos, "expected name"));
                }
                let sym = syms.intern(src, pos, key, |s| vocab.sym(s));
                node = tree.add_child(parent, Label::Sym(sym));
                name = (pos, key);
                pos += key.0;
                break;
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            // Inside the last eight bytes, and names across a word boundary.
            ("<abcdefgh", 9, "expected name"),
            ("<abcdefghi x", 12, "expected '='"),
            ("<a x=\"12345678", 14, "expected '\"'"),
            ("<a></abcdefgh", 13, "mismatched </abcdefgh>, expected </a>"),
            (
                "<abcdefghi></abcdefghj>",
                22,
                "mismatched </abcdefghj>, expected </abcdefghi>",
            ),
            (
                "<abcdefghi></abcdefgh>",
                21,
                "mismatched </abcdefgh>, expected </abcdefghi>",
            ),
            (
                "<abcdefgh></abcdefghi>",
                21,
                "mismatched </abcdefghi>, expected </abcdefgh>",
            ),
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

    /// A name of 1 to 24 name bytes; half of them extend `prefix`, so
    /// that names share their first word.
    fn random_name(rng: &mut StdRng, prefix: &str) -> String {
        const BYTES: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.";
        let start = if rng.gen_range(0..2) == 0 { prefix } else { "" };
        let len = rng.gen_range(1..25 - start.len());
        let rest: String = (0..len)
            .map(|_| char::from(BYTES[rng.gen_range(0..BYTES.len())]))
            .collect();
        start.to_owned() + &rest
    }

    /// The text of a value, 0 to 20 characters: digits with leading zeros
    /// and signs, numbers of 19 or 20 digits (some beyond `i64`), or
    /// spaces, `<`, `>`, non-ASCII and other characters.
    fn random_value_text(rng: &mut StdRng) -> String {
        let digits = |rng: &mut StdRng, n: usize| -> String {
            (0..n)
                .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
                .collect()
        };
        match rng.gen_range(0..3) {
            0 => {
                let sign = ["", "", "+", "-"][rng.gen_range(0..4usize)];
                let zeros = "0".repeat(rng.gen_range(0..4));
                let n = rng.gen_range(0..12);
                format!("{sign}{zeros}{}", digits(rng, n))
            }
            1 => {
                let n = rng.gen_range(19..21);
                digits(rng, n)
            }
            _ => {
                const CHARS: &[char] = &[' ', '<', '>', 'é', '€', 'x', '7', '+', '-', '0', '='];
                let n = rng.gen_range(0..21);
                (0..n)
                    .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
                    .collect()
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Documents with long names and awkward values read back whole,
        /// into a fresh vocabulary (issuing ids in order of first
        /// occurrence) and into one that knows every token (issuing none).
        /// Every strict prefix of a document is an error within it.
        #[test]
        fn documents_with_long_names_and_odd_values_round_trip(
            (seed, nodes, width) in (0u64..1_000_000, 1usize..24, 1usize..5)
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut v = Vocab::new();
            let prefix = &"attributes_and_names"[..rng.gen_range(8..13)];
            let symbols = (0..rng.gen_range(1..6))
                .map(|_| {
                    let name = random_name(&mut rng, prefix);
                    v.sym(&name)
                })
                .collect();
            let attributes = (0..rng.gen_range(0..4))
                .map(|_| {
                    let name = random_name(&mut rng, prefix);
                    let pool = (0..rng.gen_range(1..8))
                        .map(|_| {
                            let text = random_value_text(&mut rng);
                            v.val_text(&text)
                        })
                        .collect();
                    (v.attr(&name), pool)
                })
                .collect();
            let cfg = TreeGenConfig {
                nodes,
                max_children: width,
                symbols,
                attributes,
                collision_pool: None,
            };
            let t = random_tree(&cfg, rng.gen_range(0..1_000_000));
            let xml = to_xml(&t, &v);

            // Every token interned in document order.
            let mut want = Vocab::new();
            for u in t.nodes() {
                want.sym(v.sym_name(t.label(u).sym().expect("an element")));
                for a in (0..t.attr_columns() as u16).map(AttrId) {
                    let value = t.attr(u, a);
                    if !value.is_bot() {
                        want.attr(v.attr_name(a));
                        want.val_text(&v.value_display(value));
                    }
                }
            }
            let mut fresh = Vocab::new();
            let back = parse_xml(&xml, &mut fresh).expect("to_xml output parses");
            prop_assert_eq!(tree_to_string(&back, &fresh), tree_to_string(&t, &v));
            prop_assert_eq!(format!("{fresh:?}"), format!("{want:?}"));

            let mut known = v.clone();
            let back = parse_xml(&xml, &mut known).expect("to_xml output parses");
            prop_assert_eq!(tree_to_string(&back, &known), tree_to_string(&t, &v));
            prop_assert_eq!(format!("{known:?}"), format!("{v:?}"));

            let doc = xml.trim_end();
            for end in (0..doc.len()).filter(|&end| doc.is_char_boundary(end)) {
                let err = parse_xml(&doc[..end], &mut Vocab::new())
                    .expect_err("a strict prefix is not a document");
                prop_assert!(err.at <= end, "{:?}: {err}", &doc[..end]);
            }
        }
    }

    #[test]
    fn round_trips_more_distinct_names_than_memo_slots() {
        // 600 element names against at most 256 slots and 40 attribute
        // names against 16, so names collide, evict each other and miss.
        // Half the names of each kind are longer than a word and share
        // their first one, so slots keyed alike must compare the rest.
        let name = |short: &str, long: &str, i: usize| match i % 2 {
            0 => format!("{short}{i}"),
            _ => format!("{long}{i:04}"),
        };
        let attr_names: Vec<String> = (0..40).map(|i| name("a", "attribute-", i)).collect();
        let mut v = Vocab::new();
        let one = vec![v.val_int(1)];
        let cfg = TreeGenConfig {
            nodes: 3_000,
            max_children: 4,
            symbols: (0..600).map(|i| v.sym(&name("e", "element-", i))).collect(),
            attributes: attr_names
                .iter()
                .map(|a| (v.attr(a), one.clone()))
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
        assert_eq!(attrs, attr_names);
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
