//! A minimal JSON value type with a writer and a recursive-descent parser.
//!
//! The build environment has no access to crates.io, so the causal
//! traces and the machine-readable experiment reports cannot use `serde_json`;
//! this module implements exactly the subset they need. Object key order
//! is preserved (objects are association lists), numbers are `i64` when
//! integral and `f64` otherwise, and the writer emits ASCII-safe output
//! that the parser round-trips.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number.
    Int(i64),
    /// A non-integral (or out-of-`i64`-range) number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, with insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a float (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(n) => Some(n as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let text = format!("{f}");
                    out.push_str(&text);
                    // `{}` prints integral floats without a fraction; keep
                    // the value a float on re-parse.
                    if !text.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/Inf; null is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (exactly one value, surrounding whitespace
    /// allowed).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        match i64::try_from(n) {
            Ok(i) => Json::Int(i),
            Err(_) => Json::Float(n as f64),
        }
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(i64::from(n))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Escaped surrogates are not produced by the
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                None => return Err(self.err("unterminated string")),
                _ => unreachable!(),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_scalars() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Int(-42), "-42"),
            (Json::Str("a\"b\\c\nd".into()), r#""a\"b\\c\nd""#),
        ] {
            assert_eq!(v.render(), s);
            assert_eq!(Json::parse(s).unwrap(), v);
        }
    }

    #[test]
    fn floats_stay_floats() {
        assert_eq!(Json::Float(2.5).render(), "2.5");
        assert_eq!(Json::Float(3.0).render(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
    }

    #[test]
    fn nested_round_trip() {
        let v = Json::obj([
            ("id", Json::str("E1")),
            (
                "rows",
                Json::Arr(vec![Json::Int(1), Json::Float(0.5), Json::Null]),
            ),
            ("ok", Json::Bool(false)),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn object_access() {
        let v = Json::parse(r#"{"a": 1, "b": {"c": [true, "x"]}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_i64), Some(1));
        let inner = v
            .get("b")
            .and_then(|b| b.get("c"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(inner[0].as_bool(), Some(true));
        assert_eq!(inner[1].as_str(), Some("x"));
    }

    #[test]
    fn unicode_and_control_escapes() {
        let v = Json::Str("δ\u{1}▽".into());
        let s = v.render();
        assert!(s.contains("\\u0001"), "{s}");
        assert_eq!(Json::parse(&s).unwrap(), v);
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn errors_carry_position() {
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(e.message, "expected a value");
        assert!(e.offset >= 6, "{e}");
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("12 34").is_err());
    }

    #[test]
    fn u64_conversion_widens() {
        assert_eq!(Json::from(7u64), Json::Int(7));
        assert!(matches!(Json::from(u64::MAX), Json::Float(_)));
    }
}
