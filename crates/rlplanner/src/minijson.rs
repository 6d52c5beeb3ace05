//! A minimal JSON value parser for the documents the workspace reads back.
//!
//! The workspace builds offline against a no-op vendored `serde`, so the
//! documents it *writes* are rendered by hand — and the places that must
//! *read* JSON back (resuming `rlplanner.campaign-run/v1` streams, parsing
//! outcome documents, comparing `rlplanner.bench/v1` reports) parse with
//! this module instead. It is a straightforward recursive-descent parser
//! over the RFC 8259 grammar: objects, arrays, strings (with escapes),
//! numbers, booleans and `null`. Numbers are surfaced as `f64`, which is
//! exact for every value those documents contain.
//!
//! The parser also faces untrusted input: the `rlp-serve` daemon feeds it
//! bytes straight off a TCP socket. Because descent recurses once per
//! container level, an adversarial document like `[[[[...` would otherwise
//! translate attacker-controlled input size into stack depth and crash the
//! process with a stack overflow. Nesting is therefore bounded at
//! [`MAX_DEPTH`] containers; documents deeper than that return a regular
//! [`ParseError`] instead. Every document this workspace writes nests a
//! handful of levels, so the bound is invisible to legitimate traffic.

use std::fmt;

/// Maximum container (object/array) nesting depth [`Value::parse`] accepts.
///
/// Deeper documents fail with a parse error naming this limit rather than
/// recursing towards a stack overflow. 128 is orders of magnitude beyond
/// any document the workspace emits (outcome documents nest 5 levels).
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order (duplicate keys keep both entries).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the byte offset of the first
    /// violation.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Member of an object by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value back as compact single-line JSON, preserving
    /// member order. Two structurally-equal values render identically, so
    /// `parse` + `render` is a canonical form for comparing documents that
    /// may differ only in whitespace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&format!("{n}")),
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes and quotes a string per RFC 8259 §7.
fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the violated rule.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting depth, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn enter_container(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(&format!(
                "document nests deeper than {MAX_DEPTH} containers"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.enter_container()?;
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            members.push((key, self.value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.enter_container()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let start = self.pos + 1;
                            let end = start + 4;
                            let hex = self
                                .bytes
                                .get(start..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates are not paired up; the documents
                            // this parser reads never emit them.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote,
                    // backslash or control byte in one step. Those stop
                    // bytes are ASCII, so the run ends on a char boundary of
                    // the (valid UTF-8) input. Decode only the run: decoding
                    // the rest of the document at every character would make
                    // parsing quadratic in the document length.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    if self.pos == start {
                        return Err(self.error("unescaped control character"));
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.error("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{ "schema": "rlplanner.bench/v1", "ok": true, "none": null,
                      "benchmarks": [ { "id": "a/b", "median_ns": 12.5 },
                                      { "id": "c", "median_ns": 3e2 } ] }"#;
        let value = Value::parse(doc).unwrap();
        assert_eq!(
            value.get("schema").and_then(Value::as_str),
            Some("rlplanner.bench/v1")
        );
        assert_eq!(value.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(value.get("none"), Some(&Value::Null));
        let benches = value.get("benchmarks").and_then(Value::as_array).unwrap();
        assert_eq!(benches.len(), 2);
        assert_eq!(benches[0].get("id").and_then(Value::as_str), Some("a/b"));
        assert_eq!(
            benches[1].get("median_ns").and_then(Value::as_f64),
            Some(300.0)
        );
    }

    #[test]
    fn parses_escapes_and_negative_numbers() {
        let value = Value::parse(r#"{ "s": "a\"b\\c\ndA", "n": -1.25 }"#).unwrap();
        assert_eq!(value.get("s").and_then(Value::as_str), Some("a\"b\\c\ndA"));
        assert_eq!(value.get("n").and_then(Value::as_f64), Some(-1.25));
    }

    #[test]
    fn multibyte_strings_and_control_characters() {
        let value = Value::parse("{ \"s\": \"héllo ✓ 日本\\n\" }").unwrap();
        assert_eq!(
            value.get("s").and_then(Value::as_str),
            Some("héllo ✓ 日本\n")
        );
        let err = Value::parse("[\"ab\u{1}c\"]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.message.contains("control character"), "{err}");
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(Value::parse("{}").unwrap(), Value::Obj(vec![]));
        assert_eq!(Value::parse("[ ]").unwrap(), Value::Arr(vec![]));
    }

    #[test]
    fn malformed_documents_report_an_offset() {
        for bad in [
            "{",
            "{\"a\" 1}",
            "[1,]",
            "tru",
            "\"unterminated",
            "{} extra",
        ] {
            let err = Value::parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad}");
            assert!(err.to_string().contains("at byte"), "{bad}");
        }
    }

    #[test]
    fn render_round_trips_and_is_canonical() {
        let pretty = "{\n  \"a\": [1, 2.5, null],\n  \"s\": \"x\\ny\",\n  \"ok\": true\n}";
        let compact = "{\"a\":[1,2.5,null],\"s\":\"x\\ny\",\"ok\":true}";
        let value = Value::parse(pretty).unwrap();
        assert_eq!(value.render(), compact);
        // Canonical: parsing the render reproduces the same value and the
        // same bytes.
        let reparsed = Value::parse(&value.render()).unwrap();
        assert_eq!(reparsed, value);
        assert_eq!(reparsed.render(), compact);
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // A 10k-deep array must come back as a parse error, not recurse the
        // parser into a stack overflow — this is socket-facing code.
        let hostile = "[".repeat(10_000);
        let err = Value::parse(&hostile).unwrap_err();
        assert!(
            err.message.contains("nests deeper"),
            "unexpected error: {err}"
        );
        let hostile_objects = "{\"k\":".repeat(10_000);
        let err = Value::parse(&hostile_objects).unwrap_err();
        assert!(
            err.message.contains("nests deeper"),
            "unexpected error: {err}"
        );

        // The limit counts *nesting*, not total containers: a long but flat
        // document parses fine...
        let flat = format!("[{}]", vec!["[]"; 1000].join(","));
        assert!(Value::parse(&flat).is_ok());
        // ...as does a document exactly at the bound.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&at_limit).is_ok());
        let over_limit = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Value::parse(&over_limit).is_err());
    }

    #[test]
    fn accessors_are_type_checked() {
        let value = Value::parse("[1]").unwrap();
        assert!(value.get("x").is_none());
        assert!(value.as_f64().is_none());
        assert!(value.as_str().is_none());
        assert_eq!(value.as_array().map(<[Value]>::len), Some(1));
    }
}
