//! The workspace's one JSON layer: a hardened parser, the one writer, and
//! the encoding rules every document shares.
//!
//! Every schema the workspace emits (`outcome/v1`, `request/v1`,
//! `campaign/v1`, `campaign-run/v1`, `rpc/v1`, `metrics/v1`, `bench/v1`
//! and the trace lines) is rendered through [`Writer`] and read back with
//! [`Value::parse`]. This crate sits beneath every other one, so the rules
//! below are decided here once:
//!
//! * **Strings** escape `"` and `\`, spell `\n`, `\r` and `\t` short, and
//!   write every other control character ([`char::is_control`], so
//!   U+007F–U+009F too) as `\u00XX`.
//! * **Numbers** are written in their shortest round-trip form (`4`, `0.1`,
//!   `1e21` is `1000000000000000000000`), and `null` when NaN or infinite:
//!   JSON has no spelling for those. [`Writer::fixed`] writes a fixed
//!   number of decimals instead, for the few fields whose spelling is
//!   pinned that way. Integers are written exactly, whatever their size.
//! * **Integers read back** (`u64`'s [`Decode`]) only as a non-negative
//!   whole number no larger than [`MAX_EXACT_INTEGER`] (2^53 − 1). Larger
//!   numbers are refused rather than rounded, since 2^53 is also the double
//!   that 2^53 + 1 parses to.
//!
//! # Layout
//!
//! A writer is pretty ([`Writer::pretty`]) or compact ([`Writer::compact`]).
//! Pretty output has exactly two container layouts ([`Layout`]): a *block*
//! container puts each member on its own line, indented two spaces per
//! enclosing block; an *inline* container keeps its members on one line,
//! `{ "a": 1, "b": [1, 2] }`. Inline containers do not indent, so a block
//! nested in an inline container is indented by the blocks around it.
//! Compact output ignores the layout and writes no whitespace at all.
//!
//! # Parsing untrusted input
//!
//! The parser also faces bytes straight off a TCP socket. Descent recurses
//! once per container level, so nesting is bounded at [`MAX_DEPTH`]
//! containers and deeper documents return a [`ParseError`] instead of
//! overflowing the stack. Strings are copied a run of plain bytes at a
//! time, so parsing stays linear in the document length. Numbers are kept
//! as `f64`, which is exact for every value the documents contain.

use std::fmt::{self, Write as _};
use std::time::Duration;

/// Maximum container (object/array) nesting depth [`Value::parse`] accepts.
///
/// Deeper documents fail with a parse error naming this limit rather than
/// recursing towards a stack overflow. 128 is orders of magnitude beyond
/// any document the workspace emits (outcome documents nest 5 levels).
pub const MAX_DEPTH: usize = 128;

/// The largest integer `u64`'s [`Decode`] accepts: 2^53 − 1, the largest
/// `n` for which the double nearest `n` is `n` and no other integer's.
pub const MAX_EXACT_INTEGER: u64 = (1 << 53) - 1;

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

    /// Member of an object by key (first match), moved out of the object,
    /// if this is an object.
    pub fn into_member(self, key: &str) -> Option<Value> {
        match self {
            Value::Obj(members) => members.into_iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// This value with every object member named `key` dropped, at any
    /// depth; all other members keep their order. Tests compare two runs'
    /// documents through it with the wall-clock member dropped.
    pub fn without(self, key: &str) -> Value {
        match self {
            Value::Obj(members) => Value::Obj(
                members
                    .into_iter()
                    .filter(|(k, _)| k != key)
                    .map(|(k, v)| (k, v.without(key)))
                    .collect(),
            ),
            Value::Arr(items) => Value::Arr(items.into_iter().map(|v| v.without(key)).collect()),
            other => other,
        }
    }

    /// Renders the value back as compact single-line JSON, preserving
    /// member order. Two structurally-equal values render identically, so
    /// `parse` + `render` is a canonical form for comparing documents that
    /// may differ only in whitespace.
    pub fn render(&self) -> String {
        let mut writer = Writer::compact();
        writer.value(self);
        writer.finish()
    }
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
            Some(open @ (b'{' | b'[')) => self.container(open),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// An object (`open` is `{`) or an array (`[`).
    fn container(&mut self, open: u8) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(&format!(
                "document nests deeper than {MAX_DEPTH} containers"
            )));
        }
        self.depth += 1;
        self.pos += 1;
        let (object, close) = (open == b'{', if open == b'{' { b'}' } else { b']' });
        let (mut members, mut items) = (Vec::new(), Vec::new());
        self.skip_whitespace();
        if self.peek() != Some(close) {
            loop {
                self.skip_whitespace();
                if object {
                    let key = self.string()?;
                    self.skip_whitespace();
                    self.expect(b':')?;
                    self.skip_whitespace();
                    members.push((key, self.value()?));
                } else {
                    items.push(self.value()?);
                }
                self.skip_whitespace();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ if object => return Err(self.error("expected `,` or `}` in object")),
                    _ => return Err(self.error("expected `,` or `]` in array")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(if object {
            Value::Obj(members)
        } else {
            Value::Arr(items)
        })
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

/// How a pretty [`Writer`] lays out one container; compact output ignores
/// it. See the [module docs](self#layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces per enclosing block.
    Block,
    /// All members on one line: `{ "a": 1, "b": 2 }` and `[1, 2]`.
    Inline,
}

/// One open container of a [`Writer`].
struct Frame {
    layout: Layout,
    array: bool,
    empty: bool,
}

/// The one JSON writer: streams a document into a `String` with the
/// encoding rules of the [module docs](self).
///
/// Containers are written by closures, so they always close:
///
/// ```
/// use rlp_obs::json::{Layout, Writer};
///
/// let mut w = Writer::pretty();
/// w.object(Layout::Block, |w| {
///     w.field("schema", "demo/v1");
///     w.key("grid").array(Layout::Inline, |w| {
///         w.value(16u64).value(16u64);
///     });
///     w.key("cache").object(Layout::Inline, |w| {
///         w.field("hits", 3u64).field("ratio", f64::NAN);
///     });
/// });
/// assert_eq!(
///     w.finish(),
///     "{\n  \"schema\": \"demo/v1\",\n  \"grid\": [16, 16],\n  \
///      \"cache\": { \"hits\": 3, \"ratio\": null }\n}"
/// );
/// ```
pub struct Writer {
    out: String,
    pretty: bool,
    /// Block containers enclosing the write position: the indentation.
    depth: usize,
    stack: Vec<Frame>,
}

impl Writer {
    /// A writer for indented documents.
    pub fn pretty() -> Writer {
        Writer::new(true)
    }

    /// A writer for single-line documents without whitespace.
    pub fn compact() -> Writer {
        Writer::new(false)
    }

    fn new(pretty: bool) -> Writer {
        Writer {
            out: String::with_capacity(256),
            pretty,
            depth: 0,
            stack: Vec::new(),
        }
    }

    /// The rendered document.
    pub fn finish(self) -> String {
        self.out
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Writes the separator and line break due before the next member or
    /// element of the innermost container.
    fn next_member(&mut self) {
        let Some(frame) = self.stack.last_mut() else {
            return;
        };
        let (first, layout, array) = (frame.empty, frame.layout, frame.array);
        frame.empty = false;
        if !first {
            self.out.push(',');
        }
        match layout {
            _ if !self.pretty => {}
            Layout::Block => self.newline(),
            Layout::Inline if !first || !array => self.out.push(' '),
            Layout::Inline => {}
        }
    }

    /// Positions the writer for a value. An object member's separator came
    /// with its key; an array element's comes here.
    fn begin_value(&mut self) -> &mut String {
        if self.stack.last().is_some_and(|f| f.array) {
            self.next_member();
        }
        &mut self.out
    }

    fn container(&mut self, layout: Layout, array: bool, body: impl FnOnce(&mut Writer)) {
        self.begin_value().push(if array { '[' } else { '{' });
        let block = layout == Layout::Block;
        self.depth += usize::from(block);
        self.stack.push(Frame {
            layout,
            array,
            empty: true,
        });
        body(self);
        let empty = self.stack.pop().is_some_and(|f| f.empty);
        self.depth -= usize::from(block);
        match layout {
            _ if !self.pretty || empty => {}
            Layout::Block => self.newline(),
            Layout::Inline if !array => self.out.push(' '),
            Layout::Inline => {}
        }
        self.out.push(if array { ']' } else { '}' });
    }

    /// Writes an object whose members `body` writes with [`key`](Self::key)
    /// + value or [`field`](Self::field).
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container(layout, false, body);
        self
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Writer)) -> &mut Self {
        self.container(layout, true, body);
        self
    }

    /// Starts an object member; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.next_member();
        write_string(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
        self
    }

    /// Writes one object member: [`key`](Self::key) then
    /// [`value`](Self::value).
    pub fn field(&mut self, key: &str, value: impl Encode) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes a scalar, a pair, a list or a parsed [`Value`] as the next
    /// value.
    pub fn value(&mut self, value: impl Encode) -> &mut Self {
        value.encode(self);
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// Writes a number with exactly `decimals` digits after the point
    /// (`null` when non-finite), for the fields whose spelling is pinned
    /// that way.
    pub fn fixed(&mut self, value: f64, decimals: usize) -> &mut Self {
        if !value.is_finite() {
            return self.null();
        }
        let _ = write!(self.begin_value(), "{value:.decimals$}");
        self
    }

    /// Writes an already-rendered JSON document as the next value,
    /// verbatim.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.begin_value().push_str(json);
        self
    }
}

/// A value [`Writer::value`] and [`Writer::field`] can write.
pub trait Encode {
    /// Writes `self` as the writer's next value.
    fn encode(&self, w: &mut Writer);
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut Writer) {
        (**self).encode(w);
    }
}

/// `null` when `None`.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            Some(value) => value.encode(w),
            None => {
                w.null();
            }
        }
    }
}

/// Integers and booleans, exactly as `Display` spells them.
macro_rules! encode_display {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, w: &mut Writer) {
                let _ = write!(w.begin_value(), "{self}");
            }
        }
    )*};
}

encode_display!(u32, u64, usize, i64, bool);

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        write_number(w.begin_value(), *self);
    }
}

/// Written as the `f64` it widens to.
impl Encode for f32 {
    fn encode(&self, w: &mut Writer) {
        f64::from(*self).encode(w);
    }
}

/// Seconds, as a number.
impl Encode for Duration {
    fn encode(&self, w: &mut Writer) {
        self.as_secs_f64().encode(w);
    }
}

impl Encode for str {
    fn encode(&self, w: &mut Writer) {
        write_string(w.begin_value(), self);
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        self.as_str().encode(w);
    }
}

/// An inline two-element array.
impl<T: Encode> Encode for (T, T) {
    fn encode(&self, w: &mut Writer) {
        w.array(Layout::Inline, |w| {
            w.value(&self.0).value(&self.1);
        });
    }
}

/// An inline array.
impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.array(Layout::Inline, |w| {
            for item in self {
                w.value(item);
            }
        });
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

/// Objects and arrays are written inline.
impl Encode for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Null => {
                w.null();
            }
            Value::Bool(b) => b.encode(w),
            Value::Num(n) => n.encode(w),
            Value::Str(s) => s.encode(w),
            Value::Arr(items) => items.encode(w),
            Value::Obj(members) => {
                w.object(Layout::Inline, |w| {
                    for (key, value) in members {
                        w.field(key, value);
                    }
                });
            }
        }
    }
}

/// A value that reads back from a parsed [`Value`] by the rules of the
/// [module docs](self): what [`Encode`] writes, `decode` reads.
pub trait Decode: Sized {
    /// What a value must be to decode, completing "must be …" in error
    /// messages.
    const EXPECTED: &'static str;

    /// The decoded value, or `None` when `value` is not one.
    fn decode(value: &Value) -> Option<Self>;
}

macro_rules! decode {
    ($($t:ty, $expected:literal, |$v:ident| $body:expr;)*) => {$(
        impl Decode for $t {
            const EXPECTED: &'static str = $expected;

            fn decode($v: &Value) -> Option<Self> {
                $body
            }
        }
    )*};
}

decode! {
    // `null`, the encoding of NaN and ±inf, reads back as NaN.
    f64, "a number or null", |v| match v {
        Value::Num(n) => Some(*n),
        Value::Null => Some(f64::NAN),
        _ => None,
    };
    f32, "a number or null", |v| f64::decode(v).map(|n| n as f32);
    // The one rule for reading an integer back.
    u64, "a non-negative integer", |v| match v {
        Value::Num(n) if n.fract() == 0.0 && (0.0..=MAX_EXACT_INTEGER as f64).contains(n) => {
            Some(*n as u64)
        }
        _ => None,
    };
    usize, "a non-negative integer", |v| u64::decode(v).map(|n| n as usize);
    bool, "a boolean", |v| match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    };
    String, "a string", |v| v.as_str().map(str::to_string);
    // Negative, non-finite and too-long durations (above ~1.8e19 s) are
    // refused, not a panic.
    Duration, "a non-negative duration", |v| {
        f64::decode(v).and_then(|s| Duration::try_from_secs_f64(s).ok())
    };
}

/// `null` or the value.
impl<T: Decode> Decode for Option<T> {
    const EXPECTED: &'static str = T::EXPECTED;

    fn decode(value: &Value) -> Option<Self> {
        match value {
            Value::Null => Some(None),
            value => T::decode(value).map(Some),
        }
    }
}

impl<T: Decode> Decode for (T, T) {
    const EXPECTED: &'static str = "a two-element array";

    fn decode(value: &Value) -> Option<Self> {
        match value.as_array()? {
            [a, b] => Some((T::decode(a)?, T::decode(b)?)),
            _ => None,
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    const EXPECTED: &'static str = "an array";

    fn decode(value: &Value) -> Option<Self> {
        value.as_array()?.iter().map(T::decode).collect()
    }
}

/// The number encoding: shortest round-trip form, `null` when non-finite.
fn write_number(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// The string encoding: quoted and escaped per RFC 8259 §7, with every
/// [`char::is_control`] character escaped.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(value: impl Encode) -> String {
        let mut w = Writer::compact();
        w.value(value);
        w.finish()
    }

    #[test]
    fn into_member_moves_out_what_get_borrows() {
        let doc = Value::parse(r#"{"a": [1, {"b": 2}], "a": 3, "c": null}"#).unwrap();
        assert_eq!(doc.clone().into_member("a").as_ref(), doc.get("a"));
        assert_eq!(doc.clone().into_member("c"), Some(Value::Null));
        assert_eq!(doc.into_member("missing"), None);
        assert_eq!(Value::Arr(vec![]).into_member("a"), None);
    }

    #[test]
    fn without_drops_the_member_at_every_depth_and_keeps_the_rest_in_order() {
        let doc = r#"{"z":1,"t":{"x":1},"a":[{"t":2,"b":3,"c":[{"d":4,"t":null}]},5],"c":{"t":[],"e":6}}"#;
        assert_eq!(
            Value::parse(doc).unwrap().without("t").render(),
            r#"{"z":1,"a":[{"b":3,"c":[{"d":4}]},5],"c":{"e":6}}"#
        );
        // A document without the member comes back byte-identical.
        let plain = r#"{"b":[1,{"c":"t","d":[{"e":null}]}],"a":{"f":true}}"#;
        assert_eq!(Value::parse(plain).unwrap().without("t").render(), plain);
        assert_eq!(Value::Num(2.0).without("t"), Value::Num(2.0));
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
    fn integers_read_back_exactly_or_not_at_all() {
        let uint = |text: &str| u64::decode(&Value::parse(text).unwrap());
        assert_eq!(uint("0"), Some(0));
        assert_eq!(uint("9007199254740991"), Some(MAX_EXACT_INTEGER));
        // 2^53 is also what 2^53 + 1 parses to, so both are ambiguous.
        assert_eq!(uint("9007199254740992"), None);
        assert_eq!(uint("9007199254740993"), None);
        for bad in ["-1", "1.5", "1e300", "-0.5", "null", "\"3\""] {
            assert_eq!(uint(bad), None, "{bad}");
        }
    }

    #[test]
    fn decode_reads_back_what_encode_writes() {
        fn round_trip<T: Encode + Decode>(value: T) -> Option<T> {
            T::decode(&Value::parse(&compact(value)).unwrap())
        }
        assert_eq!(round_trip(1.5f64), Some(1.5));
        assert!(round_trip(f64::NAN).unwrap().is_nan());
        assert_eq!(round_trip(0.2f32), Some(0.2f32));
        assert_eq!(round_trip(MAX_EXACT_INTEGER), Some(MAX_EXACT_INTEGER));
        assert_eq!(round_trip(u64::MAX), None, "refused, not rounded");
        assert_eq!(round_trip(true), Some(true));
        assert_eq!(round_trip("a\"b".to_string()), Some("a\"b".to_string()));
        assert_eq!(
            round_trip(Duration::from_millis(1250)),
            Some(Duration::from_millis(1250))
        );
        assert_eq!(round_trip(None::<usize>), Some(None));
        assert_eq!(round_trip(Some(3usize)), Some(Some(3)));
        assert_eq!(round_trip((16usize, 8usize)), Some((16, 8)));
        assert_eq!(round_trip(vec![4.0, 10.5]), Some(vec![4.0, 10.5]));

        let decode = |text: &str| Value::parse(text).unwrap();
        assert_eq!(Duration::decode(&decode("-1")), None);
        assert_eq!(Duration::decode(&decode("null")), None);
        assert_eq!(Duration::decode(&decode("0")), Some(Duration::ZERO));
        assert_eq!(<(usize, usize)>::decode(&decode("[1, 2, 3]")), None);
        assert_eq!(<(usize, usize)>::decode(&decode("[1, -2]")), None);
        assert_eq!(Vec::<f64>::decode(&decode("[1, \"x\"]")), None);
        assert_eq!(String::decode(&decode("3")), None);
        assert_eq!(<Vec<u64>>::EXPECTED, "an array");
    }

    #[test]
    fn durations_too_long_to_represent_are_refused_not_a_panic() {
        for text in ["1e300", "2e19", "1e999"] {
            let value = Value::parse(text).unwrap();
            assert_eq!(Duration::decode(&value), None, "{text}");
        }
        let longest = Value::parse("1e19").unwrap();
        assert_eq!(
            Duration::decode(&longest),
            Some(Duration::from_secs(10_000_000_000_000_000_000))
        );
    }

    #[test]
    fn quotes_backslashes_and_control_characters_are_escaped() {
        assert_eq!(compact("plain"), "\"plain\"");
        assert_eq!(compact("a\"b"), "\"a\\\"b\"");
        assert_eq!(compact("a\\b"), "\"a\\\\b\"");
        assert_eq!(compact("a\nb\tc\r"), "\"a\\nb\\tc\\r\"");
        assert_eq!(compact("\u{7}"), "\"\\u0007\"");
        // DEL and the C1 controls are control characters too.
        assert_eq!(compact("\u{7f}\u{85}\u{9f}"), "\"\\u007f\\u0085\\u009f\"");
        assert_eq!(compact("日本 ✓"), "\"日本 ✓\"");
        // Keys are escaped by the same rule.
        let mut w = Writer::compact();
        w.object(Layout::Inline, |w| {
            w.field("k\"\u{1}", 1u64);
        });
        assert_eq!(w.finish(), "{\"k\\\"\\u0001\":1}");
    }

    #[test]
    fn numbers_are_shortest_round_trip_and_null_when_non_finite() {
        assert_eq!(compact(f64::NAN), "null");
        assert_eq!(compact(f64::INFINITY), "null");
        assert_eq!(compact(f64::NEG_INFINITY), "null");
        assert_eq!(compact(-1.25), "-1.25");
        assert_eq!(compact(4.0), "4");
        assert_eq!(compact(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(compact(0.2f32), "0.20000000298023224");
        // Integers are exact at any size.
        assert_eq!(compact(u64::MAX), "18446744073709551615");
        assert_eq!(compact(i64::MIN), "-9223372036854775808");
        let mut w = Writer::compact();
        w.array(Layout::Inline, |w| {
            w.fixed(4.0, 4).fixed(1.0 / 3.0, 6).fixed(f64::NAN, 4);
        });
        assert_eq!(w.finish(), "[4.0000,0.333333,null]");
    }

    #[test]
    fn pretty_layouts_nest_by_block_depth() {
        let mut w = Writer::pretty();
        w.object(Layout::Block, |w| {
            w.key("empty_block").array(Layout::Block, |_| {});
            w.key("empty_inline").object(Layout::Inline, |_| {});
            w.key("rows").array(Layout::Block, |w| {
                w.object(Layout::Inline, |w| {
                    w.field("a", 1u64).field("b", None::<f64>);
                });
                w.object(Layout::Block, |w| {
                    w.field("deep", true);
                });
            });
            w.key("frame").object(Layout::Inline, |w| {
                w.field("t", "x");
                w.key("doc").object(Layout::Block, |w| {
                    w.field("k", 2u64);
                });
            });
        });
        assert_eq!(
            w.finish(),
            "{\n  \"empty_block\": [],\n  \"empty_inline\": {},\n  \"rows\": [\n    \
             { \"a\": 1, \"b\": null },\n    {\n      \"deep\": true\n    }\n  ],\n  \
             \"frame\": { \"t\": \"x\", \"doc\": {\n    \"k\": 2\n  } }\n}"
        );
    }

    #[test]
    fn compact_output_ignores_the_layout() {
        let mut w = Writer::compact();
        w.object(Layout::Block, |w| {
            w.key("a").array(Layout::Block, |w| {
                w.value(1u64).value("x");
            });
            w.key("b").object(Layout::Inline, |_| {});
            w.key("c").raw("[true]");
        });
        assert_eq!(w.finish(), "{\"a\":[1,\"x\"],\"b\":{},\"c\":[true]}");
    }
}
