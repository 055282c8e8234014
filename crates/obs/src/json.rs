//! Minimal JSON value model, writer, and linear-time pull reader.
//!
//! The vendored `serde` is an API stub, so trace records, exporter output
//! and wire frames are encoded by hand. This module is the shared
//! mechanism: a small `Value` tree, lossless `f64` formatting (Rust's
//! shortest round-trip `Display`), and a strict [`Reader`] that [`parse`]
//! builds trees on and schema-aware decoders drive directly.

use std::fmt::Write as _;

/// A parsed JSON value. Object keys keep source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (integers up to 2^53 survive the f64 round trip).
    Num(f64),
    /// String with escapes resolved.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if it survives the f64 round
    /// trip without truncation (JSON integers up to 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// An object with `members` in the given order.
    pub fn object<const N: usize>(members: [(&str, Value); N]) -> Value {
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Required member `key`, read by `read`: an `Err` naming the member
    /// when it is missing or `read` finds it is not `kind`. The typed
    /// accessors below are the record decoders' only way into a value.
    fn field<'v, T>(
        &'v self,
        key: &str,
        kind: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<T, String> {
        let value = self
            .get(key)
            .ok_or_else(|| format!("missing field {key:?}"))?;
        read(value).ok_or_else(|| format!("field {key:?} must be {kind}"))
    }

    /// Required string member.
    pub(crate) fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key, "a string", Value::as_str)
    }

    /// Required boolean member.
    pub(crate) fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.field(key, "a bool", Value::as_bool)
    }

    /// Required integer member (see [`Value::as_u64`]).
    pub(crate) fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.field(key, "a non-negative integer", Value::as_u64)
    }

    /// Required non-negative number member.
    pub(crate) fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.field(key, "a non-negative number", |v| {
            v.as_f64().filter(|n| *n >= 0.0)
        })
    }

    /// Required array member, every element decoded by `read`; an error
    /// names the element (`key[i]: …`).
    pub(crate) fn items<T>(
        &self,
        key: &str,
        mut read: impl FnMut(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.field(key, "an array", Value::as_arr)?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| read(item).map_err(|e| format!("{key}[{i}]: {e}")))
            .collect()
    }

    /// Serialize this value as a compact JSON document. Numbers use the
    /// same shortest round-trip formatting as [`write_f64`], so
    /// `parse(v.to_json()) == v` for any finite tree.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append this value's JSON encoding to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_f64(out, *n),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// Append a JSON string literal (with escaping) to `out`. Runs between
/// escaped characters are copied whole.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Start of the run not yet copied. Every byte that needs an escape is
    // ASCII, so the run always ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..0x20 => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        match escape {
            Some(short) => out.push_str(short),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Format an `f64` so it parses back bit-identically (shortest
/// round-trip `Display`); non-finite values become `null` per JSON.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut reader = Reader::new(input);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// Containers nested deeper than this are rejected: the reader recurses
/// once per level, and a frame of 16 M `[` must not overflow the stack.
const MAX_DEPTH: usize = 128;

/// A strict pull tokenizer over one JSON document, linear in its length.
///
/// The input is already `&str`, and every cut the reader makes falls on
/// an ASCII byte, so strings and numbers are sliced out without being
/// validated again. [`parse`] builds a [`Value`] tree on it; a decoder
/// that knows its schema drives it directly ([`Reader::try_object`],
/// [`Reader::try_array`], the scalar readers) and allocates only what it
/// keeps. The `try_*` readers consume the next value whatever it is and
/// report a value of another type as `None`/`false`, which is how a
/// lenient decoder says "absent or mistyped means the default".
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a str) -> Reader<'a> {
        Reader { src: input, pos: 0, depth: 0 }
    }

    /// Skip whitespace and return the first byte of the next value.
    fn peek(&mut self) -> Result<u8, String> {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Ok(b);
            }
            self.pos += 1;
        }
        Err("unexpected end of input".into())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.src.as_bytes().get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    /// Nothing but whitespace may follow the document's one value.
    pub fn finish(mut self) -> Result<(), String> {
        match self.peek() {
            Err(_) => Ok(()),
            Ok(_) => Err(format!("trailing bytes at offset {}", self.pos)),
        }
    }

    /// Read the next value as a tree.
    pub fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => {
                let mut members = Vec::new();
                self.try_object(|r, key| {
                    members.push((key.into_owned(), r.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            b'[' => {
                let mut items = Vec::new();
                self.try_array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            b'"' => Ok(Value::Str(self.string()?.into_owned())),
            b't' => self.literal("true").map(|()| Value::Bool(true)),
            b'f' => self.literal("false").map(|()| Value::Bool(false)),
            b'n' => self.literal("null").map(|()| Value::Null),
            _ => self.number().map(Value::Num),
        }
    }

    /// Read the next value and drop it (validated like any other).
    pub fn skip(&mut self) -> Result<(), String> {
        self.value().map(drop)
    }

    /// The next value if it is a number; any other value is skipped.
    pub fn try_f64(&mut self) -> Result<Option<f64>, String> {
        match self.peek()? {
            b'-' | b'0'..=b'9' => self.number().map(Some),
            _ => self.skip().map(|()| None),
        }
    }

    /// The next value if it is a boolean; any other value is skipped.
    pub fn try_bool(&mut self) -> Result<Option<bool>, String> {
        match self.peek()? {
            b't' => self.literal("true").map(|()| Some(true)),
            b'f' => self.literal("false").map(|()| Some(false)),
            _ => self.skip().map(|()| None),
        }
    }

    /// If the next value is an array, call `each` positioned at every
    /// element in turn (it must consume exactly that element) and return
    /// `true`; any other value is skipped and `false` returned.
    pub fn try_array(
        &mut self,
        each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        self.try_container(b'[', b']', each)
    }

    /// If the next value is an object, call `each` with every member's
    /// key, positioned at that member's value (it must consume exactly
    /// that value), and return `true`; any other value is skipped and
    /// `false` returned. Keys without escapes are borrowed from the input.
    pub fn try_object(
        &mut self,
        mut each: impl FnMut(&mut Self, std::borrow::Cow<'a, str>) -> Result<(), String>,
    ) -> Result<bool, String> {
        self.try_container(b'{', b'}', |r| {
            let key = r.string()?;
            r.peek()?;
            r.expect(b':')?;
            each(r, key)
        })
    }

    /// The comma-separated items between `open` and `close`, each read by
    /// `item` (called after leading whitespace); `false`, with the value
    /// skipped, when the next value does not start with `open`.
    fn try_container(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.peek()? != open {
            return self.skip().map(|()| false);
        }
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        if self.peek()? == close {
            self.pos += 1;
        } else {
            loop {
                self.peek()?;
                item(self)?;
                let next = self.peek()?;
                self.pos += 1;
                if next == close {
                    break;
                }
                if next != b',' {
                    return Err(format!(
                        "expected ',' or '{}' at offset {}",
                        char::from(close),
                        self.pos - 1
                    ));
                }
            }
        }
        self.depth -= 1;
        Ok(true)
    }

    /// A number token: the run of number characters is sliced out and
    /// handed to `f64::from_str`, which is laxer than JSON only in ways
    /// the first-byte dispatch and the finiteness check close (`+1`,
    /// `1e999`) or that no encoder emits (`.5`, `01`).
    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        if bytes.get(start) == Some(&b'+') {
            return Err(format!("invalid number at offset {start}: leading '+'"));
        }
        while matches!(bytes.get(self.pos), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(format!("invalid number {text:?} at offset {start}")),
        }
    }

    /// A string token with escapes resolved. Each run up to the next `"`
    /// or `\` is taken in one step; a string without escapes is borrowed.
    fn string(&mut self) -> Result<std::borrow::Cow<'a, str>, String> {
        use std::borrow::Cow;
        self.expect(b'"')?;
        let bytes = self.src.as_bytes();
        // Allocated at the first escape.
        let mut unescaped: Option<String> = None;
        loop {
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            // Both stop bytes are ASCII, so the run ends on a char boundary.
            let text = &self.src[self.pos..self.pos + run];
            self.pos += run + 1;
            if bytes[self.pos - 1] == b'"' {
                return Ok(match unescaped {
                    None => Cow::Borrowed(text),
                    Some(mut out) => {
                        out.push_str(text);
                        Cow::Owned(out)
                    }
                });
            }
            let out = unescaped.get_or_insert_with(String::new);
            out.push_str(text);
            let escape = *bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => self.unicode_escape()?,
                _ => return Err(format!("bad escape at offset {}", self.pos - 1)),
            });
        }
    }

    /// The scalar of a `\uXXXX` escape whose `\u` is already consumed. A
    /// high surrogate followed by an escaped low surrogate is one scalar
    /// (how every standard encoder writes a character beyond the BMP); a
    /// surrogate without its partner becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
            let after_high = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(scalar).expect("a surrogate pair is a scalar"));
            }
            // Not a low surrogate: leave that escape for the next round.
            self.pos = after_high;
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut code = 0u32;
        for &d in digits {
            let digit = char::from(d)
                .to_digit(16)
                .ok_or_else(|| format!("bad \\u escape at offset {}", self.pos))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let s = |doc: &str| parse(doc).unwrap().as_str().unwrap().to_string();
        assert_eq!(s(r#""\ud83d\ude00""#), "\u{1f600}");
        assert_eq!(s(r#""a\uD83D\uDE00b""#), "a\u{1f600}b");
        // A half without its partner is U+FFFD; what follows is kept.
        assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(s(r#""\ude00x""#), "\u{fffd}x");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{fffd}\u{1f600}");
        assert!(parse(r#""\ud83d\u12""#).is_err());
        assert!(parse(r#""\u+123""#).is_err(), "sign is not a hex digit");
    }

    #[test]
    fn rejects_numbers_json_does_not_have() {
        assert!(parse("+1").is_err());
        assert!(parse("[+1]").is_err());
        assert!(parse("1e999").is_err(), "parses to infinity");
        assert!(parse("-1e999").is_err());
        assert!(parse("1e+2").is_ok(), "a sign inside the exponent is JSON");
        assert_eq!(parse("-0").unwrap().as_f64().unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(1 << 20)).is_err(), "no stack overflow");
    }

    #[test]
    fn reader_streams_a_known_schema() {
        let doc = r#" {"n": 3, "skip": {"deep": [1, "x"]}, "flags": [true, 7, false], "k\n": "v"} "#;
        let mut r = Reader::new(doc);
        let (mut n, mut flags, mut borrowed, mut last) = (None, Vec::new(), 0, String::new());
        let was_object = r
            .try_object(|r, key| {
                borrowed += usize::from(matches!(key, std::borrow::Cow::Borrowed(_)));
                match &*key {
                    "n" => n = r.try_f64()?,
                    "flags" => {
                        r.try_array(|r| {
                            flags.push(r.try_bool()?);
                            Ok(())
                        })?;
                    }
                    other => {
                        last = other.to_string();
                        r.skip()?;
                    }
                }
                Ok(())
            })
            .unwrap();
        r.finish().unwrap();
        assert!(was_object);
        assert_eq!(n, Some(3.0));
        assert_eq!(flags, vec![Some(true), None, Some(false)], "a mistyped element reads as None");
        assert_eq!(borrowed, 3, "keys without escapes are slices of the input");
        assert_eq!(last, "k\n");

        // A value of another type is consumed whole and reported as absent.
        let mut r = Reader::new(r#"[{"a": 1}, "s"]"#);
        let mut seen = Vec::new();
        r.try_array(|r| {
            seen.push(r.try_array(|_| unreachable!("not an array"))?);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![false, false]);
        assert!(Reader::new("[1 2]").try_array(|r| r.skip()).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\slash\\ unicode: ≈ \u{1}";
        let mut enc = String::new();
        write_escaped(&mut enc, original);
        let back = parse(&enc).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn value_writer_round_trips() {
        let v = Value::Obj(vec![
            ("op".into(), Value::Str("query".into())),
            ("n".into(), Value::Num(2.5)),
            ("flags".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("esc".into(), Value::Str("a\"b\nc".into())),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        let enc = v.to_json();
        assert_eq!(parse(&enc).unwrap(), v);
        assert!(enc.starts_with("{\"op\":\"query\""), "{enc}");
        assert_eq!(Value::from(3u64).as_u64(), Some(3));
        assert_eq!(Value::Num(2.5).as_u64(), None);
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn f64_shortest_display_round_trips() {
        let integral = [0.0, -0.0, 1.0, -7.0, 34256.0, 1e15, -1e15, 1e22];
        let fractional = [1.5, 0.1, 123456.789, 1e-9, f64::MAX, 2.2250738585072014e-308, 5e-324];
        for v in integral.into_iter().chain(fractional) {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s} -> {back}");
        }
    }
}
