//! A hand-rolled minimal JSON value, writer, and parser.
//!
//! The server speaks JSON on the wire (query responses, metrics, the bench
//! reports) but the build environment has no registry access, so this module
//! implements the subset of JSON the wire protocol needs — which is all of
//! it, minus any serde niceties: a tagged [`Json`] value, a writer with full
//! string escaping, and a recursive-descent parser with `\uXXXX` (including
//! surrogate pairs) support.
//!
//! Integers and floats are kept apart so row values survive the round trip
//! exactly (`i64` does not fit `f64` above 2^53).

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key/value pair to an object (panics on non-objects —
    /// builder misuse, not data error).
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value.into())),
            _ => panic!("Json::push on a non-object"),
        }
        self
    }

    /// Builder form of [`Json::push`].
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        self.push(key, value);
        self
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => write_f64(*f, out),
            Json::Str(s) => write_escaped(s, out),
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
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Non-finite floats have no JSON representation; emit `null` like every
/// mainstream serializer.
pub(crate) fn write_f64(f: f64, out: &mut String) {
    if f.is_finite() {
        let start = out.len();
        let _ = write!(out, "{f}");
        // `{}` on a whole float prints no ".0"; add it so the number parses
        // back as a float.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// `s` as a JSON string literal. Runs of characters that need no escape —
/// in practice the whole string — are copied as slices.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        // Only ASCII is ever escaped, so `i` is a character boundary here.
        // ("" stands for the control characters' generic `\u00XX` form.)
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::Int(i as i64)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        Json::Int(i as i64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// A JSON parse failure: byte offset plus description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON error at offset {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts; a
/// deeper document is an error. Parsing, writing and dropping a value
/// recurse once per level, so this bounds the stack a request body can ask
/// of the worker thread that parses it (2 MiB).
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse a complete JSON document (rejects trailing garbage).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            position: self.pos,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err(format!(
                "arrays and objects nested deeper than {MAX_DEPTH} levels"
            ))),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        let value = parse(self)?;
        self.depth -= 1;
        Ok(value)
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the unescaped span in one go.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.input[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            other => return Err(self.err(format!("invalid escape `\\{}`", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        // `get` (not slicing) so four bytes that land inside a multibyte
        // character are a parse error, not a char-boundary panic.
        let hex = self
            .input
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| self.err(format!("bad hex digits `{hex}`")))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            position: start,
            message: format!("invalid number `{text}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_control_quotes_unicode() {
        let s = "quote\" back\\slash\nnew\ttab\u{08}bell\u{0C}feed\u{1}ctl 北😀";
        let j = Json::Str(s.to_string());
        let text = j.to_string_compact();
        assert!(text.contains("\\\""));
        assert!(text.contains("\\\\"));
        assert!(text.contains("\\n"));
        assert!(text.contains("\\t"));
        assert!(text.contains("\\b"));
        assert!(text.contains("\\f"));
        assert!(text.contains("\\u0001"));
        // Multibyte chars pass through raw (JSON is UTF-8).
        assert!(text.contains('北'));
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    /// The character-at-a-time escaper `write_escaped` replaced.
    fn escaped_by_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn run_copying_escaper_equals_the_char_escaper() {
        let every_ascii: String = (0u8..=0x7f).map(char::from).collect();
        let cases = [
            "",
            "plain",
            "\"",
            "\\",
            "\"\"\\\\",
            "ends with a quote\"",
            "\u{1f}starts with a control",
            "é漢字𝄞🎼 between \"quotes\" and\ttabs\u{0}",
            "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
            every_ascii.as_str(),
        ];
        for s in cases {
            let mut out = String::from("kept:");
            write_escaped(s, &mut out);
            assert_eq!(out, format!("kept:{}", escaped_by_char(s)), "{s:?}");
            assert_eq!(Json::parse(&out[5..]).unwrap(), Json::Str(s.to_string()));
        }
    }

    #[test]
    fn floats_write_in_place_as_they_formatted() {
        for f in [
            0.0,
            -0.0,
            1.0,
            -2.0,
            1.5,
            1e15,
            1e16,
            1e300,
            1.5e-7,
            123456789.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let expected = if !f.is_finite() {
                "null".to_string()
            } else if format!("{f}").contains(['.', 'e', 'E']) {
                format!("{f}")
            } else {
                format!("{f}.0")
            };
            let mut out = String::from("1e5,");
            write_f64(f, &mut out);
            assert_eq!(out, format!("1e5,{expected}"), "{f:?}");
        }
    }

    #[test]
    fn malformed_unicode_escape_is_error_not_panic() {
        // Two hex digits followed by a multibyte char: pos+4 lands inside
        // the character — must be a parse error, never a slicing panic.
        assert!(Json::parse("{\"sql\":\"\\u12北\"}").is_err());
        assert!(Json::parse("\"\\u1\"").is_err());
        assert!(Json::parse("\"\\u😀00\"").is_err());
    }

    #[test]
    fn unicode_escapes_and_surrogates_parse() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".into()));
        // 😀 is U+1F600 = 😀.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(Json::parse(r#""\uD83D""#).is_err()); // lone high surrogate
        assert!(Json::parse(r#""\uDE00""#).is_err()); // lone low surrogate
        assert!(Json::parse(r#""\uZZZZ""#).is_err());
    }

    #[test]
    fn nested_round_trip() {
        let doc = Json::object()
            .with("name", "hummer")
            .with("fused", true)
            .with(
                "rows",
                Json::Arr(vec![
                    Json::Arr(vec![Json::Str("John \"JS\" Smith".into()), Json::Int(25)]),
                    Json::Arr(vec![Json::Null, Json::Float(1.5)]),
                ]),
            )
            .with(
                "stats",
                Json::object().with("p50_ms", 0.25).with("count", 42i64),
            );
        assert_eq!(Json::parse(&doc.to_string_compact()).unwrap(), doc);
    }

    #[test]
    fn numbers_int_vs_float() {
        assert_eq!(
            Json::parse("9007199254740993").unwrap(),
            Json::Int(9007199254740993)
        );
        assert_eq!(Json::parse("-3").unwrap(), Json::Int(-3));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        // i64 round-trips exactly through the writer.
        assert_eq!(
            Json::Int(i64::MAX).to_string_compact(),
            i64::MAX.to_string()
        );
        // Non-finite floats degrade to null.
        assert_eq!(Json::Float(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01x",
            "\"unterminated",
            "[1] trailing",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "expected error for {bad:?}");
        }
    }

    /// Runs `f` on a thread with the 2 MiB stack a server worker gets.
    fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let thread = std::thread::Builder::new().stack_size(2 << 20);
        thread.spawn(f).unwrap().join().unwrap()
    }

    /// `levels` arrays, or objects, each holding the next.
    fn nested(levels: usize, open: &str, close: &str) -> String {
        format!("{}1{}", open.repeat(levels), close.repeat(levels))
    }

    /// 100,000 nested arrays or objects, a 200 KB body, aborted the
    /// process (a stack overflow is no panic) while parsing.
    #[test]
    fn deep_documents_are_errors() {
        for doc in [nested(100_000, "[", "]"), nested(100_000, "{\"a\":", "}")] {
            let outcome = on_worker_stack(move || Json::parse(&doc).map(drop));
            let message = outcome.unwrap_err().message;
            assert!(message.contains("nested deeper"), "{message}");
        }
    }

    /// At exactly [`MAX_DEPTH`] a document parses, writes and drops on a
    /// worker's stack; one level more is an error.
    #[test]
    fn documents_at_the_depth_cap_parse_write_and_drop() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(Json::parse(&nested(MAX_DEPTH + 1, open, close)).is_err());
            let doc = nested(MAX_DEPTH, open, close);
            let written = on_worker_stack(move || Json::parse(&doc).unwrap().to_string_compact());
            assert_eq!(written, nested(MAX_DEPTH, open, close));
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let j = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(j.get("b"), Some(&Json::Null));
    }

    #[test]
    fn accessors() {
        let j = Json::object().with("s", "x").with("i", 3i64).with("f", 2.5);
        assert_eq!(j.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("i").unwrap().as_i64(), Some(3));
        assert_eq!(j.get("i").unwrap().as_f64(), Some(3.0));
        assert_eq!(j.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(j.get("nope"), None);
        assert_eq!(Json::Null.as_str(), None);
    }
}
