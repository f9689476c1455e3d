//! A minimal RFC 8259 JSON parser, the read-side twin of the [`Json`]
//! emitter.
//!
//! The workspace builds hermetically with no external crates, so the
//! trace-file checker (`bosim check-trace`), the `bosim serve` journal
//! and the observability tests parse with this small recursive-descent
//! parser instead of `serde_json`; the typed field accessors
//! ([`Json::field`] and its siblings) decode parsed trees into structs. It accepts exactly the RFC grammar (no comments, no
//! trailing commas), bounds recursion depth, and never panics: every
//! failure is a [`JsonParseError`] with a byte offset.

use crate::json::Json;
use std::fmt;

/// Maximum nesting depth accepted by [`Json::parse`]. Deep enough for
/// any report this workspace emits, shallow enough to never threaten
/// the stack.
const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and the byte offset it was
/// detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonParseError> {
        Err(JsonParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", want as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("invalid literal (expected `{word}`)"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        if depth > MAX_DEPTH {
            return self.err("nesting deeper than the supported maximum");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => self.err(format!("unexpected byte 0x{other:02x}")),
            None => self.err("unexpected end of input"),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected ',' or ']' in array");
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.err("expected string key in object");
            }
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            pairs.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(pairs)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return self.err("expected ',' or '}' in object");
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: consume the `\uXXXX` low half.
                            if self.bump() == Some(b'\\') && self.bump() == Some(b'u') {
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return self.err("unpaired high surrogate");
                            }
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return self.err("unpaired low surrogate");
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return self.err("invalid unicode escape"),
                        }
                    }
                    _ => return self.err("invalid escape sequence"),
                },
                Some(b) if b < 0x20 => return self.err("unescaped control character"),
                Some(b) => {
                    // Re-validate multi-byte UTF-8 via the source slice.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let len = utf8_len(b);
                        let end = start + len;
                        match self
                            .bytes
                            .get(start..end)
                            .and_then(|s| std::str::from_utf8(s).ok())
                        {
                            Some(s) => {
                                out.push_str(s);
                                self.pos = end;
                            }
                            None => return self.err("invalid UTF-8 in string"),
                        }
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return self.err("invalid \\u escape (need 4 hex digits)"),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a non-zero digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return self.err("invalid number"),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("digits required after decimal point");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("digits required in exponent");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = match std::str::from_utf8(&self.bytes[start..self.pos]) {
            Ok(t) => t,
            Err(_) => return self.err("invalid number"),
        };
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => self.err("number out of range"),
        }
    }
}

/// Byte length of a UTF-8 sequence starting with `b` (1 for malformed
/// lead bytes — the subsequent `from_utf8` check rejects those).
fn utf8_len(b: u8) -> usize {
    match b {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with a byte offset when `text` is
    /// not a single well-formed RFC 8259 value (trailing garbage
    /// included).
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing data after the JSON value");
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
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

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64` (integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Whether this value is a JSON number of any flavour.
    pub fn is_number(&self) -> bool {
        matches!(self, Json::Int(_) | Json::UInt(_) | Json::Num(_))
    }

    /// Object field `key`, or a [`DecodeError`] when this is not an
    /// object or lacks the field.
    pub fn field(&self, key: &str) -> Result<&Json, DecodeError> {
        match self {
            Json::Obj(_) => self
                .get(key)
                .ok_or_else(|| DecodeError::at(key, "is missing")),
            _ => Err(DecodeError::at("", "is not an object")),
        }
    }

    fn typed_field<'a, T>(
        &'a self,
        key: &str,
        what: &'static str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, DecodeError> {
        read(self.field(key)?).ok_or_else(|| DecodeError::at(key, what))
    }

    /// Field `key` as a non-negative integer.
    pub fn u64_field(&self, key: &str) -> Result<u64, DecodeError> {
        self.typed_field(key, "is not a non-negative integer", |v| match *v {
            Json::UInt(u) => Some(u),
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        })
    }

    /// Field `key` as a number. `null` reads as NaN: the emitter writes
    /// every non-finite `f64` as `null`, so this is its inverse up to
    /// the rendered bytes.
    pub fn f64_field(&self, key: &str) -> Result<f64, DecodeError> {
        self.typed_field(key, "is not a number or null", |v| match v {
            Json::Null => Some(f64::NAN),
            v => v.as_f64(),
        })
    }

    /// Field `key` as a string.
    pub fn str_field(&self, key: &str) -> Result<&str, DecodeError> {
        self.typed_field(key, "is not a string", Json::as_str)
    }

    /// Field `key` as a boolean.
    pub fn bool_field(&self, key: &str) -> Result<bool, DecodeError> {
        self.typed_field(key, "is not a boolean", |v| match *v {
            Json::Bool(b) => Some(b),
            _ => None,
        })
    }

    /// Field `key` as an array.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], DecodeError> {
        self.typed_field(key, "is not an array", Json::as_arr)
    }
}

/// A well-formed JSON document of the wrong shape: a field is missing
/// or holds the wrong type. Typed decoders built on [`Json::field`] and
/// its siblings return it, and wrap a nested decoder's error with
/// [`within`](Self::within), so the path names the value from the
/// decoded root (e.g. `adapt.epochs[2].l3.issued`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Path from the decoded root to the offending value; empty for the
    /// root itself.
    pub path: String,
    /// What is wrong with it (e.g. `is missing`, `is not a string`).
    pub what: &'static str,
}

impl DecodeError {
    fn at(path: &str, what: &'static str) -> DecodeError {
        DecodeError {
            path: path.to_string(),
            what,
        }
    }

    /// Prefixes the path with `outer`: the field name, or the `[index]`
    /// of the array element, that held the failing value.
    pub fn within(mut self, outer: &str) -> DecodeError {
        self.path = if self.path.is_empty() {
            outer.to_string()
        } else if self.path.starts_with('[') {
            format!("{outer}{}", self.path)
        } else {
            format!("{outer}.{}", self.path)
        };
        self
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "value {}", self.what)
        } else {
            write!(f, "field {} {}", self.path, self.what)
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-3",
            "1.5",
            "18446744073709551615",
        ] {
            let v = Json::parse(text).expect(text);
            assert_eq!(v.to_string(), text, "{text}");
        }
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(
            Json::parse(" -9223372036854775808 ").unwrap(),
            Json::Int(i64::MIN)
        );
    }

    #[test]
    fn strings_unescape() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\ndAé""#).unwrap(),
            Json::Str("a\"b\\c\ndAé".into())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            Json::parse(r#""😀""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
    }

    #[test]
    fn containers_round_trip_with_the_emitter() {
        let doc = Json::obj([
            ("name", Json::from("t")),
            (
                "values",
                Json::arr([Json::Num(1.25), Json::Null, Json::Bool(true)]),
            ),
            ("nested", Json::obj([("k", Json::Int(-2))])),
        ]);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "nul",
            "\"\x01\"",
            "[1]]",
            "{\"a\" 1}",
            "--1",
            "[1 2]",
            "\"unterminated",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
        let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
        assert!(Json::parse(&deep).is_err(), "depth bound");
    }

    #[test]
    fn accessors_navigate_parsed_trees() {
        let doc = Json::parse(r#"{"traceEvents":[{"name":"x","ts":5}]}"#).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(events[0].get("ts").and_then(Json::as_f64), Some(5.0));
        assert!(events[0].get("ts").unwrap().is_number());
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn typed_fields_name_what_is_wrong() {
        let doc = Json::parse(r#"{"n":3,"x":null,"s":"a","b":true,"a":[{"k":-1}]}"#).unwrap();
        assert_eq!(doc.u64_field("n"), Ok(3));
        assert!(doc.f64_field("x").unwrap().is_nan(), "null reads as NaN");
        assert_eq!(doc.str_field("s"), Ok("a"));
        assert_eq!(doc.bool_field("b"), Ok(true));
        let inner = &doc.arr_field("a").unwrap()[0];
        let err = inner.u64_field("k").unwrap_err().within("[0]").within("a");
        assert_eq!(
            err.to_string(),
            "field a[0].k is not a non-negative integer"
        );
        assert_eq!(
            doc.str_field("gone").unwrap_err().to_string(),
            "field gone is missing"
        );
        assert_eq!(
            Json::UInt(5).field("n").unwrap_err().to_string(),
            "value is not an object"
        );
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let e = Json::parse("[1, oops]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"), "{e}");
    }
}
