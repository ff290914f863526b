//! Minimal zero-dependency JSON support for the wire protocol.
//!
//! The serving layer ([`crate::service`]) speaks newline-framed JSON;
//! this module provides the two halves it needs with no external crate:
//!
//! * [`json_escape`] — escaping for emitted string literals (shared with
//!   the CLI's NDJSON renderers, so all records escape identically);
//! * [`parse`] — a small recursive-descent parser for incoming request
//!   lines, producing a [`JsonValue`] tree.
//!
//! The parser accepts standard JSON with two deliberate restrictions:
//!
//! * numbers must be integers in `i64` range. No request field is
//!   fractional, and silently rounding a malformed knob would violate
//!   the protocol's strict-validation discipline, so floats are a parse
//!   error;
//! * arrays and objects nest at most 64 levels (`MAX_DEPTH`). Requests
//!   and journal records nest one level deep, and the cap bounds the
//!   parser's recursion (and the recursive drop of the tree it builds),
//!   so no input line can overflow the stack.

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts; the bracket that
/// would open one more level is a [`JsonError`] at its byte.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the only number form accepted — see module docs).
    Int(i64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as key/value pairs in source order (duplicate keys are
    /// kept; [`JsonValue::get`] returns the first).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` for missing keys and
    /// non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find_map(|(k, v)| (k == key).then_some(v)),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            _ => None,
        }
    }
}

/// A JSON syntax error with a byte offset into the input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the offending input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first syntax problem.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            at: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", char::from(b))))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object one level deeper, refusing to open
    /// level [`MAX_DEPTH`] + 1.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("fractional numbers are not part of the protocol"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse()
            .map(JsonValue::Int)
            .map_err(|_| self.err("integer out of i64 range"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next delimiter
            // in one go. The delimiters are ASCII, so the run ends on a
            // character boundary of the (already valid UTF-8) input.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not expected on this wire
                            // (emitters escape only control characters);
                            // reject rather than decode pairs.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_objects() {
        let v = parse(r#"{"v":1,"type":"analyze","source":"x := 1;\n","min-np":4}"#).unwrap();
        assert_eq!(v.get("v").and_then(JsonValue::as_i64), Some(1));
        assert_eq!(v.get("type").and_then(JsonValue::as_str), Some("analyze"));
        assert_eq!(
            v.get("source").and_then(JsonValue::as_str),
            Some("x := 1;\n")
        );
        assert_eq!(v.get("min-np").and_then(JsonValue::as_i64), Some(4));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a":[1,-2,true,null],"b":{"c":"d"}}"#).unwrap();
        let JsonValue::Array(items) = v.get("a").unwrap() else {
            panic!("array expected");
        };
        assert_eq!(
            items,
            &[
                JsonValue::Int(1),
                JsonValue::Int(-2),
                JsonValue::Bool(true),
                JsonValue::Null
            ]
        );
        assert_eq!(
            v.get("b").unwrap().get("c").and_then(JsonValue::as_str),
            Some("d")
        );
    }

    #[test]
    fn escape_and_parse_round_trip() {
        let nasty = "line\nwith \"quotes\", back\\slash, tab\t and \u{1} ctrl";
        let line = format!("{{\"s\":\"{}\"}}", json_escape(nasty));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{\"a\":1.5}",
            "{\"a\":1e3}",
            "nul",
            "{\"a\":\u{1}\"x\"}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn rejects_out_of_range_integers() {
        assert!(parse("9223372036854775807").is_ok());
        assert!(parse("9223372036854775808").is_err());
    }

    #[test]
    fn unicode_passes_through() {
        let v = parse("{\"s\":\"héllo ☃\"}").unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("héllo ☃"));
        let v = parse("{\"s\":\"\\u2603\"}").unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("☃"));
    }

    #[test]
    fn control_characters_and_unterminated_strings_keep_their_offsets() {
        let err = parse("{\"s\":\"ab\u{1}c\"}").unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.at),
            ("unescaped control character in string", 8)
        );
        let err = parse("\"é☃").unwrap_err();
        assert_eq!((err.message.as_str(), err.at), ("unterminated string", 6));
    }

    #[test]
    fn large_strings_round_trip() {
        // 4 MiB of mixed plain, multi-byte and escaped characters: the
        // decoder copies plain runs whole, so this stays linear.
        let unit = "plain ascii text é☃ \"quoted\" back\\slash\ttab\n";
        let big = unit.repeat((4 << 20) / unit.len() + 1);
        let line = format!("{{\"s\":\"{}\"}}", json_escape(&big));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some(big.as_str()));
    }

    #[test]
    fn deepest_accepted_nesting_fits_a_small_stack_and_one_more_level_fails() {
        let arrays = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        let objects = |levels: usize| "{\"k\":".repeat(levels) + "0" + &"}".repeat(levels);
        // A 2 MiB thread is the smallest stack a serve connection or a
        // test runs on; parse and drop must both fit it unoptimized.
        let deepest = [arrays(MAX_DEPTH), objects(MAX_DEPTH)];
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || deepest.map(|line| drop(parse(&line).expect("MAX_DEPTH levels"))))
            .expect("spawn")
            .join()
            .expect("deepest accepted values parse and drop on 2 MiB");

        // The offending byte is the opener of level MAX_DEPTH + 1.
        let message = format!("nesting deeper than {MAX_DEPTH} levels");
        let err = parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((&err.message, err.at), (&message, MAX_DEPTH));
        let err = parse(&objects(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((&err.message, err.at), (&message, 5 * MAX_DEPTH));
    }

    #[test]
    fn duplicate_keys_first_wins() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(JsonValue::as_i64), Some(1));
    }
}
