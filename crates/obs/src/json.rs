//! A minimal JSON value, parser, and string escaper.
//!
//! The journal format is JSONL, but this workspace deliberately carries
//! no serde (DESIGN.md §6): the subset of JSON the journal needs —
//! objects, arrays, strings, numbers, booleans, null — is small enough
//! to parse with a hand-rolled recursive descent. Numbers keep their
//! raw token so integers survive exactly (no detour through `f64` for
//! `u64` counters). The descent is bounded by [`MAX_DEPTH`], so hostile
//! input gets a [`JsonError`] rather than a stack overflow.

use std::collections::BTreeMap;
use std::fmt;
use std::str::Chars;

/// How deep arrays and objects may nest. Journal lines nest at most
/// three levels (an epoch's `spans` array of objects holding a
/// `timings` object); the bound only keeps input from exhausting the
/// stack.
pub const MAX_DEPTH: usize = 64;

/// Why a document did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// Arrays or objects nest deeper than [`MAX_DEPTH`]; `offset` is
    /// the byte that opens the first level past it.
    TooDeep {
        /// Byte offset of the offending `[` or `{`.
        offset: usize,
    },
    /// Any other syntax error, described.
    Syntax(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::TooDeep { offset } => {
                write!(
                    f,
                    "JSON nested deeper than {MAX_DEPTH} levels at byte {offset}"
                )
            }
            JsonError::Syntax(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<String> for JsonError {
    fn from(what: String) -> Self {
        JsonError::Syntax(what)
    }
}

impl From<&str> for JsonError {
    fn from(what: &str) -> Self {
        JsonError::Syntax(what.to_string())
    }
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> Self {
        e.to_string()
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its raw token for lossless integer access.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is not preserved (sorted).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Exact `u64`, if this is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Exact `usize`, if this is an unsigned integer token.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// `f64` value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Bool value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// `v[key]`, or an error naming the missing field — the field readers
/// the journal dialects share.
pub(crate) fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

/// `v[key]` as a `usize`.
pub(crate) fn usize_field(v: &JsonValue, key: &str) -> Result<usize, String> {
    field(v, key)?
        .as_usize()
        .ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
}

/// `v[key]` as an owned string.
pub(crate) fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))?
        .to_string())
}

/// Escapes a string for embedding in a JSON document (quotes not
/// included).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses one JSON document from `text`.
///
/// Trailing non-whitespace after the document is an error, so a
/// truncated or concatenated journal line cannot parse silently.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        chars: text.chars(),
        peeked: None,
        offset: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(c) => Err(format!("trailing `{c}` at byte {}", p.offset).into()),
    }
}

struct Parser<'a> {
    chars: Chars<'a>,
    peeked: Option<char>,
    offset: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> Option<char> {
        if self.peeked.is_none() {
            self.peeked = self.chars.next();
        }
        self.peeked
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek();
        self.peeked = None;
        if let Some(c) = c {
            self.offset += c.len_utf8();
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), JsonError> {
        match self.next() {
            Some(c) if c == want => Ok(()),
            Some(c) => {
                Err(format!("expected `{want}`, found `{c}` at byte {}", self.offset).into())
            }
            None => Err(format!("expected `{want}`, found end of input").into()),
        }
    }

    fn literal(&mut self, rest: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        for want in rest.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ ('{' | '[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::TooDeep {
                        offset: self.offset,
                    });
                }
                self.depth += 1;
                let value = if open == '{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some('"') => Ok(JsonValue::String(self.string()?)),
            Some('t') => self.literal("true", JsonValue::Bool(true)),
            Some('f') => self.literal("false", JsonValue::Bool(false)),
            Some('n') => self.literal("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{c}` at byte {}", self.offset).into()),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.next();
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.next() {
                Some(',') => continue,
                Some('}') => return Ok(JsonValue::Object(map)),
                Some(c) => return Err(format!("expected `,` or `}}`, found `{c}`").into()),
                None => return Err("unterminated object".into()),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.next();
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.next() {
                Some(',') => continue,
                Some(']') => return Ok(JsonValue::Array(items)),
                Some(c) => return Err(format!("expected `,` or `]`, found `{c}`").into()),
                None => return Err("unterminated array".into()),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}").into()),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let mut raw = String::new();
        if self.peek() == Some('-') {
            raw.push(self.next().unwrap());
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || "+-.eE".contains(c)) {
            raw.push(self.next().unwrap());
        }
        raw.parse::<f64>()
            .map_err(|_| format!("bad number `{raw}`"))?;
        Ok(JsonValue::Number(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn u64_counters_survive_exactly() {
        let big = u64::MAX;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":"e"},"f":true}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert!(a[2].get("b").unwrap().is_null());
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("e"));
        assert_eq!(v.get("f").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(BTreeMap::new()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "\"open", "{\"a\"}", "{\"a\":}", "nul", "1 2", "[1 2]", "--1",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1}";
        let doc = format!("\"{}\"", escape_json(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn hostile_nesting_is_a_depth_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(1_000_000)).unwrap_err();
            let offset = MAX_DEPTH * open.len();
            assert_eq!(err, JsonError::TooDeep { offset }, "{open}");
            assert_eq!(
                String::from(err),
                format!("JSON nested deeper than {MAX_DEPTH} levels at byte {offset}")
            );
        }
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nest(MAX_DEPTH)).is_ok(), "the limit itself parses");
        assert_eq!(
            parse(&nest(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { offset: MAX_DEPTH })
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
    }
}
