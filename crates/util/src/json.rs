//! A minimal JSON document model, parser and serializer.
//!
//! Exists because TPLINK-SHP and TuyaLP literally carry JSON documents on
//! the wire (Table 5 reproduces them) and the report exporters emit JSON —
//! and the hermetic-build policy (DESIGN.md §4) rules out `serde_json`.
//! Scope is deliberately the subset those payloads need:
//!
//! * objects preserve **insertion order** (serialize → parse → serialize is
//!   the identity, and wire payloads keep the field order devices send);
//! * numbers are `i64` or `f64` ([`Number`]); integers survive round trips
//!   exactly, and floats serialize with a decimal point so they re-parse as
//!   floats;
//! * parsing attacker-controlled bytes never panics: errors are values and
//!   recursion depth is capped.

use core::fmt;
use core::ops::Index;

/// Maximum nesting depth accepted by the parser. Wire payloads nest 3–4
/// levels; the cap only exists so `[[[[…` byte soup cannot overflow the
/// stack.
const MAX_DEPTH: usize = 128;

/// A JSON number: integer when the text (or constructor) was integral.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    Int(i64),
    Float(f64),
}

impl Number {
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::Int(i) => Some(i),
            Number::Float(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => a == b,
            (Number::Float(a), Number::Float(b)) => a == b,
            _ => false,
        }
    }
}

/// An insertion-ordered string→value map (JSON object).
///
/// Lookups are linear scans: wire payloads have a handful of keys, and
/// preserving the order devices send fields in matters more than O(log n).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    pub fn new() -> Map {
        Map::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Insert or replace, returning the previous value if any. A replaced
    /// key keeps its original position.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, slot)) => Some(core::mem::replace(slot, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

/// The shared `null` that [`Index`] returns for missing keys.
static NULL: Value = Value::Null;

impl Value {
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object member lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }

    /// Array element lookup.
    pub fn get_index(&self, index: usize) -> Option<&Value> {
        self.as_array()?.get(index)
    }

    /// Two-space-indented serialization, for report rendering (Table 5's
    /// payload blocks). The compact wire form is `Display`/`to_string()`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

impl fmt::Display for Value {
    /// Compact serialization (no whitespace) — the wire form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        f.write_str(&out)
    }
}

impl Index<&str> for Value {
    type Output = Value;

    /// Missing keys and non-objects index to `Null`, so chained lookups
    /// like `body["system"]["err_code"]` never panic.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        self.get_index(index).unwrap_or(&NULL)
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::Int(v as i64))
            }
        }
    )*};
}

impl_from_int!(i8, i16, i32, i64, u8, u16, u32, isize);

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        match i64::try_from(v) {
            Ok(i) => Value::Number(Number::Int(i)),
            Err(_) => Value::Number(Number::Float(v as f64)),
        }
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::from(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::Float(v))
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::Float(f64::from(v)))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    match n {
        Number::Int(i) => out.push_str(&i.to_string()),
        Number::Float(f) if !f.is_finite() => out.push_str("null"),
        Number::Float(f) => {
            // Rust's shortest-roundtrip Display, with a decimal point forced
            // onto integral floats so the text re-parses as a float.
            let text = f.to_string();
            out.push_str(&text);
            if !text.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a parse failed. The byte offset points at the offending input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub reason: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document from bytes. Trailing non-whitespace is an
/// error; invalid UTF-8 inside strings is an error.
pub fn from_slice(data: &[u8]) -> Result<Value, ParseError> {
    let mut parser = Parser { data, pos: 0 };
    parser.skip_ws();
    let value = parser.parse_value(0)?;
    parser.skip_ws();
    if parser.pos != parser.data.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

/// Parse from a string slice.
pub fn from_str(text: &str) -> Result<Value, ParseError> {
    from_slice(text.as_bytes())
}

struct Parser<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, reason: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.data.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, reason: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(reason))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword(b"true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword(b"false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword(b"null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &[u8], value: Value) -> Result<Value, ParseError> {
        if self.data[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        let mut run_start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.flush_run(run_start, &mut out)?;
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.flush_run(run_start, &mut out)?;
                    self.pos += 1;
                    self.parse_escape(&mut out)?;
                    run_start = self.pos;
                }
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Append the raw (escape-free) byte run `[run_start, pos)`, validating
    /// UTF-8.
    fn flush_run(&self, run_start: usize, out: &mut String) -> Result<(), ParseError> {
        let run = &self.data[run_start..self.pos];
        match core::str::from_utf8(run) {
            Ok(text) => {
                out.push_str(text);
                Ok(())
            }
            Err(_) => Err(ParseError {
                offset: run_start,
                reason: "invalid UTF-8 in string",
            }),
        }
    }

    fn parse_escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let escape = self
            .peek()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        match escape {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let first = self.parse_hex4()?;
                let code = if (0xd800..0xdc00).contains(&first) {
                    // High surrogate: require a following \uXXXX low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u', "expected low surrogate")?;
                        let low = self.parse_hex4()?;
                        if !(0xdc00..0xe000).contains(&low) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        0x10000 + ((first - 0xd800) << 10) + (low - 0xdc00)
                    } else {
                        return Err(self.error("unpaired surrogate"));
                    }
                } else if (0xdc00..0xe000).contains(&first) {
                    return Err(self.error("unpaired surrogate"));
                } else {
                    first
                };
                out.push(char::from_u32(code).ok_or_else(|| self.error("invalid codepoint"))?);
            }
            _ => return Err(self.error("invalid escape")),
        }
        Ok(())
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let nibble = match digit {
                b'0'..=b'9' => u32::from(digit - b'0'),
                b'a'..=b'f' => u32::from(digit - b'a') + 10,
                b'A'..=b'F' => u32::from(digit - b'A') + 10,
                _ => return Err(self.error("invalid hex digit")),
            };
            code = code << 4 | nibble;
            self.pos += 1;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digit required after '.'"));
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
                return Err(self.error("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The scanned span is ASCII by construction.
        let text = core::str::from_utf8(&self.data[start..self.pos]).unwrap();
        if integral {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(i)));
            }
            // Out-of-range integers degrade to float, like serde_json's
            // arbitrary-precision-off mode degrades to f64 for u128 text.
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Number(Number::Float(f))),
            _ => Err(ParseError {
                offset: start,
                reason: "number out of range",
            }),
        }
    }
}

/// Construct a [`Value`] from a JSON-shaped literal, `serde_json::json!`
/// style: `json!({"system": {"set_relay_state": {"state": if on {1} else {0}}}})`.
/// Keys are string literals; values are JSON literals, nested `{…}`/`[…]`,
/// or arbitrary Rust expressions convertible via `Into<Value>`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Value::Null };
    ([]) => { $crate::json::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => {{
        let mut array = ::std::vec::Vec::new();
        $crate::json_internal!(@array array [] ($($tt)+));
        $crate::json::Value::Array(array)
    }};
    ({}) => { $crate::json::Value::Object($crate::json::Map::new()) };
    ({ $($tt:tt)+ }) => {{
        let mut object = $crate::json::Map::new();
        $crate::json_internal!(@object object () ($($tt)+));
        $crate::json::Value::Object(object)
    }};
    ($other:expr) => { $crate::json::Value::from($other) };
}

/// Token-muncher internals of [`json!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    // ---- object: accumulate one value tt at a time until a top-level ','.
    (@object $o:ident ($key:literal [$($val:tt)*]) (, $($rest:tt)*)) => {
        $o.insert($key.to_string(), $crate::json!($($val)*));
        $crate::json_internal!(@object $o () ($($rest)*));
    };
    (@object $o:ident ($key:literal [$($val:tt)*]) ()) => {
        $o.insert($key.to_string(), $crate::json!($($val)*));
    };
    (@object $o:ident ($key:literal [$($val:tt)*]) ($next:tt $($rest:tt)*)) => {
        $crate::json_internal!(@object $o ($key [$($val)* $next]) ($($rest)*));
    };
    // Expecting a key (or the end, after a trailing comma).
    (@object $o:ident () ($key:literal : $($rest:tt)*)) => {
        $crate::json_internal!(@object $o ($key []) ($($rest)*));
    };
    (@object $o:ident () ()) => {};
    // ---- array: same shape, pushing elements.
    (@array $a:ident [$($val:tt)+] (, $($rest:tt)*)) => {
        $a.push($crate::json!($($val)+));
        $crate::json_internal!(@array $a [] ($($rest)*));
    };
    (@array $a:ident [$($val:tt)+] ()) => {
        $a.push($crate::json!($($val)+));
    };
    (@array $a:ident [$($val:tt)*] ($next:tt $($rest:tt)*)) => {
        $crate::json_internal!(@array $a [$($val)* $next] ($($rest)*));
    };
    (@array $a:ident [] ()) => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_macro_shapes() {
        assert_eq!(json!(null), Value::Null);
        assert_eq!(json!(true), Value::Bool(true));
        assert_eq!(json!(3), Value::Number(Number::Int(3)));
        assert_eq!(json!("x"), Value::String("x".into()));
        assert_eq!(json!([]).to_string(), "[]");
        assert_eq!(json!({}).to_string(), "{}");
        assert_eq!(
            json!([1, "two", null, [3]]).to_string(),
            r#"[1,"two",null,[3]]"#
        );
        let on = true;
        let alias = "Plug";
        let value = json!({
            "system": {"set_relay_state": {"state": if on {1} else {0}}},
            "alias": alias,
            "count": 2 + 2,
        });
        assert_eq!(
            value.to_string(),
            r#"{"system":{"set_relay_state":{"state":1}},"alias":"Plug","count":4}"#
        );
    }

    #[test]
    fn object_order_preserved() {
        let value = json!({"z": 1, "a": 2, "m": 3});
        assert_eq!(value.to_string(), r#"{"z":1,"a":2,"m":3}"#);
        let keys: Vec<&String> = value.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn parse_emit_roundtrip() {
        let text = r#"{"a":[1,2.5,-3,true,false,null],"b":{"c":"d\n\"e\""},"f":1e3}"#;
        let value = from_str(text).unwrap();
        let emitted = value.to_string();
        assert_eq!(from_str(&emitted).unwrap(), value);
        assert_eq!(value["a"][1], Value::Number(Number::Float(2.5)));
        assert_eq!(value["b"]["c"].as_str(), Some("d\n\"e\""));
        assert_eq!(value["f"].as_f64(), Some(1000.0));
    }

    #[test]
    fn integers_and_floats_distinct() {
        assert_eq!(from_str("7").unwrap(), json!(7));
        assert_eq!(from_str("7.0").unwrap(), Value::Number(Number::Float(7.0)));
        assert_ne!(from_str("7").unwrap(), from_str("7.0").unwrap());
        // Integral floats serialize with a decimal point so the distinction
        // survives a round trip.
        assert_eq!(json!(7.0).to_string(), "7.0");
        assert_eq!(from_str("7.0").unwrap().to_string(), "7.0");
        assert_eq!(from_str("-0.5").unwrap().to_string(), "-0.5");
        // i64 extremes survive exactly.
        let min = i64::MIN.to_string();
        assert_eq!(from_str(&min).unwrap().as_i64(), Some(i64::MIN));
        assert_eq!(from_str(&min).unwrap().to_string(), min);
    }

    #[test]
    fn float_precision_survives() {
        // The Table 1 geolocation leak must round-trip to the digit.
        let value = json!({"latitude": 42.337681, "longitude": -71.087036});
        let text = value.to_string();
        assert!(text.contains("42.337681"), "{text}");
        assert!(text.contains("-71.087036"), "{text}");
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed["latitude"].as_f64(), Some(42.337681));
        assert_eq!(parsed["longitude"].as_f64(), Some(-71.087036));
    }

    #[test]
    fn string_escapes() {
        let original = "tab\t nl\n quote\" back\\ nul\u{0} emoji🦀";
        let value = Value::String(original.into());
        let text = value.to_string();
        assert_eq!(from_str(&text).unwrap().as_str(), Some(original));
        // \u escapes, including surrogate pairs, parse correctly.
        assert_eq!(
            from_str(r#""\u0041\u00e9\ud83e\udd80""#).unwrap().as_str(),
            Some("Aé🦀")
        );
    }

    #[test]
    fn index_is_total() {
        let value = json!({"a": 1});
        assert_eq!(value["a"], json!(1));
        assert_eq!(value["missing"], Value::Null);
        assert_eq!(value["missing"]["deeper"][3], Value::Null);
    }

    #[test]
    fn garbage_rejected_not_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01",
            "1.",
            "1e",
            "-",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800\"",
            "{\"a\":1}trailing",
            "\u{0}",
            "nan",
            "1e999",
        ] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
        // Invalid UTF-8 bytes inside a string.
        assert!(from_slice(b"\"\xff\xfe\"").is_err());
        // Deep nesting is an error, not a stack overflow.
        let mut deep = String::new();
        for _ in 0..10_000 {
            deep.push('[');
        }
        assert!(from_str(&deep).is_err());
    }

    #[test]
    fn duplicate_keys_last_wins_in_place() {
        let value = from_str(r#"{"a":1,"b":2,"a":3}"#).unwrap();
        assert_eq!(value["a"], json!(3));
        assert_eq!(value.to_string(), r#"{"a":3,"b":2}"#);
    }

    #[test]
    fn pretty_printing() {
        let value = json!({"a": [1, 2], "b": {}});
        assert_eq!(
            value.pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}"
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(json!(f64::NAN).to_string(), "null");
        assert_eq!(json!(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn u64_conversion() {
        assert_eq!(json!(5u64), json!(5));
        // Beyond i64: degrades to float rather than panicking.
        assert_eq!(
            Value::from(u64::MAX),
            Value::Number(Number::Float(u64::MAX as f64))
        );
    }
}
