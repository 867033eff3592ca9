//! Minimal JSON document model, pretty printer, and strict parser.
//!
//! The build container has no crates.io access, so every JSON producer
//! and consumer in the workspace goes through this module instead of
//! `serde_json`.  The printer is deterministic: field order is the
//! declaration order of each `ToJson` implementation, floats print via
//! Rust's shortest round-trip formatting, and the layout (2-space
//! indent) matches `serde_json::to_string_pretty`.
//!
//! The parser is the printer's inverse — `parse(v.pretty()) == v` for
//! every value the printer can emit (property-tested in
//! `tests/json_roundtrip.rs`) — and rejects malformed input with a
//! typed [`JsonError`] carrying the byte offset, so the server can turn
//! a bad request body into a 400 with a precise complaint instead of a
//! stringly error.
//!
//! This module started life in `psb-eval` (PR 1) with an ad-hoc second
//! parser in its CLI tests; both now live here so `psb-serve` can decode
//! request bodies without depending on the experiment harness
//! (`psb-eval` re-exports the module unchanged for its own reports).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers every integer field in the result structs).
    Int(i64),
    /// A float, printed with shortest round-trip formatting.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered fields.
    Object(Vec<(String, Json)>),
}

/// What went wrong at [`JsonError::offset`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JsonErrorKind {
    /// The document ended mid-value.
    UnexpectedEnd,
    /// A specific punctuation byte was required.
    Expected(char),
    /// Either of two punctuation bytes was required (`,` or the closer).
    ExpectedEither(char, char),
    /// Bytes remained after the first complete document.
    TrailingData,
    /// A number failed to parse (overflow or malformed mantissa).
    BadNumber,
    /// A `\x` escape with an unknown `x`.
    BadEscape,
    /// A `\u` escape without four hex digits.
    TruncatedEscape,
    /// A string literal hit end-of-input before its closing quote.
    UnterminatedString,
    /// The input is not valid UTF-8.
    InvalidUtf8,
}

/// A rejected JSON document: the byte offset of the problem plus its
/// [`JsonErrorKind`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What was wrong there.
    pub kind: JsonErrorKind,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let JsonError { offset, kind } = self;
        match kind {
            JsonErrorKind::UnexpectedEnd => write!(f, "{offset}: unexpected end of input"),
            JsonErrorKind::Expected(c) => write!(f, "{offset}: expected '{c}'"),
            JsonErrorKind::ExpectedEither(a, b) => {
                write!(f, "{offset}: expected '{a}' or '{b}'")
            }
            JsonErrorKind::TrailingData => write!(f, "{offset}: trailing data after document"),
            JsonErrorKind::BadNumber => write!(f, "{offset}: bad number"),
            JsonErrorKind::BadEscape => write!(f, "{offset}: bad escape"),
            JsonErrorKind::TruncatedEscape => write!(f, "{offset}: truncated \\u escape"),
            JsonErrorKind::UnterminatedString => write!(f, "{offset}: unterminated string"),
            JsonErrorKind::InvalidUtf8 => write!(f, "{offset}: invalid utf-8"),
        }
    }
}

impl std::error::Error for JsonError {}

fn err<T>(offset: usize, kind: JsonErrorKind) -> Result<T, JsonError> {
    Err(JsonError { offset, kind })
}

impl Json {
    /// Parses a JSON document (strict, no trailing garbage).
    ///
    /// The inverse of [`Json::pretty`], used to load checked-in baseline
    /// files and decode server request bodies.  Numbers without a
    /// fraction or exponent parse as [`Json::Int`], everything else as
    /// [`Json::Float`].
    ///
    /// # Errors
    ///
    /// [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(pos, JsonErrorKind::TrailingData);
        }
        Ok(value)
    }

    /// Looks up a field of an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The numeric value (integers widen), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from `(name, value)` pairs, preserving order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders with 2-space indentation (the `serde_json` pretty layout).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // `{:?}` keeps a trailing `.0` on integral values, so
                    // the output stays typed as a JSON number with a
                    // fractional part — and round-trips exactly.
                    let _ = write!(out, "{f:?}");
                } else {
                    // JSON has no NaN/Infinity; serde_json emits null too.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        err(*pos, JsonErrorKind::Expected(c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => err(*pos, JsonErrorKind::UnexpectedEnd),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return err(*pos, JsonErrorKind::ExpectedEither(',', '}')),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return err(*pos, JsonErrorKind::ExpectedEither(',', ']')),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return err(*pos, JsonErrorKind::UnterminatedString),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or(JsonError {
                                offset: *pos,
                                kind: JsonErrorKind::TruncatedEscape,
                            })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                            offset: *pos,
                            kind: JsonErrorKind::TruncatedEscape,
                        })?;
                        // Surrogates never appear in our own output; map
                        // them to the replacement character on input.
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return err(*pos, JsonErrorKind::BadEscape),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash,
                // validating it once.  Both delimiters are ASCII, so the
                // run ends on a char boundary.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| *pos + n);
                let run = std::str::from_utf8(&b[*pos..end]).map_err(|_| JsonError {
                    offset: *pos,
                    kind: JsonErrorKind::InvalidUtf8,
                })?;
                s.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| JsonError {
        offset: start,
        kind: JsonErrorKind::InvalidUtf8,
    })?;
    let parsed = if fractional {
        text.parse::<f64>().ok().map(Json::Float)
    } else {
        text.parse::<i64>().ok().map(Json::Int)
    };
    parsed.ok_or(JsonError {
        offset: start,
        kind: JsonErrorKind::BadNumber,
    })
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Conversion into the [`Json`] document model.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Pretty-prints any [`ToJson`] value (the `serde_json::to_string_pretty`
/// replacement).
pub fn to_json_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().pretty()
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

macro_rules! impl_tojson_int {
    ($($t:ty),* $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}

impl_tojson_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_layout_matches_serde_style() {
        let v = Json::obj(vec![
            ("name", Json::Str("grep".into())),
            ("cycles", Json::Int(42)),
            ("speedup", Json::Float(2.0)),
            ("tags", Json::Array(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Array(vec![])),
        ]);
        let expect = "{\n  \"name\": \"grep\",\n  \"cycles\": 42,\n  \"speedup\": 2.0,\n  \"tags\": [\n    true,\n    null\n  ],\n  \"empty\": []\n}";
        assert_eq!(v.pretty(), expect);
    }

    #[test]
    fn floats_round_trip_and_stay_numbers() {
        assert_eq!(Json::Float(4.0).pretty(), "4.0");
        assert_eq!(
            Json::Float(0.30000000000000004).pretty(),
            "0.30000000000000004"
        );
        assert_eq!(Json::Float(f64::NAN).pretty(), "null");
    }

    #[test]
    fn strings_escape_controls() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).pretty(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn deterministic_output() {
        let v = [(1u64, 2.5f64), (3, 4.5)];
        let j: Vec<Json> = v.iter().map(|t| t.to_json()).collect();
        assert_eq!(Json::Array(j.clone()).pretty(), Json::Array(j).pretty());
    }

    #[test]
    fn parse_round_trips_pretty_output() {
        let v = Json::obj(vec![
            ("name", Json::Str("dot\"prod\n".into())),
            ("cycles", Json::Int(-42)),
            ("speedup", Json::Float(2.25)),
            ("tags", Json::Array(vec![Json::Bool(true), Json::Null])),
            ("empty", Json::Array(vec![])),
            ("nested", Json::obj(vec![("deep", Json::Float(1e-6))])),
        ]);
        let back = Json::parse(&v.pretty()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parse_accessors_navigate() {
        let v = Json::parse(r#"{"a": {"b": [1, 2.5, "x", true]}}"#).unwrap();
        let arr = v.get("a").and_then(|a| a.get("b")).unwrap();
        let items = arr.as_array().unwrap();
        assert_eq!(items[0].as_i64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].as_str(), Some("x"));
        assert_eq!(items[3].as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_i64(), None);
    }

    #[test]
    fn parse_rejects_malformed_documents_with_offsets() {
        use JsonErrorKind as K;
        for (bad, offset, kind) in [
            ("", 0, K::UnexpectedEnd),
            ("{", 1, K::Expected('"')),
            ("[1,]", 3, K::BadNumber),
            ("{\"a\" 1}", 5, K::Expected(':')),
            ("tru", 0, K::BadNumber),
            ("1 2", 2, K::TrailingData),
            ("\"open", 5, K::UnterminatedString),
            ("{\"a\": 1; }", 7, K::ExpectedEither(',', '}')),
            ("[1 2]", 3, K::ExpectedEither(',', ']')),
            ("\"bad \\x escape\"", 6, K::BadEscape),
            ("\"trunc \\u12\"", 8, K::TruncatedEscape),
            ("99999999999999999999", 0, K::BadNumber),
        ] {
            let e = Json::parse(bad).expect_err(bad);
            assert_eq!((e.offset, e.kind), (offset, kind), "input {bad:?}");
            // Every error renders as `offset: message`.
            assert!(e.to_string().starts_with(&format!("{offset}: ")));
        }
    }
}
