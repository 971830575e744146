//! A small, total JSON reader/writer for the wire protocol (the
//! workspace is offline — no serde).
//!
//! Integers and floats are kept distinct ([`Json::Int`] vs
//! [`Json::Float`]) because they bind to distinct
//! [`Value`] types, and floats are rendered with
//! Rust's shortest-round-trip formatting (`{:?}`), so a value written
//! by the server parses back **bit-identically** — the integration
//! tests compare server responses to library-path results with `==`,
//! not a tolerance.
//!
//! Parsing is total: malformed text, deep nesting, trailing garbage,
//! and invalid escapes all return a typed error string (never a panic),
//! which the server maps to a 400.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use hyper_storage::Value;

/// Maximum nesting depth accepted by the parser.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction/exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// Numeric payload widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer payload.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Convert to an engine [`Value`] (for `Bindings`).
    pub fn to_value(&self) -> Option<Value> {
        match self {
            Json::Null => Some(Value::Null),
            Json::Bool(b) => Some(Value::Bool(*b)),
            Json::Int(i) => Some(Value::Int(*i)),
            Json::Float(f) => Some(Value::Float(*f)),
            Json::Str(s) => Some(Value::str(s)),
            Json::Arr(_) | Json::Obj(_) => None,
        }
    }

    /// Render to compact JSON text.
    pub fn render(&self) -> String {
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
            Json::Float(f) => {
                if f.is_finite() {
                    // `{:?}` is Rust's shortest round-trip rendering; the
                    // value re-parses to the identical bit pattern.
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
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

    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Build an object from owned keys (e.g. tenant ids), sorted for
    /// deterministic rendering.
    pub fn obj_sorted(fields: BTreeMap<String, Json>) -> Json {
        Json::Obj(fields.into_iter().collect())
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

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        i64::try_from(v)
            .map(Json::Int)
            .unwrap_or(Json::Float(v as f64))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
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

/// Parse a complete JSON document (trailing garbage is an error).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(text, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect_lit(bytes, pos, "null", Json::Null),
        Some(b't') => expect_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => expect_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(text, bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(format!("expected a string key at byte {pos}"));
                }
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(text, bytes, pos),
        Some(c) => Err(format!(
            "unexpected character {:?} at byte {pos}",
            *c as char
        )),
    }
}

fn expect_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let lexeme = &text[start..*pos];
    if !fractional {
        if let Ok(i) = lexeme.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    lexeme
        .parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("bad number {lexeme:?} at byte {start}"))
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        let start = *pos;
        // Fast path: copy a run of plain bytes at once.
        while let Some(&b) = bytes.get(*pos) {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            *pos += 1;
        }
        // The slice is on char boundaries: `"`/`\`/controls are ASCII.
        out.push_str(&text[start..*pos]);
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogates are rejected rather than paired; the
                        // protocol never emits them.
                        let c = char::from_u32(code).ok_or("bad \\u code point")?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => return Err(format!("raw control byte {c:#04x} in string")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let doc = r#"{"tenant":"t0","query":"Use x","bindings":{"mult":1.1,"n":3,"flag":true,"none":null},"arr":[1,2.5,"s"]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("tenant").unwrap().as_str(), Some("t0"));
        assert_eq!(v.get("bindings").unwrap().get("n").unwrap(), &Json::Int(3));
        assert_eq!(
            v.get("bindings").unwrap().get("mult").unwrap(),
            &Json::Float(1.1)
        );
        let re = parse(&v.render()).unwrap();
        assert_eq!(re, v);
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        for f in [1.1, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300, -123.456e-7] {
            let rendered = Json::Float(f).render();
            match parse(&rendered).unwrap() {
                Json::Float(back) => assert_eq!(back.to_bits(), f.to_bits(), "{rendered}"),
                Json::Int(i) => assert_eq!(i as f64, f),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nul",
            "01a",
            "\"bad \\x escape\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "nesting cap");
    }

    #[test]
    fn escapes_round_trip() {
        let s = "line\nquote\"back\\slash\ttab\u{1}";
        let rendered = Json::Str(s.to_string()).render();
        assert_eq!(parse(&rendered).unwrap().as_str(), Some(s));
    }

    #[test]
    fn to_value_maps_scalars() {
        assert_eq!(Json::Int(3).to_value(), Some(Value::Int(3)));
        assert_eq!(Json::Float(1.5).to_value(), Some(Value::Float(1.5)));
        assert_eq!(Json::Str("x".into()).to_value(), Some(Value::str("x")));
        assert_eq!(Json::Null.to_value(), Some(Value::Null));
        assert_eq!(Json::Arr(vec![]).to_value(), None);
    }
}
