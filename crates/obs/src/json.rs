//! Minimal JSON tree, writer, and parser.
//!
//! The build environment carries no registry access, so `serde` is not
//! available; this module is the workspace's structured-serialisation
//! substrate instead. [`ToJson`] plays the role of `serde::Serialize`:
//! types build a [`Json`] tree and the writer renders it, so no caller
//! hand-formats fields. The parser exists so exporter output can be
//! validated structurally in tests (and is a full, if small, JSON reader).
//!
//! Non-finite floats have no JSON representation; the writer emits them as
//! the strings `"inf"`, `"-inf"`, and `"nan"` so output always stays valid
//! JSON (the `Counters::ratio` infinity fix rides on this).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (kept exact; counters exceed `f64` precision).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point. Non-finite values render as strings.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// A structural failure: JSON text that does not parse, or parsed
/// output that violates an expected schema (see
/// [`crate::export::validate_chrome`]). Carries a human-readable
/// message and, for parse errors, the byte offset of the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    message: String,
    offset: Option<usize>,
}

impl SchemaError {
    /// A schema violation with no specific text position.
    pub fn new(message: impl Into<String>) -> Self {
        SchemaError {
            message: message.into(),
            offset: None,
        }
    }

    /// A parse failure at `offset` bytes into the input.
    pub fn at(offset: usize, message: impl Into<String>) -> Self {
        SchemaError {
            message: message.into(),
            offset: Some(offset),
        }
    }

    /// The human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Byte offset of a parse failure, when known.
    pub fn offset(&self) -> Option<usize> {
        self.offset
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.offset {
            Some(off) => write!(f, "{} at offset {off}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Conversion into a [`Json`] tree — the workspace's `serde::Serialize`.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Builds an array from values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Appends a key to an object (panics on non-objects — builder misuse).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("Json::set on non-object {other:?}"),
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Unsigned view (accepts U64 and non-negative I64/integral F64).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) if v >= 0 => Some(v as u64),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 => Some(v as u64),
            _ => None,
        }
    }

    /// Float view of any numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else if v.is_nan() {
                    out.push_str("\"nan\"");
                } else if *v > 0.0 {
                    out.push_str("\"inf\"");
                } else {
                    out.push_str("\"-inf\"");
                }
            }
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

    /// Parses JSON text (strict enough for validation: rejects trailing
    /// garbage, unterminated strings, malformed numbers).
    pub fn parse(text: &str) -> Result<Json, SchemaError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(SchemaError::at(p.pos, "trailing bytes"));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), SchemaError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(SchemaError::at(
                self.pos,
                format!("expected '{}'", b as char),
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, SchemaError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(SchemaError::at(self.pos, "bad literal"))
        }
    }

    fn value(&mut self) -> Result<Json, SchemaError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(SchemaError::at(self.pos, format!("unexpected {other:?}"))),
        }
    }

    fn string(&mut self) -> Result<String, SchemaError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(SchemaError::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| SchemaError::at(self.pos, "truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|e| SchemaError::at(self.pos, e.to_string()))?,
                                16,
                            )
                            .map_err(|e| SchemaError::at(self.pos, e.to_string()))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(SchemaError::at(self.pos, format!("bad escape {other:?}")))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote or
                    // backslash in one step, validating only that run.
                    let rest = &self.bytes[self.pos..];
                    let n = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..n])
                        .map_err(|e| SchemaError::at(self.pos, e.to_string()))?;
                    s.push_str(run);
                    self.pos += n;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, SchemaError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| SchemaError::at(start, format!("bad number '{text}'")))
    }

    fn array(&mut self) -> Result<Json, SchemaError> {
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
                other => {
                    return Err(SchemaError::at(
                        self.pos,
                        format!("expected , or ] got {other:?}"),
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, SchemaError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        let mut seen = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(SchemaError::at(self.pos, format!("duplicate key '{key}'")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => {
                    return Err(SchemaError::at(
                        self.pos,
                        format!("expected , or }} got {other:?}"),
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn megabyte_of_multibyte_strings_parses_in_one_piece() {
        // Each string mixes 1- to 4-byte scalars with escapes; the whole
        // document is over 1 MiB and is parsed as a single input.
        let piece = "añ漢🙂\"q\\\n";
        let strings: Vec<String> = (0..4096)
            .map(|i| format!("{i}:{}", piece.repeat(16)))
            .collect();
        let v = Json::Arr(strings.iter().cloned().map(Json::Str).collect());
        let text = v.render();
        assert!(text.len() > 1 << 20, "document is {} bytes", text.len());
        let Json::Arr(items) = Json::parse(&text).unwrap() else {
            panic!("top level must be an array");
        };
        assert_eq!(items.len(), strings.len());
        for (got, want) in items.iter().zip(&strings) {
            assert_eq!(got, &Json::Str(want.clone()));
        }
    }

    #[test]
    fn roundtrip_basic() {
        let v = Json::obj([
            ("a", Json::U64(7)),
            ("b", Json::Str("x\"y\n".into())),
            ("c", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn nonfinite_floats_render_as_strings() {
        assert_eq!(Json::F64(f64::INFINITY).render(), "\"inf\"");
        assert_eq!(Json::F64(f64::NEG_INFINITY).render(), "\"-inf\"");
        assert_eq!(Json::F64(f64::NAN).render(), "\"nan\"");
        // Output must stay parseable.
        Json::parse(&Json::obj([("r", f64::INFINITY)]).render()).unwrap();
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{\"a\":1,\"a\":2}").is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"n\":42,\"f\":1.5,\"s\":\"hi\",\"a\":[1,2]}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn big_u64_kept_exact() {
        let n = u64::MAX;
        let text = Json::U64(n).render();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(n));
    }
}
