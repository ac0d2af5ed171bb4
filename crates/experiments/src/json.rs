//! A dependency-free JSON writer/parser for machine-readable experiment
//! output.
//!
//! The sweep runner ([`crate::sweep`], schema [`crate::sweep::SWEEP_SCHEMA`]),
//! the serve reporter ([`crate::serve_json::SERVE_SCHEMA`]), and the
//! bench harness (`BENCH_SCHEMA` in `benches/common`) all emit this
//! format, so
//! downstream tooling can diff experiment results and bench trajectories
//! across commits without parsing human-oriented tables. [`Json::parse`]
//! reads the files back for the sweep-merge mode.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts. The writers nest
/// at most a handful of levels (sweep and bench documents 3, `btr-serve-v2`
/// 6); the cap turns a pathological input into an error instead of a stack
/// overflow in the recursive parser.
const MAX_PARSE_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (serialized exactly).
    U64(u64),
    /// A signed integer (serialized exactly).
    I64(i64),
    /// A float (serialized via Rust's shortest-roundtrip formatting;
    /// non-finite values become `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serializes to a compact string.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
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
                    let start = out.len();
                    let _ = write!(out, "{v}");
                    // `Display` never writes an exponent, so a whole value
                    // has no `.` and would read back as an integer.
                    if !out[start..].contains('.') {
                        out.push_str(".0");
                    }
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
}

impl Json {
    /// Parses a JSON document (the subset this writer emits: no leading
    /// `+`, no comments), for tools that consume result files — e.g. the
    /// sweep-merge mode.
    ///
    /// # Errors
    ///
    /// Returns a one-line description with the byte offset of the first
    /// syntax error, of trailing garbage after the document, or of an
    /// array/object nested deeper than 128 levels.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&what) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", what as char))
    }
}

/// `depth` counts the arrays/objects enclosing the value at `pos`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'[' | b'{') if depth >= MAX_PARSE_DEPTH => Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} at byte {pos}"
        )),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
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
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                fields.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so
                // boundaries are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() {
        return Err(format!("expected a value at byte {start}"));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Json::F64(v)),
        Ok(_) => Err(format!("number {text:?} out of range at byte {start}")),
        Err(e) => Err(format!("bad number {text:?} at byte {start}: {e}")),
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_string_compact())
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

/// Writes a value to `path` (with a trailing newline), creating parent
/// directories as needed.
///
/// # Errors
///
/// Returns any I/O error from directory creation or the write.
pub fn write_file(path: &std::path::Path, value: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, value.to_string_compact() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_nested_structures() {
        let v = Json::obj(vec![
            ("schema", Json::str("example-v1")),
            ("count", Json::U64(2)),
            ("rate", Json::F64(0.5)),
            ("neg", Json::I64(-3)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("items", Json::Arr(vec![Json::U64(1), Json::str("a\"b\n")])),
        ]);
        assert_eq!(
            v.to_string_compact(),
            "{\"schema\":\"example-v1\",\"count\":2,\"rate\":0.5,\"neg\":-3,\"ok\":true,\"none\":null,\"items\":[1,\"a\\\"b\\n\"]}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string_compact(), "null");
    }

    /// A writer document exercising every value kind, escapes and
    /// multi-byte UTF-8.
    fn round_trip_document() -> Json {
        Json::obj(vec![
            ("schema", Json::str("example-v2")),
            ("count", Json::U64(2)),
            ("rate", Json::F64(0.5)),
            ("neg", Json::I64(-3)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("items", Json::Arr(vec![Json::U64(1), Json::str("a\"b\nπ")])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(vec![])),
        ])
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = round_trip_document();
        let text = v.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Whitespace tolerated.
        assert_eq!(
            Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap(),
            Json::obj(vec![("a", Json::Arr(vec![Json::U64(1), Json::U64(2)]))])
        );
    }

    #[test]
    fn whole_floats_round_trip_as_floats() {
        for v in [2_688_210.0, 1.0, 0.0, -0.0, -3.0, 1e21, 0.5, 9.9e-7] {
            let text = Json::F64(v).to_string_compact();
            assert!(!text.contains(['e', 'E']), "{text}");
            match Json::parse(&text) {
                Ok(Json::F64(back)) => assert_eq!(back.to_bits(), v.to_bits(), "{text}"),
                other => panic!("{text} read back as {other:?}"),
            }
        }
        assert_eq!(Json::F64(2_688_210.0).to_string_compact(), "2688210.0");
        assert_eq!(Json::F64(9.9e-7).to_string_compact(), "0.00000099");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 trailing").is_err());
    }

    #[test]
    fn parse_rejects_non_finite_numbers() {
        // The writer turns a non-finite float into `null`, so reading
        // one back as infinity would silently drop a count on rewrite.
        let err = Json::parse(r#"{"transitions":1e999}"#).unwrap_err();
        assert_eq!(err, "number \"1e999\" out of range at byte 15");
        assert!(Json::parse("-1e999").is_err());
        assert!(Json::parse(&"9".repeat(400)).is_err());
        assert_eq!(Json::parse("1e308"), Ok(Json::F64(1e308)));
        assert_eq!(Json::parse("-0.5e-3"), Ok(Json::F64(-0.5e-3)));
    }

    #[test]
    fn parse_rejects_nesting_beyond_the_depth_cap() {
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_PARSE_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_PARSE_DEPTH + 1)).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000));
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn parse_rejects_every_strict_prefix_of_writer_output() {
        let text = round_trip_document().to_string_compact();
        for (end, _) in text.char_indices() {
            assert!(Json::parse(&text[..end]).is_err(), "prefix {end} parsed");
        }
    }

    #[test]
    fn get_and_as_str_navigate_objects() {
        let v = Json::obj(vec![("schema", Json::str("s")), ("n", Json::U64(1))]);
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("s"));
        assert_eq!(v.get("n"), Some(&Json::U64(1)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::U64(1).get("x"), None);
        assert_eq!(Json::U64(1).as_str(), None);
    }

    #[test]
    fn writes_files_with_parents() {
        let dir = std::env::temp_dir().join("btr-json-test");
        let path = dir.join("nested").join("out.json");
        write_file(&path, &Json::U64(7)).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "7\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
