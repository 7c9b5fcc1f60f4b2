//! Minimal JSON support: string escaping, a recursive-descent parser, and
//! the JSONL schema check used by tests and the CI trace smoke-step.
//!
//! This exists because the workspace is offline (no serde); the parser
//! handles the JSON this crate itself emits plus enough of the general
//! grammar to be honest (nested containers, escapes, exponents).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape a string for embedding inside JSON double quotes.
pub fn escape(s: &str) -> String {
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

/// Incremental JSON object writer: tracks comma placement and escapes keys
/// and string values so emitters never hand-roll `format!` JSON. Used by
/// [`crate::Trace::to_jsonl`] and by the benchmark's reports.
pub struct JsonObj {
    buf: String,
    any: bool,
}

impl JsonObj {
    pub fn new() -> JsonObj {
        JsonObj {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        let _ = write!(self.buf, "\"{}\":", escape(key));
    }

    /// Append a pre-serialized JSON value (object, array, number...).
    pub fn raw(mut self, key: &str, value: &str) -> JsonObj {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    pub fn str(mut self, key: &str, value: &str) -> JsonObj {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    pub fn u64(mut self, key: &str, value: u64) -> JsonObj {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    pub fn f64(mut self, key: &str, value: f64) -> JsonObj {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> JsonObj {
        JsonObj::new()
    }
}

/// Incremental JSON array writer, companion to [`JsonObj`].
pub struct JsonArr {
    buf: String,
    any: bool,
}

impl JsonArr {
    pub fn new() -> JsonArr {
        JsonArr {
            buf: String::from("["),
            any: false,
        }
    }

    /// Append a pre-serialized JSON value as the next element.
    pub fn push_raw(&mut self, item: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push_str(item);
    }

    pub fn finish(mut self) -> String {
        self.buf.push(']');
        self.buf
    }
}

impl Default for JsonArr {
    fn default() -> JsonArr {
        JsonArr::new()
    }
}

/// A parsed JSON value. Numbers are kept as f64 (adequate for validation).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, nothing else).
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // advance one whole UTF-8 char
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos)?;
        out.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Validate trace JSONL as emitted by [`crate::Trace::to_jsonl`]: every
/// non-empty line parses as an object with `kind` of `"span"` or `"event"`
/// and the required typed keys. Returns the number of valid records.
pub fn validate_trace_jsonl(input: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: missing \"kind\"", lineno + 1))?;
        let need_num = |key: &str| -> Result<(), String> {
            v.get(key)
                .and_then(Json::as_num)
                .map(|_| ())
                .ok_or(format!("line {}: missing numeric \"{key}\"", lineno + 1))
        };
        let need_str = |key: &str| -> Result<(), String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(|_| ())
                .ok_or(format!("line {}: missing string \"{key}\"", lineno + 1))
        };
        match kind {
            "span" => {
                need_num("id")?;
                need_num("parent")?;
                need_num("depth")?;
                need_num("start_ns")?;
                need_num("end_ns")?;
                need_str("name")?;
            }
            "event" => {
                need_num("span")?;
                need_num("at_ns")?;
                need_str("name")?;
            }
            other => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
        }
        if !matches!(v.get("fields"), Some(Json::Obj(_))) {
            return Err(format!("line {}: missing object \"fields\"", lineno + 1));
        }
        count += 1;
    }
    if count == 0 {
        return Err("no records".into());
    }
    Ok(count)
}

fn fields_json(fields: &[(crate::FieldKey, crate::FieldValue)]) -> String {
    let mut obj = JsonObj::new();
    for (k, v) in fields {
        obj = obj.raw(k, &v.to_json());
    }
    obj.finish()
}

/// One JSONL line for a span (no trailing newline): `{"kind":"span","id":..,
/// "parent":..,"depth":..,"name":..,"start_ns":..,"end_ns":..,"fields":{..}}`.
pub(crate) fn span_jsonl(s: &crate::SpanRecord) -> String {
    JsonObj::new()
        .str("kind", "span")
        .u64("id", s.id)
        .u64("parent", s.parent)
        .u64("depth", s.depth as u64)
        .str("name", s.name)
        .u64("start_ns", s.start_ns)
        .u64("end_ns", s.end_ns)
        .raw("fields", &fields_json(&s.fields))
        .finish()
}

/// One JSONL line for an event (no trailing newline): `"kind":"event"` with
/// `span`, `name`, `at_ns` and `fields`.
pub(crate) fn event_jsonl(e: &crate::EventRecord) -> String {
    JsonObj::new()
        .str("kind", "event")
        .u64("span", e.span)
        .str("name", e.name)
        .u64("at_ns", e.at_ns)
        .raw("fields", &fields_json(&e.fields))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":null},"e":true}"#).unwrap();
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn obj_and_arr_writers_emit_parseable_json() {
        let mut arr = JsonArr::new();
        arr.push_raw("1");
        arr.push_raw("\"two\"");
        let doc = JsonObj::new()
            .str("s", "a\"b")
            .u64("n", 7)
            .f64("f", 2.5)
            .f64("bad", f64::NAN)
            .raw("list", &arr.finish())
            .raw("empty", &JsonObj::new().finish())
            .finish();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b"));
        assert_eq!(v.get("n").unwrap().as_num(), Some(7.0));
        assert_eq!(v.get("f").unwrap().as_num(), Some(2.5));
        assert_eq!(v.get("bad"), Some(&Json::Null));
        assert_eq!(v.get("list").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("empty"), Some(&Json::Obj(Default::default())));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} junk").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\"}").is_err());
    }

    #[test]
    fn validates_good_jsonl_and_rejects_bad() {
        let good = concat!(
            "{\"kind\":\"span\",\"id\":1,\"parent\":0,\"depth\":0,\"name\":\"x\",\"start_ns\":0,\"end_ns\":5,\"fields\":{}}\n",
            "{\"kind\":\"event\",\"span\":1,\"name\":\"e\",\"at_ns\":3,\"fields\":{\"n\":1}}\n"
        );
        assert_eq!(validate_trace_jsonl(good).unwrap(), 2);
        assert!(validate_trace_jsonl("{\"kind\":\"span\"}").is_err());
        assert!(validate_trace_jsonl("").is_err());
        assert!(validate_trace_jsonl("not json").is_err());
    }
}
