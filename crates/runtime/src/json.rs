//! Shared stable-JSON emission helpers.
//!
//! The workspace is dependency-free, so every component that emits JSON
//! (telemetry snapshots, the benchmark harness, the evaluation tables,
//! the HTTP server's responses) hand-rolls its document. This module is
//! the single writer they all share: string escaping per RFC 8259, a
//! fixed-decimal float formatter that maps non-finite values to `null`,
//! and two tiny builders ([`Obj`], [`Arr`]) that keep the punctuation
//! right. Key order is the caller's responsibility — emit from sorted
//! maps and two identical documents serialize to identical bytes.

/// Escape `text` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
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

/// `text` as a quoted, escaped JSON string literal.
pub fn quoted(text: &str) -> String {
    format!("\"{}\"", escape(text))
}

/// A finite float with `decimals` fraction digits; `null` otherwise
/// (JSON has no NaN/Infinity).
pub fn number(value: f64, decimals: usize) -> String {
    if value.is_finite() {
        format!("{value:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// Incremental JSON object builder. Values are raw JSON fragments; use
/// the typed helpers for scalars.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Append `key` with a pre-rendered JSON `value`.
    pub fn raw(&mut self, key: &str, value: impl AsRef<str>) -> &mut Self {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(&quoted(key));
        self.body.push(':');
        self.body.push_str(value.as_ref());
        self
    }

    /// Append a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, quoted(value))
    }

    /// Append an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, value.to_string())
    }

    /// Append a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Append a float field with `decimals` fraction digits (`null` when
    /// non-finite).
    pub fn f64(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        self.raw(key, number(value, decimals))
    }

    /// Render `{...}`.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Incremental JSON array builder.
#[derive(Debug, Default)]
pub struct Arr {
    body: String,
}

impl Arr {
    /// An empty array.
    pub fn new() -> Self {
        Arr::default()
    }

    /// Append a pre-rendered JSON `value`.
    pub fn raw(&mut self, value: impl AsRef<str>) -> &mut Self {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push_str(value.as_ref());
        self
    }

    /// Append a string element.
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.raw(quoted(value))
    }

    /// Render `[...]`.
    pub fn finish(&self) -> String {
        format!("[{}]", self.body)
    }
}

/// A parsed JSON value — the reader half of this module, used by
/// clients of the server's JSON endpoints (`qi top` polling
/// `/metrics/history`). Object keys keep document order in a plain
/// `Vec`; lookups are linear, which is the right trade for the small
/// dashboard payloads this is built for.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64; u64 counters up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a u64 (truncating), if this is a non-negative
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Shorthand: `self.get(key)` as u64, defaulting to 0.
    pub fn u64_or_zero(&self, key: &str) -> u64 {
        self.get(key).and_then(Json::as_u64).unwrap_or(0)
    }
}

/// Parse one JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Errors carry the byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", byte as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
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
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
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
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogate pairs are not needed for our own
                        // documents (the writer only \u-escapes
                        // controls); map lone surrogates to U+FFFD.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so the
                // boundaries are valid).
                let rest = unsafe { std::str::from_utf8_unchecked(&bytes[*pos..]) };
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
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

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(quoted("x\"y"), "\"x\\\"y\"");
    }

    #[test]
    fn numbers_are_fixed_decimal_or_null() {
        assert_eq!(number(1.5, 3), "1.500");
        assert_eq!(number(2.0, 6), "2.000000");
        assert_eq!(number(f64::NAN, 3), "null");
        assert_eq!(number(f64::INFINITY, 3), "null");
    }

    #[test]
    fn object_builder_punctuates() {
        let mut obj = Obj::new();
        obj.str("name", "qi")
            .u64("count", 3)
            .bool("ok", true)
            .f64("ms", 1.25, 3)
            .raw("nested", Obj::new().u64("x", 1).finish());
        assert_eq!(
            obj.finish(),
            "{\"name\":\"qi\",\"count\":3,\"ok\":true,\"ms\":1.250,\"nested\":{\"x\":1}}"
        );
        assert_eq!(Obj::new().finish(), "{}");
    }

    #[test]
    fn array_builder_punctuates() {
        let mut arr = Arr::new();
        arr.str("a").raw("1").raw("null");
        assert_eq!(arr.finish(), "[\"a\",1,null]");
        assert_eq!(Arr::new().finish(), "[]");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let doc = Obj::new()
            .str("name", "qi \"top\"")
            .u64("count", 42)
            .bool("ok", true)
            .f64("ms", 1.25, 3)
            .raw("null_field", "null")
            .raw("list", Arr::new().raw("1").raw("2").str("x").finish())
            .raw("nested", Obj::new().u64("deep", 7).finish())
            .finish();
        let parsed = parse(&doc).expect("parse");
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("qi \"top\"")
        );
        assert_eq!(parsed.u64_or_zero("count"), 42);
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("ms").and_then(Json::as_f64), Some(1.25));
        assert_eq!(parsed.get("null_field"), Some(&Json::Null));
        assert_eq!(
            parsed.get("list").and_then(Json::as_array).map(|l| l.len()),
            Some(3)
        );
        assert_eq!(parsed.get("nested").map(|n| n.u64_or_zero("deep")), Some(7));
        assert_eq!(parsed.u64_or_zero("absent"), 0);
    }

    #[test]
    fn parser_handles_whitespace_escapes_and_numbers() {
        let parsed = parse(" { \"a\" : [ -1.5e2 , \"t\\u0041b\\n\" ] } ").expect("parse");
        let list = parsed.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(list[0].as_f64(), Some(-150.0));
        assert_eq!(list[1].as_str(), Some("tAb\n"));
        assert_eq!(parse("[]").expect("empty array"), Json::Arr(vec![]));
        assert_eq!(parse("{}").expect("empty object"), Json::Obj(vec![]));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
