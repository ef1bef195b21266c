//! Hand-rolled JSON: a push-based writer and a small owning parser.
//!
//! The telemetry JSONL schema is flat and fully known at compile time, so a
//! tiny push-based object writer beats dragging a serialization framework
//! into the fuzzing hot path (and keeps this crate dependency-free). The
//! recursive-descent [`parse`] builds a [`JsonValue`] tree: the control
//! plane reads client submissions with it, and [`is_valid`] keeps the
//! JSONL sinks honest in tests. The offline-shims build policy rules out
//! serde_json.

use std::fmt::{self, Write};

/// Appends `text` to `out` as a JSON string literal, escaping as required
/// by RFC 8259.
pub fn push_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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

/// Incremental writer for one flat JSON object.
///
/// # Examples
///
/// ```
/// use cmfuzz_telemetry::json::ObjectWriter;
///
/// let mut obj = ObjectWriter::new();
/// obj.str_field("kind", "fault_found");
/// obj.u64_field("time", 42);
/// assert_eq!(obj.finish(), r#"{"kind":"fault_found","time":42}"#);
/// ```
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
    any: bool,
}

impl ObjectWriter {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        ObjectWriter {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, name: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        push_escaped(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str_field(&mut self, name: &str, value: &str) {
        self.key(name);
        push_escaped(&mut self.buf, value);
    }

    /// Adds an unsigned integer field.
    pub fn u64_field(&mut self, name: &str, value: u64) {
        self.key(name);
        let _ = write!(self.buf, "{value}");
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn raw_field(&mut self, name: &str, json: &str) {
        self.key(name);
        self.buf.push_str(json);
    }

    /// Closes the object and returns the JSON text.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Whether `text` is one well-formed JSON value (used by the test suite
/// to keep the JSONL sinks honest).
#[must_use]
pub fn is_valid(text: &str) -> bool {
    parse(text).is_ok()
}

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as f64; integral accessors re-check range).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as insertion-ordered key/value pairs (duplicate keys:
    /// last one wins on lookup, matching common parser behaviour).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects (`None` on other variants or missing key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members
                .iter()
                .rev()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(text) => Some(text),
            _ => None,
        }
    }

    /// The number as u64, if this is a non-negative integral number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-oriented description.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// How many arrays and objects [`parse`] nests before it rejects the
/// input. The parser recurses once per level, so the limit is what keeps a
/// line of `[`s from overflowing the parsing thread's stack. The deepest
/// control-plane request (`submit`: request → fleet → campaigns →
/// campaign) nests 4 levels, and every document the workspace writes stays
/// far below this.
pub const MAX_DEPTH: usize = 64;

/// Parses `text` as exactly one JSON value (trailing whitespace allowed).
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first defect, including the
/// first array or object nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing data after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b't') => self.literal(b"true", JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false", JsonValue::Bool(false)),
            Some(b'n') => self.literal(b"null", JsonValue::Null),
            Some(_) => self.number(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object with `container`, one level deeper,
    /// refusing to open a level past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting deeper than the limit"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, lit: &[u8], value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(self.error("expected ':' after object key"));
            }
            self.pos += 1;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let unit = self.hex4()?;
                            // Surrogate pairs: a leading surrogate must be
                            // followed by "\uXXXX" with a trailing one.
                            if (0xD800..0xDC00).contains(&unit) {
                                if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 2) != Some(&b'u')
                                {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                match char::from_u32(code) {
                                    Some(c) => out.push(c),
                                    None => return Err(self.error("invalid code point")),
                                }
                            } else {
                                match char::from_u32(unit) {
                                    Some(c) => out.push(c),
                                    None => return Err(self.error("unpaired surrogate")),
                                }
                            }
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                0x00..=0x1F => return Err(self.error("raw control character in string")),
                _ => {
                    // Advance over one UTF-8 scalar (input is &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
    }

    /// Reads the `XXXX` of a `\uXXXX` escape; on entry `pos` is at `u`.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let mut unit = 0u32;
        for &d in digits {
            let nibble = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                b'A'..=b'F' => u32::from(d - b'A') + 10,
                _ => return Err(self.error("invalid \\u escape")),
            };
            unit = (unit << 4) | nibble;
        }
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.error("expected digit"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("expected fraction digits"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected exponent digits"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_validation() {
        let mut obj = ObjectWriter::new();
        obj.str_field("msg", "quote \" backslash \\ newline \n tab \t bell \u{7}");
        obj.u64_field("n", u64::MAX);
        obj.raw_field("arr", "[1,2.5,-3,\"x\",true,null]");
        let json = obj.finish();
        assert!(is_valid(&json), "{json}");
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            r#"{"a":1,"b":[{"c":"d"}],"e":-1.5e-3}"#,
            "  true ",
            r#""ÿ""#,
        ] {
            assert!(is_valid(good), "{good}");
        }
        for bad in [
            "",
            "{",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            "[1,]",
            "01x",
            r#""unterminated"#,
            "{}extra",
            r#""bad \q escape""#,
            "nul",
        ] {
            assert!(!is_valid(bad), "{bad}");
        }
    }

    #[test]
    fn empty_object_is_valid() {
        assert_eq!(ObjectWriter::new().finish(), "{}");
        assert!(is_valid("{}"));
    }

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x\nA"], "c": {"d": -2.5e2}}"#).expect("valid");
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        let b = v.get("b").and_then(JsonValue::as_array).expect("array");
        assert_eq!(b[0].as_bool(), Some(true));
        assert!(b[1].is_null());
        assert_eq!(b[2].as_str(), Some("x\nA"));
        assert_eq!(
            v.get("c").and_then(|c| c.get("d")),
            Some(&JsonValue::Number(-250.0))
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""😀""#).expect("valid pair");
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "unpaired low surrogate");
    }

    #[test]
    fn round_trips_the_telemetry_writer_output() {
        let mut obj = ObjectWriter::new();
        obj.str_field("msg", "quote \" backslash \\ tab \t");
        obj.u64_field("n", 42);
        let v = parse(&obj.finish()).expect("writer output parses");
        assert_eq!(
            v.get("msg").and_then(JsonValue::as_str),
            Some("quote \" backslash \\ tab \t")
        );
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(42));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        for unit in ["[", "{\"a\":"] {
            let error = parse(&unit.repeat(100_000)).expect_err("too deep");
            assert_eq!(error.message, "nesting deeper than the limit");
            assert_eq!(error.offset, MAX_DEPTH * unit.len());
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(is_valid(&at_limit));
        let past_limit = format!("[{at_limit}]");
        assert!(!is_valid(&past_limit));
    }

    #[test]
    fn the_deepest_legal_request_parses() {
        // request → fleet → campaigns → campaign: 4 levels.
        let submit = r#"{"cmd":"submit","fleet":{"campaigns":[{"id":"x","subject":"dnsmasq","budget":200}]}}"#;
        let value = parse(submit).expect("4 levels parse");
        let campaigns = value
            .get("fleet")
            .and_then(|fleet| fleet.get("campaigns"))
            .and_then(JsonValue::as_array)
            .expect("campaign array");
        assert_eq!(
            campaigns[0].get("budget").and_then(JsonValue::as_u64),
            Some(200)
        );
    }

    #[test]
    fn integral_accessor_guards_range_and_sign() {
        assert_eq!(parse("3.5").expect("ok").as_u64(), None);
        assert_eq!(parse("-1").expect("ok").as_u64(), None);
        assert_eq!(
            parse("9007199254740992").expect("ok").as_u64(),
            Some(1 << 53)
        );
    }
}
