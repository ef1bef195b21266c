//! JSON configuration file extraction (hierarchical format).

use crate::{ConfigItem, ItemSource};

/// The deepest nesting of arrays and objects [`extract_json`] reads, as the
/// control plane's JSON parser bounds its own. Configuration files nest a
/// few levels; a hostile one might nest a hundred thousand.
const MAX_DEPTH: usize = 64;

/// Extracts items from a JSON configuration file by recursively walking the
/// structure and flattening nested keys into dotted paths (Algorithm 1's
/// `ExtractHierarchical` for JSON).
///
/// Scalars become items; objects recurse with `parent.child` paths; array
/// elements recurse with `parent[index]` paths. `null` extracts as an empty
/// value. Malformed JSON yields the items found up to the error point — the
/// extractor is intentionally forgiving, since real-world configuration
/// files are often sloppy. So does a document nesting arrays and objects
/// more than 64 levels deep: parsing stops at the first container past the
/// bound, which keeps a hostile file from overflowing the stack.
///
/// # Examples
///
/// ```
/// use cmfuzz_config_model::extract::extract_json;
///
/// let items = extract_json(
///     "dds.json",
///     r#"{"qos": {"reliability": "reliable", "depth": 8}, "peers": ["a", "b"]}"#,
/// );
/// let names: Vec<_> = items.iter().map(|i| i.name()).collect();
/// assert_eq!(names, vec!["qos.reliability", "qos.depth", "peers[0]", "peers[1]"]);
/// ```
#[must_use]
pub fn extract_json(file_name: &str, content: &str) -> Vec<ConfigItem> {
    let source = ItemSource::File {
        name: file_name.to_owned(),
    };
    let mut parser = Parser {
        bytes: content.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let mut items = Vec::new();
    if let Some(value) = parser.parse_value() {
        flatten("", &value, &source, &mut items);
    }
    items
}

/// Minimal JSON document model.
#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool(bool),
    Number(String),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

fn flatten(path: &str, value: &Json, source: &ItemSource, out: &mut Vec<ConfigItem>) {
    match value {
        Json::Object(fields) => {
            for (key, child) in fields {
                let child_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten(&child_path, child, source, out);
            }
        }
        Json::Array(elements) => {
            for (i, child) in elements.iter().enumerate() {
                flatten(&format!("{path}[{i}]"), child, source, out);
            }
        }
        scalar => {
            if path.is_empty() {
                return; // A bare top-level scalar has no name to extract.
            }
            let raw = match scalar {
                Json::Null => String::new(),
                Json::Bool(b) => b.to_string(),
                Json::Number(n) => n.clone(),
                Json::String(s) => s.clone(),
                Json::Array(_) | Json::Object(_) => unreachable!(),
            };
            out.push(ConfigItem::new(path, &raw, source.clone()));
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        if self.peek() == Some(byte) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Option<Json> {
        self.skip_ws();
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    // Past the bound: an empty container, which flattens
                    // to nothing. The position stays on the opening byte,
                    // so every enclosing container ends here too.
                    return Some(Json::Array(Vec::new()));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            b'"' => self.parse_string().map(Json::String),
            b't' => self.eat_literal("true").then_some(Json::Bool(true)),
            b'f' => self.eat_literal("false").then_some(Json::Bool(false)),
            b'n' => self.eat_literal("null").then_some(Json::Null),
            b'-' | b'0'..=b'9' => self.parse_number(),
            _ => None,
        }
    }

    fn parse_object(&mut self) -> Option<Json> {
        self.eat(b'{');
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Some(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Some(Json::Object(fields));
            }
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.eat(b'}');
            return Some(Json::Object(fields));
        }
    }

    fn parse_array(&mut self) -> Option<Json> {
        self.eat(b'[');
        let mut elements = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Some(Json::Array(elements));
        }
        loop {
            let value = self.parse_value()?;
            elements.push(value);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.eat(b']');
            return Some(Json::Array(elements));
        }
    }

    fn parse_string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.bump()? {
                b'"' => return Some(out),
                b'\\' => match self.bump()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            code = code * 16 + u32::from((d as char).to_digit(16)? as u8);
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => out.push(other as char),
                },
                byte => {
                    // Re-assemble UTF-8 sequences byte by byte.
                    if byte < 0x80 {
                        out.push(byte as char);
                    } else {
                        let start = self.pos - 1;
                        let len = utf8_len(byte);
                        let end = (start + len).min(self.bytes.len());
                        if let Ok(s) = std::str::from_utf8(&self.bytes[start..end]) {
                            out.push_str(s);
                        }
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn parse_number(&mut self) -> Option<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        (!text.is_empty() && text != "-").then(|| Json::Number(text.to_owned()))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_values(content: &str) -> Vec<(String, String)> {
        extract_json("t.json", content)
            .iter()
            .map(|i| (i.name().to_owned(), i.raw_value().to_owned()))
            .collect()
    }

    #[test]
    fn flat_object() {
        assert_eq!(
            names_values(r#"{"port": 5683, "secure": true, "name": "gw"}"#),
            vec![
                ("port".to_owned(), "5683".to_owned()),
                ("secure".to_owned(), "true".to_owned()),
                ("name".to_owned(), "gw".to_owned()),
            ]
        );
    }

    #[test]
    fn nested_objects_use_dotted_paths() {
        assert_eq!(
            names_values(r#"{"a": {"b": {"c": 1}}}"#),
            vec![("a.b.c".to_owned(), "1".to_owned())]
        );
    }

    #[test]
    fn arrays_use_indexed_paths() {
        assert_eq!(
            names_values(r#"{"peers": [10, 20]}"#),
            vec![
                ("peers[0]".to_owned(), "10".to_owned()),
                ("peers[1]".to_owned(), "20".to_owned()),
            ]
        );
    }

    #[test]
    fn null_extracts_as_empty() {
        assert_eq!(
            names_values(r#"{"token": null}"#),
            vec![("token".to_owned(), String::new())]
        );
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(
            names_values(r#"{"a": -3, "b": 2.5, "c": 1e3}"#),
            vec![
                ("a".to_owned(), "-3".to_owned()),
                ("b".to_owned(), "2.5".to_owned()),
                ("c".to_owned(), "1e3".to_owned()),
            ]
        );
    }

    #[test]
    fn string_escapes_decoded() {
        assert_eq!(
            names_values(r#"{"s": "a\"b\\c\nd"}"#),
            vec![("s".to_owned(), "a\"b\\c\nd".to_owned())]
        );
    }

    #[test]
    fn unicode_escape_decoded() {
        assert_eq!(
            names_values(r#"{"s": "A"}"#),
            vec![("s".to_owned(), "A".to_owned())]
        );
    }

    #[test]
    fn objects_inside_arrays() {
        assert_eq!(
            names_values(r#"{"listeners": [{"port": 1}, {"port": 2}]}"#),
            vec![
                ("listeners[0].port".to_owned(), "1".to_owned()),
                ("listeners[1].port".to_owned(), "2".to_owned()),
            ]
        );
    }

    #[test]
    fn malformed_json_is_forgiving() {
        // Truncated input: items before the break point are still produced.
        let items = extract_json("t.json", r#"{"a": 1, "b": "#);
        assert!(items.len() <= 1);
        assert!(extract_json("t.json", "not json").is_empty());
        assert!(extract_json("t.json", "").is_empty());
    }

    #[test]
    fn nesting_past_the_bound_keeps_the_items_found_so_far() {
        let deepest = format!(
            r#"{{"a": {}1{}}}"#,
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        let names = names_values(&deepest);
        assert_eq!(names.len(), 1, "{MAX_DEPTH} levels are read");
        assert_eq!(names[0].1, "1");

        let too_deep = format!(
            r#"{{"a": 1, "b": {}2{}, "c": 3}}"#,
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        assert_eq!(
            names_values(&too_deep),
            vec![("a".to_owned(), "1".to_owned())]
        );

        // A hundred thousand levels would overflow the stack unbounded.
        assert!(extract_json("deep.json", &"[".repeat(100_000)).is_empty());
        let hostile = format!(r#"{{"x": true, "y": {}"#, "{\"k\": ".repeat(100_000));
        assert_eq!(
            names_values(&hostile),
            vec![("x".to_owned(), "true".to_owned())]
        );
    }

    #[test]
    fn empty_containers_yield_nothing() {
        assert!(names_values("{}").is_empty());
        assert!(names_values(r#"{"a": [], "b": {}}"#).is_empty());
    }

    #[test]
    fn bare_scalar_has_no_name() {
        assert!(names_values("42").is_empty());
    }

    #[test]
    fn whitespace_tolerant() {
        assert_eq!(
            names_values("  {\n  \"a\"\t:  1  }\n"),
            vec![("a".to_owned(), "1".to_owned())]
        );
    }
}
