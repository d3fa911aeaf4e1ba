//! The workspace's JSON codec: a minimal value, two printers and a parser.
//!
//! The workspace deliberately adds no new dependencies, so everything it
//! writes or reads as JSON — `co-check` reproducers, trace lines, analysis
//! reports, recorder dumps — goes through this one module. The subset is
//! objects, arrays, strings, booleans and **non-negative integers** (every
//! number the workspace serializes is a count, a microsecond timestamp or
//! an id). Floats and negative numbers are rejected on parse — a document
//! containing one is corrupt.
//!
//! Output is deterministic: object keys keep insertion order and both
//! printers are byte-stable, so a reproducer file replays byte-for-byte
//! and two reports of one trace compare with `cmp`.

use std::fmt;

/// A JSON value (integer-only numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, keeping their order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// An array of numbers.
    pub fn nums<T: Into<u64>>(values: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(values.into_iter().map(|v| Json::Num(v.into())).collect())
    }

    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Fetches an integer field from an object, with a path-labelled error.
    pub fn field_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer field `{key}`"))
    }

    /// Fetches a boolean field from an object, with a path-labelled error.
    pub fn field_bool(&self, key: &str) -> Result<bool, String> {
        self.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("missing or non-boolean field `{key}`"))
    }

    /// Fetches an array field from an object, with a path-labelled error.
    pub fn field_arr(&self, key: &str) -> Result<&[Json], String> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing or non-array field `{key}`"))
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a position-labelled message on malformed input, floats,
    /// negative numbers or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Pretty-prints with two-space indentation; byte-stable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_indented(f, 0)
    }
}

impl Json {
    /// The single-line form (trace reports, recorder dumps, watch output).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_compact(&self, f: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                // A list of numbers keeps the `[1, 2]` spelling the finding
                // lists (`missing`, `requesters`, `sources`) have always
                // had; reports are compared byte for byte across versions.
                let numbers = items.iter().all(|item| matches!(item, Json::Num(_)));
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, "{}", if numbers { ", " } else { "," })?;
                    }
                    item.write_compact(f)?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, key)?;
                    write!(f, ":")?;
                    value.write_compact(f)?;
                }
                write!(f, "}}")
            }
        }
    }

    fn write_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) => write!(f, "{v}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) if items.is_empty() => write!(f, "[]"),
            Json::Arr(items) => {
                writeln!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{pad}")?;
                    item.write_indented(f, depth + 1)?;
                    writeln!(f, "{}", if i + 1 < items.len() { "," } else { "" })?;
                }
                write!(f, "{close}]")
            }
            Json::Obj(fields) if fields.is_empty() => write!(f, "{{}}"),
            Json::Obj(fields) => {
                writeln!(f, "{{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    write!(f, "{pad}")?;
                    write_escaped(f, key)?;
                    write!(f, ": ")?;
                    value.write_indented(f, depth + 1)?;
                    writeln!(f, "{}", if i + 1 < fields.len() { "," } else { "" })?;
                }
                write!(f, "{close}}}")
            }
        }
    }
}

fn write_escaped(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(format!(
                "negative number at byte {} (only non-negative integers are supported)",
                self.pos
            )),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "float at byte {start} (only non-negative integers are supported)"
            ));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("integer overflow at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("bad codepoint at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // on char boundaries is safe via chars()).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_parse_round_trip() {
        let doc = Json::Obj(vec![
            ("n".to_string(), Json::Num(3)),
            (
                "name".to_string(),
                Json::Str("a \"quoted\"\nline".to_string()),
            ),
            (
                "items".to_string(),
                Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(u64::MAX)]),
            ),
            ("empty_arr".to_string(), Json::Arr(vec![])),
            ("empty_obj".to_string(), Json::Obj(vec![])),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Byte-stable: printing the re-parsed value reproduces the text.
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn compact_form_is_one_line_and_parses_back() {
        let doc = Json::obj([
            ("kind", Json::Str("ret_storm".to_string())),
            ("requesters", Json::nums([1u32, 2])),
            ("lines", Json::Arr(vec![Json::Str("{\"a\":1}".to_string())])),
            ("rows", Json::Arr(vec![Json::obj([]), Json::obj([])])),
            ("starved", Json::Bool(false)),
            ("ctl", Json::Str("\u{1}\\".to_string())),
        ]);
        let text = doc.to_compact();
        assert_eq!(
            text,
            "{\"kind\":\"ret_storm\",\"requesters\":[1, 2],\
             \"lines\":[\"{\\\"a\\\":1}\"],\"rows\":[{},{}],\"starved\":false,\"ctl\":\"\\u0001\\\\\"}"
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_standard_whitespace_and_escapes() {
        let parsed = Json::parse(" { \"k\" : [ 1 ,\t2 ] , \"u\" : \"\\u0041\" } ").unwrap();
        assert_eq!(parsed.field_arr("k").unwrap().len(), 2);
        assert_eq!(parsed.get("u").and_then(Json::as_str), Some("A"));
    }

    #[test]
    fn rejects_floats_negatives_and_garbage() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("-3").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("{\"a\"").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn field_accessors_report_the_key() {
        let obj = Json::Obj(vec![("a".to_string(), Json::Num(1))]);
        assert_eq!(obj.field_u64("a").unwrap(), 1);
        assert!(obj.field_u64("missing").unwrap_err().contains("missing"));
        assert!(obj.field_bool("a").unwrap_err().contains("a"));
    }
}
