//! A minimal parser for the JSONL this crate emits.
//!
//! Scope: flat objects whose values are numbers, strings, booleans or
//! `null` — exactly what [`Event::to_json`](crate::Event::to_json)
//! produces. Used by round-trip tests and offline tooling; not a general
//! JSON parser (no nesting, no arrays).

use std::collections::BTreeMap;

/// One parsed flat JSON object, keyed in sorted order.
pub type JsonObject = BTreeMap<String, JsonValue>;

/// A parsed flat JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one flat JSON object line into an ordered key → value map.
///
/// Returns `Err` with a position-tagged message on malformed input,
/// including duplicate keys (which would silently lose data).
pub fn parse_object(line: &str) -> Result<JsonObject, String> {
    let mut parser = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    parser.expect(b'{')?;
    let mut map = BTreeMap::new();
    parser.skip_ws();
    if parser.peek() == Some(b'}') {
        parser.pos += 1;
    } else {
        loop {
            parser.skip_ws();
            let key = parser.parse_string()?;
            parser.skip_ws();
            parser.expect(b':')?;
            parser.skip_ws();
            let value = parser.parse_value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key:?} at byte {}", parser.pos));
            }
            parser.skip_ws();
            match parser.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        parser.pos,
                        other.map(char::from)
                    ))
                }
            }
        }
    }
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(map)
}

/// Parses a full JSONL document (one object per non-empty line).
pub fn parse_lines(text: &str) -> Result<Vec<JsonObject>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_object(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                char::from(want),
                self.pos,
                other.map(char::from)
            )),
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(format!(
                "unexpected value start at byte {}: {:?}",
                self.pos,
                other.map(char::from)
            )),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid utf-8 in number at byte {start}"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = self.parse_hex4()?;
                        // Surrogate pairs never appear in our output
                        // (events are valid UTF-8); map lone surrogates
                        // to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(format!(
                            "invalid escape at byte {}: {:?}",
                            self.pos,
                            other.map(char::from)
                        ))
                    }
                },
                Some(b) if b < 0x80 => out.push(char::from(b)),
                Some(first) => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // sequence is valid — copy its continuation bytes.
                    let len = match first {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    self.pos = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid utf-8 at byte {start}"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let start = self.pos;
        if self.bytes.len() < start + 4 {
            return Err(format!("truncated \\u escape at byte {start}"));
        }
        let text = std::str::from_utf8(&self.bytes[start..start + 4])
            .map_err(|_| format!("invalid \\u escape at byte {start}"))?;
        let code = u32::from_str_radix(text, 16)
            .map_err(|_| format!("invalid \\u escape {text:?} at byte {start}"))?;
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    #[test]
    fn parses_event_output() {
        let e = Event::new("grefar.decide")
            .field("t", 42_u64)
            .field("v", 7.5)
            .field("solver", "greedy")
            .field("fw_gap", f64::NAN)
            .field("ok", true);
        let map = parse_object(&e.to_json()).unwrap();
        assert_eq!(map["event"].as_str(), Some("grefar.decide"));
        assert_eq!(map["t"].as_f64(), Some(42.0));
        assert_eq!(map["v"].as_f64(), Some(7.5));
        assert_eq!(map["solver"].as_str(), Some("greedy"));
        assert_eq!(map["fw_gap"], JsonValue::Null);
        assert_eq!(map["ok"], JsonValue::Bool(true));
    }

    #[test]
    fn escape_roundtrip() {
        let e = Event::new("x").field("s", "a\"b\\c\nd\te\u{1}é");
        let map = parse_object(&e.to_json()).unwrap();
        assert_eq!(map["s"].as_str(), Some("a\"b\\c\nd\te\u{1}é"));
    }

    #[test]
    fn parses_lines_skipping_blanks() {
        let text = "{\"event\":\"a\"}\n\n{\"event\":\"b\",\"n\":-1.5e2}\n";
        let objects = parse_lines(text).unwrap();
        assert_eq!(objects.len(), 2);
        assert_eq!(objects[1]["n"].as_f64(), Some(-150.0));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_object("{\"a\":}").is_err());
        assert!(parse_object("{\"a\":1").is_err());
        assert!(parse_object("{\"a\":1}x").is_err());
        assert!(parse_object("[1]").is_err());
        assert!(parse_lines("{\"a\":1}\nnot json\n").is_err());
    }

    #[test]
    fn empty_object() {
        assert!(parse_object("{}").unwrap().is_empty());
    }

    #[test]
    fn rejects_truncated_lines() {
        // Every prefix of a valid line must fail cleanly, never panic.
        let full = Event::new("slot")
            .field("t", 3_u64)
            .field("s", "a\\nb")
            .to_json();
        for cut in 1..full.len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            assert!(
                parse_object(&full[..cut]).is_err(),
                "prefix {:?} unexpectedly parsed",
                &full[..cut]
            );
        }
        assert!(parse_object("{\"a\":tru").is_err());
        assert!(parse_object("{\"a\":\"x").is_err());
        assert!(parse_object("{\"a\":\"x\\").is_err());
    }

    #[test]
    fn rejects_non_object_lines() {
        for line in ["not json", "42", "\"string\"", "null", "[{\"a\":1}]", ""] {
            assert!(parse_object(line).is_err(), "{line:?} unexpectedly parsed");
        }
        assert!(parse_lines("{\"a\":1}\n[1,2]\n").is_err());
        assert!(parse_lines("{\"a\":1}\n{\"b\":}\n").is_err());
        // Blank lines stay permitted between objects.
        assert_eq!(parse_lines("{\"a\":1}\n\n{\"b\":2}\n").unwrap().len(), 2);
    }

    #[test]
    fn rejects_invalid_unicode_escapes() {
        assert!(parse_object("{\"s\":\"\\uZZZZ\"}").is_err());
        assert!(parse_object("{\"s\":\"\\u12\"}").is_err());
        assert!(parse_object("{\"s\":\"\\u\"}").is_err());
        assert!(parse_object("{\"s\":\"\\x41\"}").is_err());
        // A valid escape still round-trips.
        assert_eq!(
            parse_object("{\"s\":\"\\u0041\"}").unwrap()["s"].as_str(),
            Some("A")
        );
    }

    #[test]
    fn rejects_duplicate_keys() {
        let err = parse_object("{\"a\":1,\"a\":2}").unwrap_err();
        assert!(err.contains("duplicate key"), "unexpected error: {err}");
        assert!(parse_lines("{\"a\":1}\n{\"b\":1,\"b\":1}\n").is_err());
        // Distinct keys are of course fine.
        assert_eq!(parse_object("{\"a\":1,\"b\":2}").unwrap().len(), 2);
    }
}
