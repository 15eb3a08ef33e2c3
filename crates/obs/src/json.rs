//! The JSONL this crate emits: a minimal parser, and the writers that
//! produce it.
//!
//! Scope: flat objects whose values are numbers, strings, booleans or
//! `null` — exactly what [`Event::to_json`](crate::Event::to_json)
//! produces. The parser serves round-trip tests and offline tooling; it
//! is not a general JSON parser (no nesting, no arrays).
//!
//! The writers ([`write_string`], [`write_u64`], [`write_i64`],
//! [`write_f64`], [`write_number`]) append to a caller's `String`, so a
//! serializer that emits many values (an [`Event`](crate::Event), a
//! simulator checkpoint) formats them in place with one set of rules.

use core::fmt::Write as _;
use std::collections::BTreeMap;

/// 2^53: below it every integer is an `f64`, and `Display` prints a whole
/// `f64` as exactly that integer's digits.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// Appends `s` as a JSON string literal (quoted, escaped).
///
/// Runs that need no escaping are copied whole, so a key or a label
/// (which never needs escaping) costs one copy. Every byte that needs an
/// escape is ASCII and no byte of a multi-byte UTF-8 sequence is, so the
/// scan is bytewise and each run ends on a character boundary.
pub fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let needs_escape = |byte: u8| byte < 0x20 || byte == b'"' || byte == b'\\';
    out.push('"');
    let mut rest = s;
    while let Some(at) = rest.bytes().position(needs_escape) {
        let byte = rest.as_bytes()[at];
        out.push_str(&rest[..at]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                // `\u00XX`, in the lowercase hex `{:04x}` writes.
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xf)]));
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// `"00"`, `"01"`, …, `"99"`: two digits per table read.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal.
pub fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    while v >= 10 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    // `v` is now a last lone digit, or 0 after an even digit count.
    if v > 0 || start == digits.len() {
        start -= 1;
        digits[start] = b'0' + v as u8;
    }
    for &digit in &digits[start..] {
        out.push(char::from(digit));
    }
}

/// Appends `v` in decimal.
pub fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Appends exactly what `format!("{v}")` gives: Rust's shortest
/// round-trip text, which parses back to the same bits, and `NaN`, `inf`
/// or `-inf` when `v` is not finite.
///
/// A whole `v` with `|v| < 2^53` takes a fast path through
/// [`write_u64`]'s digit loop; `-0.0` and every other value go through
/// `Display`. Below 2^53 the cast to `i64` truncates exactly, so `v` is
/// whole exactly when the cast round-trips.
pub fn write_f64(out: &mut String, v: f64) {
    let whole = v.abs() < EXACT_INTEGERS && (v as i64) as f64 == v;
    if whole && !(v == 0.0 && v.is_sign_negative()) {
        write_i64(out, v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends `v` as a JSON number ([`write_f64`] text), or `null` when `v`
/// is not finite (JSON has no NaN or infinities).
pub fn write_number(out: &mut String, v: f64) {
    if v.is_finite() {
        write_f64(out, v);
    } else {
        out.push_str("null");
    }
}

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

    /// The former char-by-char escaper: the oracle for the run-copying
    /// one.
    fn escaped_by_char(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn string_writer_matches_the_char_by_char_escaper() {
        let mut samples: Vec<String> = (0u8..0x80)
            .map(|b| format!("{0}a{0}é{0}{0}\u{1F600}{0}", char::from(b)))
            .collect();
        samples.extend(["", "plain", "é", "greedy", "a\"b\\c\nd\te\u{1}é"].map(String::from));
        for s in samples {
            let mut out = String::new();
            write_string(&mut out, &s);
            assert_eq!(out, escaped_by_char(&s), "{s:?}");
        }
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

    /// splitmix64: a seeded stream of bit patterns for the parity tests.
    fn next_bits(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64_text(v: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, v);
        out
    }

    #[test]
    fn number_writer_matches_display_at_the_edges() {
        let two_53 = EXACT_INTEGERS;
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            two_53 - 1.0,
            two_53,
            two_53 + 2.0,
            2f64.powi(60),
            1e15,
            1e16,
            1e21,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in edges {
            assert_eq!(f64_text(v), format!("{v}"), "bits {:#x}", v.to_bits());
        }
    }

    #[test]
    fn number_writer_matches_display_on_seeded_values() {
        let mut state = 5;
        for i in 0..100_000 {
            let bits = next_bits(&mut state);
            let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
            let v = match i % 4 {
                // Whole numbers of every magnitude up to 2^64, across the
                // fast path's 2^53 edge.
                0 => sign * (bits >> (bits % 64)) as f64,
                // Arbitrary bit patterns: NaNs, infinities, subnormals.
                1 => f64::from_bits(bits),
                // Binary fractions and small integers.
                2 => sign * (bits >> 40) as f64 / 1024.0,
                // Decimal fractions, as costs and queue lengths are.
                _ => sign * (bits >> 20) as f64 * 1e-6,
            };
            assert_eq!(f64_text(v), format!("{v}"), "bits {:#x}", v.to_bits());
        }
    }

    #[test]
    fn integer_writers_match_display() {
        for v in [0, 1, 9, 10, 99, 100, 12_345, u64::MAX - 1, u64::MAX] {
            let mut out = String::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        for v in [0, -1, 1, -10, 42, i64::MIN, i64::MIN + 1, i64::MAX] {
            let mut out = String::new();
            write_i64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn json_numbers_are_null_when_not_finite() {
        for (v, want) in [
            (2.0, "2"),
            (-0.5, "-0.5"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            let mut out = String::new();
            write_number(&mut out, v);
            assert_eq!(out, want);
        }
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
