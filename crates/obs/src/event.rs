//! Structured events and their hand-rolled JSON serialization.

use std::borrow::Cow;

use crate::json;

/// A typed field value.
///
/// Floats serialize as [`json::write_number`] does: Rust's
/// shortest-roundtrip `Display` text, and `null` for NaN and infinities
/// (not valid JSON numbers).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (slot numbers, counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (costs, queue lengths, gaps).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (scheduler / solver names). Static labels are
    /// borrowed, so tagging an event with one allocates nothing.
    Str(Cow<'static, str>),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(Cow::Borrowed(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Cow::Owned(v))
    }
}

/// A named, flat record of typed fields — one telemetry observation.
///
/// Field keys are `&'static str` and static string values are borrowed,
/// so event construction allocates only the field vector (and any owned
/// string values).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    name: &'static str,
    fields: Vec<(&'static str, Value)>,
}

/// Fields reserved by [`Event::new`]: the largest per-slot events
/// (`grefar.decide`, the DC-0 `decision.explain`) carry 12, so a builder
/// chain allocates its field vector once.
const RESERVED_FIELDS: usize = 12;

impl Event {
    /// Starts an event with the given name.
    pub fn new(name: &'static str) -> Self {
        Event {
            name,
            fields: Vec::with_capacity(RESERVED_FIELDS),
        }
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// The event name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The fields in insertion order.
    pub fn fields(&self) -> &[(&'static str, Value)] {
        &self.fields
    }

    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Serializes to a single-line JSON object:
    /// `{"event":"<name>","k":v,...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + 16 * self.fields.len());
        self.write_json(&mut out, None);
        out
    }

    /// Serializes like [`to_json`](Event::to_json) but with a leading
    /// `"schema":<version>` field, marking the line's wire-format version
    /// (see [`SCHEMA_VERSION`](crate::SCHEMA_VERSION)). Consumers reject
    /// versions newer than the one they were built against.
    pub fn to_json_with_schema(&self, version: u32) -> String {
        let mut out = String::with_capacity(44 + 16 * self.fields.len());
        self.write_json(&mut out, Some(version));
        out
    }

    /// The one serializer: appends the event to `out` as a single-line
    /// JSON object, led by `"schema":<version>` when `schema` is given.
    /// [`to_json`](Event::to_json), [`to_json_with_schema`](Event::to_json_with_schema)
    /// and [`JsonlSink`](crate::JsonlSink) all write through it; the sink
    /// passes one reused line buffer, so a recorded event allocates
    /// nothing once that buffer has grown to the longest line.
    pub fn write_json(&self, out: &mut String, schema: Option<u32>) {
        if let Some(version) = schema {
            out.push_str("{\"schema\":");
            json::write_u64(out, u64::from(version));
            out.push_str(",\"event\":");
        } else {
            out.push_str("{\"event\":");
        }
        json::write_string(out, self.name);
        for (key, value) in &self.fields {
            out.push(',');
            json::write_string(out, key);
            out.push(':');
            write_json_value(out, value);
        }
        out.push('}');
    }
}

fn write_json_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => json::write_u64(out, *v),
        Value::I64(v) => json::write_i64(out, *v),
        Value::F64(v) => json::write_number(out, *v),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(s) => json::write_string(out, s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let e = Event::new("slot").field("t", 3_u64).field("energy", 1.5);
        assert_eq!(e.name(), "slot");
        assert_eq!(e.get("t"), Some(&Value::U64(3)));
        assert_eq!(e.get("energy"), Some(&Value::F64(1.5)));
        assert_eq!(e.get("missing"), None);
    }

    #[test]
    fn json_shape() {
        let e = Event::new("slot")
            .field("t", 3_u64)
            .field("neg", -2_i64)
            .field("ok", true)
            .field("who", "GreFar(V=7.5)");
        assert_eq!(
            e.to_json(),
            r#"{"event":"slot","t":3,"neg":-2,"ok":true,"who":"GreFar(V=7.5)"}"#
        );
    }

    #[test]
    fn schema_field_leads_the_line() {
        let e = Event::new("slot").field("t", 3_u64);
        assert_eq!(
            e.to_json_with_schema(1),
            r#"{"schema":1,"event":"slot","t":3}"#
        );
        // The unversioned form is unchanged.
        assert_eq!(e.to_json(), r#"{"event":"slot","t":3}"#);
    }

    #[test]
    fn floats_roundtrip_and_nonfinite_is_null() {
        let e = Event::new("x")
            .field("v", 0.1)
            .field("nan", f64::NAN)
            .field("inf", f64::INFINITY);
        assert_eq!(
            e.to_json(),
            r#"{"event":"x","v":0.1,"nan":null,"inf":null}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::new("x").field("s", "a\"b\\c\nd\te\u{1}");
        assert_eq!(
            e.to_json(),
            "{\"event\":\"x\",\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}"
        );
    }
}
