//! Structural + numeric comparison of two telemetry streams.
//!
//! Timing fields (keys ending in `_us`) are never compared — they vary
//! between machines and runs. Service events
//! ([`is_service_event`](grefar_obs::schema::is_service_event):
//! `checkpoint.write`, `health.snapshot`, `profile.span`, alert
//! transitions, the daemon's lifecycle and admission events) are skipped
//! entirely: they depend on run policy (checkpoint interval, snapshot
//! cadence, profiling flags, alert rules) or the daemon's service plane
//! rather than on the schedule, so a checkpointed, profiled or
//! alert-monitored run, or a `grefar-served` session that was `kill -9`'d
//! and resumed, must still diff clean against a bare batch run of the same
//! seed. Everything else in the event schema is deterministic per seed, so
//! two runs of the same binary with the same seed must compare equal, and
//! two runs with different seeds must not.

use crate::stream::{parse_versioned_lines, JsonObject};
use grefar_obs::json::JsonValue;
use grefar_obs::schema;
use std::fmt::Write as _;

/// Knobs for [`diff_streams`].
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Relative tolerance for numeric fields: values `x`, `y` match when
    /// `|x − y| ≤ tolerance · max(|x|, |y|)`. Zero demands bit-equal
    /// formatting (the deterministic-replay case).
    pub tolerance: f64,
    /// Cap on the number of mismatches listed in the rendered report.
    pub max_reported: usize,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            tolerance: 0.0,
            max_reported: 10,
        }
    }
}

/// The outcome of comparing two streams.
#[derive(Debug, Clone, Default)]
pub struct StreamDiff {
    /// Events in the first stream.
    pub events_a: usize,
    /// Events in the second stream.
    pub events_b: usize,
    /// Human-readable mismatch descriptions, truncated to
    /// [`DiffOptions::max_reported`].
    pub mismatches: Vec<String>,
    /// Total mismatches found (may exceed `mismatches.len()`).
    pub mismatch_count: usize,
    /// Events compared field-by-field.
    pub compared: usize,
}

impl StreamDiff {
    /// True when the streams are semantically identical.
    pub fn is_match(&self) -> bool {
        self.mismatch_count == 0 && self.events_a == self.events_b
    }

    /// Renders the verdict and the (truncated) mismatch list.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_match() {
            let _ = writeln!(
                out,
                "streams match: {} events compared (timing fields ignored)",
                self.compared
            );
            return out;
        }
        let _ = writeln!(
            out,
            "streams differ: {} mismatch(es) across {} vs {} events",
            self.mismatch_count, self.events_a, self.events_b
        );
        for m in &self.mismatches {
            let _ = writeln!(out, "  {m}");
        }
        if self.mismatch_count > self.mismatches.len() {
            let _ = writeln!(
                out,
                "  ... and {} more",
                self.mismatch_count - self.mismatches.len()
            );
        }
        out
    }
}

fn is_timing_key(key: &str) -> bool {
    key.ends_with("_us")
}

fn numbers_match(x: f64, y: f64, tolerance: f64) -> bool {
    if x.is_nan() && y.is_nan() {
        return true;
    }
    let diff = (x - y).abs();
    diff <= tolerance * x.abs().max(y.abs())
}

fn values_match(a: &JsonValue, b: &JsonValue, tolerance: f64) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => numbers_match(x, y, tolerance),
        // Null is how NaN serializes; pairing it with a number is a mismatch,
        // everything non-numeric falls back to structural equality.
        _ => a == b,
    }
}

fn describe(value: Option<&JsonValue>) -> String {
    match value {
        None => "<absent>".to_string(),
        Some(v) => format!("{v:?}"),
    }
}

fn event_name(event: &JsonObject) -> &str {
    event
        .get("event")
        .and_then(JsonValue::as_str)
        .unwrap_or("<unnamed>")
}

/// Compares two telemetry documents event-by-event, ignoring `_us` keys.
///
/// # Errors
///
/// Returns `Err` when either document fails JSONL parsing or schema
/// validation — a malformed stream is an error, not a mismatch.
pub fn diff_streams(a: &str, b: &str, opts: &DiffOptions) -> Result<StreamDiff, String> {
    let mut events_a = parse_versioned_lines(a).map_err(|e| format!("first stream: {e}"))?;
    let mut events_b = parse_versioned_lines(b).map_err(|e| format!("second stream: {e}"))?;
    events_a.retain(|e| !schema::is_service_event(event_name(e)));
    events_b.retain(|e| !schema::is_service_event(event_name(e)));
    let mut diff = StreamDiff {
        events_a: events_a.len(),
        events_b: events_b.len(),
        ..StreamDiff::default()
    };
    let report = |diff: &mut StreamDiff, msg: String| {
        diff.mismatch_count += 1;
        if diff.mismatches.len() < opts.max_reported {
            diff.mismatches.push(msg);
        }
    };
    if events_a.len() != events_b.len() {
        report(
            &mut diff,
            format!(
                "event counts differ: {} vs {}",
                events_a.len(),
                events_b.len()
            ),
        );
    }
    for (idx, (ea, eb)) in events_a.iter().zip(&events_b).enumerate() {
        diff.compared += 1;
        let name = event_name(ea);
        if name != event_name(eb) {
            report(
                &mut diff,
                format!("event {}: name {name:?} vs {:?}", idx + 1, event_name(eb)),
            );
            continue; // different event kinds — field diffs would be noise
        }
        let keys: std::collections::BTreeSet<&String> = ea.keys().chain(eb.keys()).collect();
        for key in keys {
            if is_timing_key(key) {
                continue;
            }
            match (ea.get(key), eb.get(key)) {
                (Some(va), Some(vb)) if values_match(va, vb, opts.tolerance) => {}
                (va, vb) => report(
                    &mut diff,
                    format!(
                        "event {} ({name}): field {key:?} {} vs {}",
                        idx + 1,
                        describe(va),
                        describe(vb)
                    ),
                ),
            }
        }
    }
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str =
        "{\"schema\":1,\"event\":\"run.start\",\"scheduler\":\"GreFar\",\"horizon\":2}\n\
         {\"schema\":1,\"event\":\"slot\",\"t\":0,\"energy\":1.25,\"wall_us\":17}\n\
         {\"schema\":1,\"event\":\"slot\",\"t\":1,\"energy\":1.5,\"wall_us\":23}\n";

    #[test]
    fn identical_up_to_timing_matches() {
        let other = BASE.replace("\"wall_us\":17", "\"wall_us\":9999");
        let diff = diff_streams(BASE, &other, &DiffOptions::default()).unwrap();
        assert!(diff.is_match(), "{}", diff.render());
        assert_eq!(diff.compared, 3);
    }

    #[test]
    fn value_divergence_is_reported() {
        let other = BASE.replace("\"energy\":1.5", "\"energy\":1.75");
        let diff = diff_streams(BASE, &other, &DiffOptions::default()).unwrap();
        assert!(!diff.is_match());
        assert_eq!(diff.mismatch_count, 1);
        assert!(
            diff.mismatches[0].contains("\"energy\""),
            "{:?}",
            diff.mismatches
        );
        // ... but a generous relative tolerance absorbs it.
        let loose = DiffOptions {
            tolerance: 0.2,
            ..DiffOptions::default()
        };
        assert!(diff_streams(BASE, &other, &loose).unwrap().is_match());
    }

    #[test]
    fn missing_fields_and_extra_events_are_reported() {
        let shorter = BASE.lines().take(2).collect::<Vec<_>>().join("\n");
        let diff = diff_streams(BASE, &shorter, &DiffOptions::default()).unwrap();
        assert!(!diff.is_match());
        assert!(diff.mismatches[0].contains("event counts differ"));

        let missing = BASE.replace(",\"energy\":1.5", "");
        let diff = diff_streams(BASE, &missing, &DiffOptions::default()).unwrap();
        assert!(!diff.is_match());
        assert!(diff.mismatches[0].contains("<absent>"));
    }

    #[test]
    fn mismatch_list_is_truncated_not_lost() {
        let other = BASE.replace("\"schema\":1", "\"schema\":1,\"extra\":1");
        let opts = DiffOptions {
            max_reported: 1,
            ..DiffOptions::default()
        };
        let diff = diff_streams(BASE, &other, &opts).unwrap();
        assert_eq!(diff.mismatch_count, 3);
        assert_eq!(diff.mismatches.len(), 1);
        assert!(diff.render().contains("and 2 more"));
    }

    #[test]
    fn policy_events_are_ignored() {
        // A checkpointed run interleaves checkpoint.write / health.snapshot
        // events that an uninterrupted run never emits; the schedule itself
        // is identical, so the streams must still match.
        let checkpointed = BASE.replace(
            "{\"schema\":1,\"event\":\"slot\",\"t\":1",
            "{\"schema\":1,\"event\":\"checkpoint.write\",\"t\":1}\n\
             {\"schema\":1,\"event\":\"health.snapshot\",\"t\":1,\"verdict\":\"ok\"}\n\
             {\"schema\":1,\"event\":\"profile.span\",\"path\":\"slot\",\"wall_us\":12}\n\
             {\"schema\":1,\"event\":\"alert.fire\",\"t\":1,\"rule\":\"deg\"}\n\
             {\"schema\":1,\"event\":\"alert.resolve\",\"t\":1,\"rule\":\"deg\"}\n\
             {\"schema\":1,\"event\":\"served.start\",\"addr\":\"127.0.0.1:1\",\"slot\":0,\"clock\":\"manual\"}\n\
             {\"schema\":1,\"event\":\"served.restart\",\"t\":1,\"actor\":\"feeds\",\"restarts\":1,\"backoff_ms\":50}\n\
             {\"schema\":1,\"event\":\"admission.accept\",\"t\":1,\"job\":0,\"count\":1,\"seq\":0}\n\
             {\"schema\":1,\"event\":\"slot\",\"t\":1",
        );
        let diff = diff_streams(BASE, &checkpointed, &DiffOptions::default()).unwrap();
        assert!(diff.is_match(), "{}", diff.render());
        assert_eq!(diff.compared, 3);
    }

    #[test]
    fn parse_failures_are_errors_not_mismatches() {
        assert!(diff_streams(BASE, "not json\n", &DiffOptions::default()).is_err());
    }
}
