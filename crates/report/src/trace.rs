//! Chrome trace-event (Perfetto) export of a telemetry stream.
//!
//! [`export_trace`] turns a recorded JSONL run into the JSON object
//! format of the Chrome trace-event spec, openable directly in
//! <https://ui.perfetto.dev>: each run becomes a process whose `slots`
//! track carries one 1 ms-per-slot `X` span per scheduled slot, with
//! fault/degraded/feed/stale activity overlaid as instant (`i`) events on
//! sibling tracks. When the stream was recorded with `--profile`, the
//! folded span statistics are re-nested into a `profile` process using
//! the pre-order path layout the profiler emits, tagged with the stable
//! `span_id`/`parent_id` pairs from `grefar_obs::span_id`.
//!
//! The writer is line-oriented — a fixed header, one event per line, a
//! fixed footer — so [`lint_trace`] can validate the shape with per-line
//! checks and no nested-JSON parser, and so the export is byte-stable:
//! every field is derived from the deterministic event stream (logical
//! clocks), never from wall time.

use crate::profile::ProfileReport;
use crate::stream::{Run, TelemetryStream};
use grefar_obs::json::write_string;

/// Fixed first line of every export.
pub const TRACE_HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
/// Fixed last line of every export.
pub const TRACE_FOOTER: &str = "]}";

/// Microseconds of trace time per slot: slot `t` spans `[t, t+1)` ms.
const SLOT_US: u64 = 1000;

/// Track (thread) ids within each run's process.
const TID_SLOTS: u64 = 1;
const TID_FAULTS: u64 = 2;
const TID_DEGRADED: u64 = 3;
const TID_FEED: u64 = 4;
const TID_STALE: u64 = 5;

/// Formats an `f64` as a JSON number (non-finite values are not valid
/// JSON, so they render as 0 — the stream never carries them in the
/// fields exported here).
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn metadata(kind: &str, label: &str, pid: usize, tid: u64) -> String {
    let mut line = format!(
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":"
    );
    write_string(&mut line, label);
    line.push_str("}}");
    line
}

fn instant(name: &str, ts: u64, pid: usize, tid: u64, args: &str) -> String {
    let mut line = String::from("{\"name\":");
    write_string(&mut line, name);
    line.push_str(&format!(
        ",\"ph\":\"i\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"s\":\"t\",\"args\":{{{args}}}}}"
    ));
    line
}

fn run_events(run: &Run, pid: usize, lines: &mut Vec<String>) {
    lines.push(metadata("process_name", run.display_label(), pid, 0));
    lines.push(metadata("thread_name", "slots", pid, TID_SLOTS));
    for sample in &run.slots {
        lines.push(format!(
            "{{\"name\":\"slot\",\"ph\":\"X\",\"ts\":{},\"dur\":{SLOT_US},\"pid\":{pid},\
             \"tid\":{TID_SLOTS},\"args\":{{\"t\":{},\"queue_max\":{},\"energy\":{}}}}}",
            sample.t * SLOT_US,
            sample.t,
            num(sample.queue_max),
            num(sample.energy)
        ));
    }
    if !run.faults.is_empty() {
        lines.push(metadata("thread_name", "faults", pid, TID_FAULTS));
    }
    for fault in &run.faults {
        let mut args = format!("\"start\":{},\"end\":{}", fault.start, fault.end);
        if let Some(dc) = fault.dc {
            args += &format!(",\"dc\":{dc}");
        }
        lines.push(instant(
            &format!("fault:{}", fault.kind),
            fault.start * SLOT_US,
            pid,
            TID_FAULTS,
            &args,
        ));
    }
    if !run.degraded.is_empty() {
        lines.push(metadata("thread_name", "degraded", pid, TID_DEGRADED));
    }
    for sample in &run.degraded {
        let args = match sample.dc {
            Some(dc) => format!("\"dc\":{dc}"),
            None => String::new(),
        };
        lines.push(instant(
            &format!("degraded:{}", sample.reason),
            sample.t * SLOT_US,
            pid,
            TID_DEGRADED,
            &args,
        ));
    }
    if !run.feed_fetches.is_empty() || !run.feed_breakers.is_empty() {
        lines.push(metadata("thread_name", "feed", pid, TID_FEED));
    }
    for fetch in &run.feed_fetches {
        lines.push(instant(
            &format!("feed:{}:{}", fetch.feed, fetch.outcome),
            fetch.t * SLOT_US,
            pid,
            TID_FEED,
            &format!("\"attempts\":{}", fetch.attempts),
        ));
    }
    for breaker in &run.feed_breakers {
        lines.push(instant(
            &format!("breaker:{}:{}", breaker.feed, breaker.to),
            breaker.t * SLOT_US,
            pid,
            TID_FEED,
            "",
        ));
    }
    if !run.stale.is_empty() {
        lines.push(metadata("thread_name", "stale", pid, TID_STALE));
    }
    for sample in &run.stale {
        lines.push(instant(
            "stale",
            sample.t * SLOT_US,
            pid,
            TID_STALE,
            &format!(
                "\"stale_fields\":{},\"max_age\":{}",
                sample.stale_fields, sample.max_age
            ),
        ));
    }
}

/// Re-nests the profiler's folded per-path statistics into contiguous
/// spans: children are laid out inside their parent's span in emission
/// (pre-order) sequence, so the trace shows the same shape a flamegraph
/// of the folded output would.
fn profile_events(profile: &ProfileReport, lines: &mut Vec<String>) {
    lines.push(metadata("process_name", "profile", 0, 0));
    lines.push(metadata(
        "thread_name",
        &format!("spans ({} clock)", profile.clock),
        0,
        TID_SLOTS,
    ));
    // Stack of open ancestor spans: (path, start ts, child time consumed).
    let mut stack: Vec<(String, u64, u64)> = Vec::new();
    let mut root_cursor = 0_u64;
    for span in &profile.spans {
        let parent = grefar_obs::span_parent(&span.path);
        while let Some((top_path, _, _)) = stack.last() {
            if Some(top_path.as_str()) == parent {
                break;
            }
            stack.pop();
        }
        let ts = match stack.last_mut() {
            Some((_, start, consumed)) => {
                let ts = *start + *consumed;
                *consumed += span.total;
                ts
            }
            None => {
                let ts = root_cursor;
                root_cursor += span.total;
                ts
            }
        };
        let leaf = span.path.rsplit(';').next().unwrap_or(&span.path);
        let mut args = format!(
            "\"span_id\":{},\"count\":{},\"self\":{}",
            grefar_obs::span_id(&span.path),
            span.count,
            span.self_time
        );
        if let Some(parent_path) = parent {
            args += &format!(",\"parent_id\":{}", grefar_obs::span_id(parent_path));
        }
        let mut line = String::from("{\"name\":");
        write_string(&mut line, leaf);
        line.push_str(&format!(
            ",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":0,\"tid\":{TID_SLOTS},\
             \"args\":{{{args}}}}}",
            span.total
        ));
        lines.push(line);
        stack.push((span.path.clone(), ts, 0));
    }
}

/// Exports a telemetry stream as Chrome trace-event JSON.
///
/// # Errors
///
/// Returns `Err` when the document fails JSONL parsing or mixes span
/// clocks; a stream without `profile.span` events still exports (it just
/// has no profile process).
pub fn export_trace(text: &str) -> Result<String, String> {
    let stream = TelemetryStream::parse(text)?;
    let mut lines = Vec::new();
    for (idx, run) in stream.runs.iter().enumerate() {
        run_events(run, idx + 1, &mut lines);
    }
    // Unprofiled streams are fine; real errors (mixed clocks) are not.
    match ProfileReport::from_stream(text) {
        Ok(profile) => profile_events(&profile, &mut lines),
        Err(error) if error.contains("no profile.span events") => {}
        Err(error) => return Err(error),
    }
    let mut out = String::from(TRACE_HEADER);
    out.push('\n');
    for (idx, line) in lines.iter().enumerate() {
        out.push_str(line);
        if idx + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(TRACE_FOOTER);
    out.push('\n');
    Ok(out)
}

fn has_key(line: &str, key: &str) -> bool {
    line.contains(&format!("\"{key}\":"))
}

/// Validates the line shape of an exported trace: fixed header/footer,
/// one brace-balanced event object per line, a legal `ph` on each, the
/// keys each phase requires, and comma continuation on every event line
/// but the last. Returns one finding per violation; empty means clean.
pub fn lint_trace(trace: &str) -> Vec<String> {
    let mut findings = Vec::new();
    let lines: Vec<&str> = trace.lines().collect();
    if lines.first().copied() != Some(TRACE_HEADER) {
        findings.push(format!("line 1: expected header {TRACE_HEADER:?}"));
    }
    if lines.last().copied() != Some(TRACE_FOOTER) {
        findings.push(format!(
            "line {}: expected footer {TRACE_FOOTER:?}",
            lines.len()
        ));
    }
    if lines.len() < 2 {
        return findings;
    }
    let events = &lines[1..lines.len() - 1];
    for (idx, raw) in events.iter().enumerate() {
        let line_no = idx + 2;
        let wants_comma = idx + 1 < events.len();
        let line = match (raw.strip_suffix(','), wants_comma) {
            (Some(stripped), true) => stripped,
            (None, false) => raw,
            (Some(_), false) => {
                findings.push(format!("line {line_no}: trailing comma on last event"));
                raw.strip_suffix(',').unwrap_or(raw)
            }
            (None, true) => {
                findings.push(format!("line {line_no}: missing comma continuation"));
                raw
            }
        };
        if !line.starts_with("{\"name\":\"") || !line.ends_with('}') {
            findings.push(format!("line {line_no}: not a trace event object"));
            continue;
        }
        let opens = line.matches('{').count();
        let closes = line.matches('}').count();
        if opens != closes {
            findings.push(format!("line {line_no}: unbalanced braces"));
        }
        for key in ["ph", "ts", "pid", "tid"] {
            if !has_key(line, key) {
                findings.push(format!("line {line_no}: missing {key:?}"));
            }
        }
        let ph = line
            .split("\"ph\":\"")
            .nth(1)
            .and_then(|rest| rest.chars().next());
        match ph {
            Some('X') => {
                if !has_key(line, "dur") {
                    findings.push(format!("line {line_no}: complete event without \"dur\""));
                }
            }
            Some('i') => {
                if !has_key(line, "s") {
                    findings.push(format!("line {line_no}: instant event without scope \"s\""));
                }
            }
            Some('M') => {}
            other => findings.push(format!("line {line_no}: illegal phase {other:?}")),
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> String {
        "{\"schema\":1,\"event\":\"run.start\",\"scheduler\":\"GreFar(V=2)\",\"horizon\":2}\n\
         {\"schema\":1,\"event\":\"fault.inject\",\"t\":1,\"kind\":\"outage\",\"start\":1,\"end\":2,\"dc\":0}\n\
         {\"schema\":1,\"event\":\"degraded.mode\",\"t\":1,\"reason\":\"dc_offline\",\"dc\":0}\n\
         {\"schema\":1,\"event\":\"slot\",\"t\":0,\"queue_central\":1,\"queue_local\":1,\"queue_max\":2,\"energy\":1.5,\"fairness\":0,\"arrivals\":3,\"dropped\":0,\"wall_us\":5}\n\
         {\"schema\":1,\"event\":\"slot\",\"t\":1,\"queue_central\":1,\"queue_local\":1,\"queue_max\":3,\"energy\":1.5,\"fairness\":0,\"arrivals\":3,\"dropped\":0,\"wall_us\":5}\n\
         {\"schema\":1,\"event\":\"state.stale\",\"t\":1,\"stale_fields\":1,\"max_age\":2,\"price_mae\":0.1}\n\
         {\"schema\":1,\"event\":\"run.end\",\"slots\":2,\"completed\":4,\"dropped\":0,\"wall_us\":9}\n\
         {\"schema\":1,\"event\":\"profile.span\",\"stack\":\"slot\",\"clock\":\"logical\",\"count\":2,\"total_ticks\":20,\"self_ticks\":8}\n\
         {\"schema\":1,\"event\":\"profile.span\",\"stack\":\"slot;decide\",\"clock\":\"logical\",\"count\":2,\"total_ticks\":12,\"self_ticks\":12}\n"
            .to_string()
    }

    #[test]
    fn export_is_lint_clean_and_deterministic() {
        let text = sample_stream();
        let trace = export_trace(&text).unwrap();
        assert_eq!(lint_trace(&trace), Vec::<String>::new(), "{trace}");
        assert_eq!(trace, export_trace(&text).unwrap());
        assert!(
            trace.contains("\"name\":\"slot\",\"ph\":\"X\",\"ts\":1000"),
            "{trace}"
        );
        assert!(
            trace.contains("\"name\":\"fault:outage\",\"ph\":\"i\""),
            "{trace}"
        );
        assert!(
            trace.contains("\"name\":\"degraded:dc_offline\""),
            "{trace}"
        );
        assert!(trace.contains("\"name\":\"stale\""), "{trace}");
    }

    #[test]
    fn profile_spans_nest_inside_their_parent() {
        let trace = export_trace(&sample_stream()).unwrap();
        // Root span covers [0, 20); its child starts at the root's ts and
        // carries the parent link.
        assert!(
            trace.contains("\"name\":\"slot\",\"ph\":\"X\",\"ts\":0,\"dur\":20,\"pid\":0"),
            "{trace}"
        );
        let child = trace
            .lines()
            .find(|l| l.contains("\"name\":\"decide\""))
            .unwrap();
        assert!(child.contains("\"ts\":0,\"dur\":12"), "{child}");
        assert!(child.contains("\"parent_id\":"), "{child}");
        assert!(child.contains(&format!(
            "\"span_id\":{}",
            grefar_obs::span_id("slot;decide")
        )));
    }

    #[test]
    fn unprofiled_streams_still_export() {
        let bare: String = sample_stream()
            .lines()
            .filter(|l| !l.contains("profile.span"))
            .map(|l| format!("{l}\n"))
            .collect();
        let trace = export_trace(&bare).unwrap();
        assert_eq!(lint_trace(&trace), Vec::<String>::new());
        assert!(!trace.contains("\"pid\":0,"), "{trace}");
    }

    #[test]
    fn lint_flags_shape_violations() {
        let trace = export_trace(&sample_stream()).unwrap();
        let bad_phase = trace.replacen("\"ph\":\"X\"", "\"ph\":\"Q\"", 1);
        assert!(lint_trace(&bad_phase)
            .iter()
            .any(|f| f.contains("illegal phase")));
        let no_dur = trace.replacen("\"dur\":1000,", "", 1);
        assert!(lint_trace(&no_dur).iter().any(|f| f.contains("dur")));
        let no_header = trace.replacen(TRACE_HEADER, "[", 1);
        assert!(lint_trace(&no_header).iter().any(|f| f.contains("header")));
        let bad_comma = trace.replacen("}},\n", "}}\n", 1);
        assert!(
            lint_trace(&bad_comma).iter().any(|f| f.contains("comma")),
            "{:?}",
            lint_trace(&bad_comma)
        );
    }

    #[test]
    fn labels_are_escaped() {
        let text = sample_stream().replace("GreFar(V=2)", "He said \\\"hi\\\"");
        let trace = export_trace(&text).unwrap();
        assert_eq!(lint_trace(&trace), Vec::<String>::new(), "{trace}");
        assert!(trace.contains("He said \\\"hi\\\""), "{trace}");
    }
}
