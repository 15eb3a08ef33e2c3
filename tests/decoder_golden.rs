//! Differential oracle for the telemetry decoder: every `grefar-report`
//! rendering of a mixed stream must reproduce, byte for byte, the output
//! recorded before the fold and the report stream shared one decoder.
//!
//! `tests/fixtures/decoder/mixed.jsonl` concatenates four real streams:
//! `fig2 --hours 12 --profile logical`; a faulted, lossy-feed, alerted,
//! checkpointed `grefar_cli --hours 80 --beta 100` run; `grefar_cli
//! --scheduler mpc --hours 6`; and a manual-clock `grefar-served` session
//! (one good submit, one bad submit, an advance, then SIGTERM). The other
//! files in that directory are the recorded outputs of `grefar-report
//! analyze`, `explain --top-k 3`, `metrics` (with and without
//! `--include-timings`), `alerts --rules 'deg:degraded_events>0'`,
//! `profile` and `trace` on it; each test rebuilds one of them through the
//! library API the command calls.

use grefar::obs::SCHEMA_VERSION;
use grefar_metrics::{alerts, parse_rules, MetricsFold};
use grefar_report::{
    export_trace, lint_trace, Analysis, ExplainReport, ProfileReport, TelemetryStream,
};

const STREAM: &str = include_str!("fixtures/decoder/mixed.jsonl");

fn assert_same(name: &str, expected: &str, actual: &str) {
    if expected != actual {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "{name} differs from the recorded output at line {}:\n  recorded: {:?}\n  rebuilt:  {:?}",
            line + 1,
            expected.lines().nth(line),
            actual.lines().nth(line)
        );
    }
}

#[test]
fn analyze_matches_the_recording() {
    let stream = TelemetryStream::parse(STREAM).expect("stream parses");
    let rendered = Analysis::from_stream(&stream).render();
    assert_same(
        "analyze",
        include_str!("fixtures/decoder/analyze.txt"),
        &rendered,
    );
}

#[test]
fn explain_matches_the_recording() {
    let report = ExplainReport::from_stream(STREAM).expect("stream has provenance");
    assert_eq!(report.reconcile(), Vec::<String>::new());
    let rendered = format!(
        "{}attribution reconciles with grefar.decide across {} slot(s)\n",
        report.render_top(3),
        report.slots.len()
    );
    assert_same(
        "explain",
        include_str!("fixtures/decoder/explain.txt"),
        &rendered,
    );
}

#[test]
fn metrics_rebuild_matches_the_recording() {
    for (include_timings, expected) in [
        (false, include_str!("fixtures/decoder/metrics.prom")),
        (true, include_str!("fixtures/decoder/metrics_timings.prom")),
    ] {
        let mut fold = MetricsFold::new(include_timings);
        fold.fold_jsonl(STREAM).expect("stream folds");
        assert_same(
            &format!("metrics (include_timings={include_timings})"),
            expected,
            &fold.render(),
        );
    }
}

#[test]
fn alert_replay_matches_the_recording() {
    let rules = parse_rules("deg:degraded_events>0").expect("valid rule");
    let (_, engine, events) = alerts::replay_jsonl(rules, STREAM).expect("stream replays");
    let mut rendered = String::new();
    for event in &events {
        rendered.push_str(&event.to_json_with_schema(SCHEMA_VERSION));
        rendered.push('\n');
    }
    let fired = events.iter().filter(|e| e.name() == "alert.fire").count();
    rendered.push_str(&format!(
        "{fired} fired, {} resolved, {} still firing at end of stream\n",
        events.len() - fired,
        engine.active_count()
    ));
    assert_same(
        "alerts",
        include_str!("fixtures/decoder/alerts.txt"),
        &rendered,
    );
}

#[test]
fn profile_matches_the_recording() {
    let report = ProfileReport::from_stream(STREAM).expect("stream has spans");
    assert_same(
        "profile",
        include_str!("fixtures/decoder/profile.txt"),
        &report.render(),
    );
}

#[test]
fn trace_export_matches_the_recording() {
    let trace = export_trace(STREAM).expect("stream exports");
    assert_eq!(lint_trace(&trace), Vec::<String>::new());
    assert_same("trace", include_str!("fixtures/decoder/trace.json"), &trace);
}
