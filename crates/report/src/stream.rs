//! Parsing and segmentation of a GreFar JSONL telemetry stream.
//!
//! A stream (see the `grefar-obs` crate docs for the event schema) is a
//! flat sequence of events; this module decodes every line through
//! [`grefar_obs::decode`] (which also checks its wire-format version),
//! groups the events into per-run segments delimited by
//! `run.start`/`run.end` (with optional `sweep.run` labels), and collects
//! the typed samples the analyzers consume.

use grefar_obs::decode::{self, TelemetryEvent};
use grefar_obs::json;

pub use grefar_obs::decode::{
    BoundsEvent, BreakerSample, DecideSample, DegradedSample, ExplainSample, FaultSample,
    FeedFetchSample, LedgerSample, SlotSample, StaleSample,
};
pub use grefar_obs::json::JsonObject;

/// Parses a JSONL document and validates the per-line `"schema"` field
/// (see [`decode::check_version`]).
pub fn parse_versioned_lines(text: &str) -> Result<Vec<JsonObject>, String> {
    let events = json::parse_lines(text)?;
    for (idx, event) in events.iter().enumerate() {
        decode::check_version(event).map_err(|e| format!("event {}: {e}", idx + 1))?;
    }
    Ok(events)
}

/// One simulation run's telemetry: the events between a `run.start` and its
/// `run.end`, plus the preceding `sweep.run` label when present.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// The `sweep.run` label, if the run was part of a labeled sweep.
    pub label: Option<String>,
    /// The scheduler name from `run.start`.
    pub scheduler: String,
    /// Declared horizon from `run.start`.
    pub horizon: u64,
    /// Per-slot samples in slot order.
    pub slots: Vec<SlotSample>,
    /// Per-decision scheduler samples in slot order.
    pub decides: Vec<DecideSample<'static>>,
    /// `decision.explain` provenance events, in stream order (N per
    /// decided slot, one per data center).
    pub explains: Vec<ExplainSample<'static>>,
    /// `wall_us` of every `lp.solve` event.
    pub lp_wall_us: Vec<f64>,
    /// Simplex pivot counts (phase 1 + phase 2) of every `lp.solve` event.
    pub lp_pivots: Vec<f64>,
    /// Total completed jobs from `run.end`.
    pub completed: Option<f64>,
    /// Total dropped jobs from `run.end`.
    pub dropped: Option<f64>,
    /// Whole-run wall time from `run.end`.
    pub run_wall_us: Option<f64>,
    /// Number of `invariant.violation` events seen during the run.
    pub invariant_violations: usize,
    /// `fault.inject` events in stream order.
    pub faults: Vec<FaultSample<'static>>,
    /// `degraded.mode` events in stream order.
    pub degraded: Vec<DegradedSample<'static>>,
    /// `feed.fetch` events (retried or failed polls) in stream order.
    pub feed_fetches: Vec<FeedFetchSample<'static>>,
    /// `feed.breaker` transitions in stream order.
    pub feed_breakers: Vec<BreakerSample<'static>>,
    /// `feed.quarantine` events as `(t, feed, reason)` in stream order.
    pub feed_quarantined: Vec<(u64, String, String)>,
    /// `state.stale` events in slot order.
    pub stale: Vec<StaleSample>,
    /// `soak.ledger` conservation samples in slot order.
    pub ledger: Vec<LedgerSample>,
}

impl Run {
    /// The label to display: the sweep label when present, the scheduler
    /// name otherwise.
    pub fn display_label(&self) -> &str {
        self.label.as_deref().unwrap_or(&self.scheduler)
    }
}

/// A fully segmented telemetry stream.
#[derive(Debug, Clone, Default)]
pub struct TelemetryStream {
    /// The runs, in stream order.
    pub runs: Vec<Run>,
    /// Theorem-1 bounds events, in stream order.
    pub bounds: Vec<BoundsEvent<'static>>,
    /// Total events parsed (including markers).
    pub total_events: usize,
}

impl TelemetryStream {
    /// Parses and segments a JSONL document.
    ///
    /// Unknown event names are skipped (they are additive within a schema
    /// version); structurally impossible sequences (samples outside any
    /// run) are errors. Every decoded event has its own arm: the lints
    /// below forbid a wildcard, as in the metrics fold.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn parse(text: &str) -> Result<Self, String> {
        use TelemetryEvent as E;
        let objects = json::parse_lines(text)?;
        let total_events = objects.len();
        let mut runs: Vec<Run> = Vec::new();
        let mut bounds = Vec::new();
        let mut pending_label: Option<String> = None;
        let mut in_run = false;

        for (idx, object) in objects.iter().enumerate() {
            let event =
                TelemetryEvent::from_json(object).map_err(|e| format!("event {}: {e}", idx + 1))?;
            // Additive events from the same schema version.
            let Some(event) = event else { continue };
            let name = event.name();
            let outside = || {
                format!(
                    "event {}: {name:?} outside any run (no preceding run.start)",
                    idx + 1
                )
            };
            let run = runs.last_mut().filter(|_| in_run);
            match event {
                // Events that may appear outside a run segment.
                E::SweepRun(label) => pending_label = Some(label.into_owned()),
                E::TheoryBounds(event) => bounds.push(event),
                E::RunStart { scheduler, horizon } => {
                    runs.push(Run {
                        label: pending_label.take(),
                        scheduler: scheduler.into_owned(),
                        horizon,
                        ..Run::default()
                    });
                    in_run = true;
                }
                // Post-run trailers: the span profiler flushes after
                // `run.end`, and the metrics layer's final `health.snapshot`
                // lands there too. Alert transitions are fold policy, not
                // run samples — `grefar-report alerts` replays them through
                // the metrics fold instead.
                E::ProfileSpan | E::HealthSnapshot | E::AlertFire(_) | E::AlertResolve(_) => {}
                // The daemon's service plane: lifecycle brackets, supervisor
                // restarts and admission decisions all land outside any run
                // (before `run.start`, after `run.end`, or between resumed
                // segments). The analytics don't consume them —
                // `grefar-report diff` filters them as service events, and
                // the metrics fold counts them.
                E::ServedStart
                | E::ServedStop
                | E::ServedRestart(_)
                | E::AdmissionAccept
                | E::AdmissionReject(_) => {}
                // Samples that belong to the open run.
                E::Slot(sample) => run.ok_or_else(outside)?.slots.push(sample),
                E::GrefarDecide(mut sample) => {
                    let run = run.ok_or_else(outside)?;
                    // The greedy path reports gap 0; nulls (serialized NaN)
                    // default to 0 too.
                    if sample.fw_gap.is_nan() {
                        sample.fw_gap = 0.0;
                    }
                    run.decides.push(sample);
                }
                E::DecisionExplain(sample) => run.ok_or_else(outside)?.explains.push(sample),
                E::LpSolve { pivots, wall_us } => {
                    let run = run.ok_or_else(outside)?;
                    run.lp_wall_us.push(wall_us);
                    run.lp_pivots.push(pivots);
                }
                E::RunEnd {
                    completed,
                    dropped,
                    wall_us,
                } => {
                    let run = run.ok_or_else(outside)?;
                    run.completed = Some(completed);
                    run.dropped = Some(dropped);
                    run.run_wall_us = Some(wall_us);
                    in_run = false;
                }
                E::InvariantViolation(_) => run.ok_or_else(outside)?.invariant_violations += 1,
                E::FaultInject(sample) => run.ok_or_else(outside)?.faults.push(sample),
                E::DegradedMode(sample) => run.ok_or_else(outside)?.degraded.push(sample),
                E::FeedFetch(sample) => run.ok_or_else(outside)?.feed_fetches.push(sample),
                E::FeedBreaker(sample) => run.ok_or_else(outside)?.feed_breakers.push(sample),
                E::FeedQuarantine { t, feed, reason } => run
                    .ok_or_else(outside)?
                    .feed_quarantined
                    .push((t, feed.into_owned(), reason.into_owned())),
                E::StateStale(sample) => run.ok_or_else(outside)?.stale.push(sample),
                E::SoakLedger(sample) => run.ok_or_else(outside)?.ledger.push(sample),
                // Run-policy bookkeeping; the analytics don't consume it
                // (checkpoint age is the metrics fold's concern).
                E::CheckpointWrite(_) => {
                    run.ok_or_else(outside)?;
                }
            }
        }
        Ok(TelemetryStream {
            runs,
            bounds,
            total_events,
        })
    }

    /// Matches each run to its `theory.bounds` event by label, consuming
    /// bounds in stream order so repeated labels (e.g. the same scheduler
    /// against two scenarios) pair positionally.
    pub fn bounds_per_run(&self) -> Vec<Option<&BoundsEvent<'static>>> {
        let mut used = vec![false; self.bounds.len()];
        self.runs
            .iter()
            .map(|run| {
                let slot = self
                    .bounds
                    .iter()
                    .enumerate()
                    .find(|(i, b)| !used[*i] && b.label == run.display_label())?;
                used[slot.0] = true;
                Some(slot.1)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_obs::{Event, JsonlSink, Observer};

    fn sample_stream() -> String {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record_event(
            Event::new("theory.bounds")
                .field("label", "V=7.5")
                .field("v", 7.5)
                .field("beta", 0.0)
                .field("delta", 2.0)
                .field("price_max", 0.8)
                .field("queue_bound", 100.0)
                .field("cost_gap_bound", 3.0)
                .field("frame", 24_u64),
        );
        sink.record_event(Event::new("sweep.run").field("label", "V=7.5"));
        sink.record_event(
            Event::new("run.start")
                .field("scheduler", "GreFar(V=7.5)")
                .field("horizon", 2_u64)
                .field("data_centers", 3_u64)
                .field("job_classes", 4_u64),
        );
        for t in 0..2_u64 {
            sink.record_event(
                Event::new("grefar.decide")
                    .field("t", t)
                    .field("v", 7.5)
                    .field("beta", 0.0)
                    .field("objective", -5.0)
                    .field("drift", -6.0)
                    .field("penalty", 1.0)
                    .field("routed", 4.0)
                    .field("processed", 4.0)
                    .field("solver", "greedy")
                    .field("fw_iterations", 0_u64)
                    .field("fw_gap", 0.0)
                    .field("wall_us", 12_u64),
            );
            sink.record_event(
                Event::new("slot")
                    .field("t", t)
                    .field("queue_central", 3.0)
                    .field("queue_local", 2.0)
                    .field("queue_max", 4.0)
                    .field("energy", 1.5)
                    .field("fairness", -0.2)
                    .field("arrivals", 5.0)
                    .field("dropped", 0_u64)
                    .field("wall_us", 20_u64),
            );
        }
        sink.record_event(
            Event::new("run.end")
                .field("slots", 2_u64)
                .field("completed", 9_u64)
                .field("dropped", 0_u64)
                .field("wall_us", 55_u64),
        );
        String::from_utf8(sink.into_inner()).unwrap()
    }

    #[test]
    fn segments_a_labeled_run() {
        let stream = TelemetryStream::parse(&sample_stream()).unwrap();
        assert_eq!(stream.runs.len(), 1);
        assert_eq!(stream.bounds.len(), 1);
        let run = &stream.runs[0];
        assert_eq!(run.display_label(), "V=7.5");
        assert_eq!(run.scheduler, "GreFar(V=7.5)");
        assert_eq!(run.slots.len(), 2);
        assert_eq!(run.decides.len(), 2);
        assert!((run.slots[0].queue_total - 5.0).abs() < 1e-12);
        assert_eq!(run.completed, Some(9.0));
        let per_run = stream.bounds_per_run();
        assert!((per_run[0].unwrap().queue_bound - 100.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_labels_pair_positionally() {
        let text = sample_stream();
        let double = format!("{text}{text}");
        let stream = TelemetryStream::parse(&double).unwrap();
        assert_eq!(stream.runs.len(), 2);
        assert_eq!(stream.bounds.len(), 2);
        let per_run = stream.bounds_per_run();
        assert!(per_run.iter().all(Option::is_some));
    }

    #[test]
    fn rejects_future_schema_versions() {
        let line = "{\"schema\":2,\"event\":\"run.start\",\"scheduler\":\"x\",\"horizon\":1,\
                    \"data_centers\":1,\"job_classes\":1}\n";
        let err = TelemetryStream::parse(line).unwrap_err();
        assert!(err.contains("schema version 2"), "{err}");
        assert!(parse_versioned_lines("{\"schema\":-1,\"event\":\"x\"}\n").is_err());
        assert!(parse_versioned_lines("{\"schema\":\"x\",\"event\":\"x\"}\n").is_err());
    }

    #[test]
    fn accepts_unversioned_legacy_lines() {
        // Pre-versioning PR-1 streams carry no schema field.
        let text = "{\"event\":\"run.start\",\"scheduler\":\"Always\",\"horizon\":0,\
                    \"data_centers\":1,\"job_classes\":1}\n\
                    {\"event\":\"run.end\",\"slots\":0,\"completed\":0,\"dropped\":0,\"wall_us\":1}\n";
        let stream = TelemetryStream::parse(text).unwrap();
        assert_eq!(stream.runs.len(), 1);
        assert_eq!(stream.runs[0].scheduler, "Always");
    }

    #[test]
    fn fault_and_degraded_events_are_parsed() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record_event(
            Event::new("run.start")
                .field("scheduler", "GreFar(V=1)")
                .field("horizon", 3_u64)
                .field("data_centers", 2_u64)
                .field("job_classes", 1_u64),
        );
        sink.record_event(
            Event::new("fault.inject")
                .field("t", 1_u64)
                .field("kind", "outage")
                .field("start", 1_u64)
                .field("end", 3_u64)
                .field("dc", 0_u64),
        );
        sink.record_event(
            Event::new("degraded.mode")
                .field("t", 1_u64)
                .field("reason", "dc_offline")
                .field("dc", 0_u64),
        );
        sink.record_event(
            Event::new("degraded.mode")
                .field("t", 2_u64)
                .field("reason", "solver_budget_exhausted")
                .field("fw_iterations", 1_u64)
                .field("fw_gap", 0.5),
        );
        sink.record_event(
            Event::new("run.end")
                .field("slots", 3_u64)
                .field("completed", 0_u64)
                .field("dropped", 0_u64)
                .field("wall_us", 10_u64),
        );
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let stream = TelemetryStream::parse(&text).unwrap();
        assert_eq!(stream.runs.len(), 1);
        let run = &stream.runs[0];
        assert_eq!(
            run.faults,
            vec![FaultSample {
                t: 1,
                kind: "outage".into(),
                start: 1,
                end: 3,
                dc: Some(0),
            }]
        );
        assert_eq!(run.degraded.len(), 2);
        assert_eq!(run.degraded[0].reason, "dc_offline");
        assert_eq!(run.degraded[0].dc, Some(0));
        assert_eq!(run.degraded[1].reason, "solver_budget_exhausted");
        assert_eq!(run.degraded[1].dc, None);
    }

    #[test]
    fn feed_and_stale_events_are_parsed() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record_event(
            Event::new("run.start")
                .field("scheduler", "GreFar(V=1)")
                .field("horizon", 3_u64)
                .field("data_centers", 1_u64)
                .field("job_classes", 1_u64),
        );
        sink.record_event(
            Event::new("feed.fetch")
                .field("t", 0_u64)
                .field("feed", "price")
                .field("dc", 0_u64)
                .field("outcome", "fail")
                .field("attempts", 3_u64)
                .field("reason", "retries_exhausted"),
        );
        sink.record_event(
            Event::new("feed.fetch")
                .field("t", 1_u64)
                .field("feed", "price")
                .field("dc", 0_u64)
                .field("outcome", "ok")
                .field("attempts", 2_u64),
        );
        sink.record_event(
            Event::new("feed.breaker")
                .field("t", 1_u64)
                .field("feed", "price")
                .field("dc", 0_u64)
                .field("from", "closed")
                .field("to", "open"),
        );
        sink.record_event(
            Event::new("feed.quarantine")
                .field("t", 2_u64)
                .field("feed", "arrivals")
                .field("reason", "nan"),
        );
        sink.record_event(
            Event::new("state.stale")
                .field("t", 2_u64)
                .field("stale_fields", 1_u64)
                .field("max_age", 4_u64)
                .field("price_mae", 0.25),
        );
        sink.record_event(
            Event::new("run.end")
                .field("slots", 3_u64)
                .field("completed", 0_u64)
                .field("dropped", 0_u64)
                .field("wall_us", 10_u64),
        );
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let stream = TelemetryStream::parse(&text).unwrap();
        let run = &stream.runs[0];
        assert_eq!(run.feed_fetches.len(), 2);
        assert_eq!(
            run.feed_fetches[0].reason.as_deref(),
            Some("retries_exhausted")
        );
        assert_eq!(run.feed_fetches[1].outcome, "ok");
        assert_eq!(run.feed_fetches[1].reason, None);
        assert_eq!(run.feed_breakers.len(), 1);
        assert_eq!(run.feed_breakers[0].to, "open");
        assert_eq!(
            run.feed_quarantined,
            vec![(2, "arrivals".to_string(), "nan".to_string())]
        );
        assert_eq!(run.stale.len(), 1);
        assert_eq!(run.stale[0].max_age, 4);
        assert!((run.stale[0].price_mae - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bounds_event_reads_optional_stale_fields() {
        let text = "{\"event\":\"theory.bounds\",\"label\":\"V=1\",\"v\":1,\"beta\":0,\
                    \"delta\":2,\"queue_bound\":50,\"cost_gap_bound\":5,\"frame\":24,\
                    \"stale_slots\":6,\"stale_queue_bound\":74}\n";
        let stream = TelemetryStream::parse(text).unwrap();
        assert_eq!(stream.bounds[0].stale_slots, Some(6));
        assert_eq!(stream.bounds[0].stale_queue_bound, Some(74.0));
        // And the fields stay None when absent (pre-feed-layer emitters).
        let plain = TelemetryStream::parse(&sample_stream()).unwrap();
        assert_eq!(plain.bounds[0].stale_slots, None);
        assert_eq!(plain.bounds[0].stale_queue_bound, None);
    }

    #[test]
    fn samples_outside_a_run_are_an_error() {
        let slot = "{\"event\":\"slot\",\"t\":0,\"queue_central\":1,\"queue_local\":1,\
                    \"queue_max\":1,\"energy\":1,\"fairness\":0,\"arrivals\":1,\"dropped\":0,\
                    \"wall_us\":1}\n";
        let err = TelemetryStream::parse(slot).unwrap_err();
        assert!(err.contains("outside any run"), "{err}");
    }
}
