//! The live metrics layer: an [`Observer`] middleware that folds every
//! event into a [`MetricsFold`] while forwarding it to the wrapped sink.
//!
//! The layer periodically (every `snapshot_every_slots` slots) refreshes
//! the snapshot surface: a `health.snapshot` event into the inner sink,
//! an atomic (`tmp` + rename) dump of the Prometheus exposition to the
//! configured path, and the shared in-memory snapshot the
//! [`MetricsServer`](crate::MetricsServer) serves from. [`finish`]
//! (`MetricsLayer::finish`) flushes one final snapshot; runs that resume
//! from a checkpoint pre-seed the fold from the truncated telemetry file
//! via [`MetricsLayer::prefold_jsonl`] so aggregates rebuild identically.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use grefar_obs::{Event, Observer};

use crate::alerts::{AlertEngine, AlertRule};
use crate::fold::MetricsFold;
use crate::health::Health;

/// Where periodic exposition snapshots go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotSink {
    /// No file dumps (the shared handle / listener may still be live).
    None,
    /// Atomic `tmp` + rename dumps to this path.
    File(PathBuf),
    /// One dump to stdout at [`MetricsLayer::finish`] (stdout cannot be
    /// rewritten in place).
    Stdout,
}

/// Configuration for [`MetricsLayer`].
#[derive(Debug, Clone)]
pub struct MetricsConfig {
    /// Where to dump exposition text.
    pub sink: SnapshotSink,
    /// Refresh the snapshot surface every this many `slot` events.
    pub snapshot_every_slots: u64,
    /// Fold `_us` timing fields into duration histograms (live default:
    /// on; deterministic offline rebuilds turn it off).
    pub include_timings: bool,
    /// Emit `health.snapshot` events into the wrapped sink on refresh.
    pub emit_health_events: bool,
    /// Alert rules evaluated once per `slot` event (see
    /// [`alerts`](crate::alerts)); empty disables the engine entirely.
    pub rules: Vec<AlertRule>,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            sink: SnapshotSink::None,
            snapshot_every_slots: 64,
            include_timings: true,
            emit_health_events: true,
            rules: Vec::new(),
        }
    }
}

/// The shared snapshot read by the HTTP listener.
#[derive(Debug, Clone, Default)]
pub struct SharedSnapshot {
    /// Prometheus text exposition of the current registry.
    pub exposition: String,
    /// Flat JSON body for `GET /healthz`.
    pub health_json: String,
    /// The current verdict label (`ok` / `degraded` / `violating`).
    pub verdict: String,
    /// Per-rule engine state for `GET /alerts` (one flat JSON object per
    /// line; empty when no rules are configured).
    pub alerts_json: String,
}

/// Handle to the snapshot shared between the run thread and the listener.
pub type SharedHandle = Arc<Mutex<SharedSnapshot>>;

/// Allocates a fresh, empty [`SharedHandle`].
pub fn shared_handle() -> SharedHandle {
    Arc::new(Mutex::new(SharedSnapshot::default()))
}

/// Observer middleware folding events into metrics. See the
/// [module docs](self).
///
/// Generic over the wrapped sink so callers can either own the inner
/// observer (`MetricsLayer<Telemetry>`) or borrow it
/// (`MetricsLayer<&mut MemoryObserver>`, via the blanket `&mut T`
/// forwarding impl in `grefar_obs`).
pub struct MetricsLayer<I: Observer> {
    inner: I,
    fold: MetricsFold,
    engine: Option<AlertEngine>,
    config: MetricsConfig,
    shared: Option<SharedHandle>,
    slots_since_snapshot: u64,
    last_error: Option<String>,
}

impl<I: Observer> MetricsLayer<I> {
    /// Wraps `inner` with fresh fold state.
    pub fn new(inner: I, config: MetricsConfig) -> Self {
        let include_timings = config.include_timings;
        let engine = if config.rules.is_empty() {
            None
        } else {
            Some(AlertEngine::new(config.rules.clone()))
        };
        MetricsLayer {
            inner,
            fold: MetricsFold::new(include_timings),
            engine,
            config,
            shared: None,
            slots_since_snapshot: 0,
            last_error: None,
        }
    }

    /// Attaches the shared snapshot the HTTP listener serves from.
    pub fn with_shared(mut self, shared: SharedHandle) -> Self {
        self.shared = Some(shared);
        self
    }

    /// Pre-seeds the fold from an existing telemetry JSONL document, so a
    /// resumed run's aggregates continue from the truncated prefix instead
    /// of restarting at zero. The alert engine advances through the prefix
    /// too, so rule state (hold counters, firing flags) continues where the
    /// interrupted run left off; the alerts it regenerates are discarded,
    /// being already in the recorded prefix.
    ///
    /// # Errors
    /// The first line that fails to parse or decode (including an
    /// unsupported `schema` version), with its line number.
    pub fn prefold_jsonl(&mut self, text: &str) -> Result<usize, String> {
        self.fold
            .fold_lines(self.engine.as_mut(), text)
            .map(|(folded, _)| folded)
    }

    /// The current health summary.
    pub fn health(&self) -> Health {
        self.fold.health()
    }

    /// The fold accumulated so far.
    pub fn fold(&self) -> &MetricsFold {
        &self.fold
    }

    /// Refreshes the snapshot surface now, regardless of the slot cadence.
    pub fn snapshot_now(&mut self) {
        self.slots_since_snapshot = 0;
        let health = self.fold.health();
        if self.config.emit_health_events && self.inner.enabled() {
            self.inner.record_event(health.event());
        }
        let exposition = self.fold.render();
        if let Some(shared) = &self.shared {
            if let Ok(mut snap) = shared.lock() {
                snap.exposition = exposition.clone();
                snap.health_json = health.to_json();
                snap.verdict = health.verdict.label().to_string();
                snap.alerts_json = self
                    .engine
                    .as_ref()
                    .map(AlertEngine::states_json)
                    .unwrap_or_default();
            }
        }
        if let SnapshotSink::File(path) = &self.config.sink {
            if let Err(error) = write_atomic(path, &exposition) {
                self.last_error = Some(format!("metrics snapshot {}: {error}", path.display()));
            }
        }
    }

    /// Emits the final snapshot and tears the layer down.
    ///
    /// # Errors
    /// The last snapshot-write failure, if any (snapshots are otherwise
    /// best-effort and never fail the run mid-flight).
    pub fn finish(self) -> Result<Health, String> {
        self.into_parts().1
    }

    /// Like [`finish`](MetricsLayer::finish), but also hands back the
    /// wrapped sink — for owned stacks that still need to flush it (e.g.
    /// the experiment binaries' telemetry summary, or a span profiler
    /// emitting its `profile.span` trailer after the final
    /// `health.snapshot`).
    pub fn into_parts(mut self) -> (I, Result<Health, String>) {
        self.snapshot_now();
        if self.config.sink == SnapshotSink::Stdout {
            let mut stdout = std::io::stdout().lock();
            if let Err(error) = stdout.write_all(self.fold.render().as_bytes()) {
                self.last_error = Some(format!("metrics snapshot to stdout: {error}"));
            }
        }
        let outcome = match self.last_error {
            Some(error) => Err(error),
            None => Ok(self.fold.health()),
        };
        (self.inner, outcome)
    }
}

impl<I: Observer> Observer for MetricsLayer<I> {
    // Always enabled: the fold needs every event even when the wrapped
    // sink is a NullObserver (e.g. `--metrics-listen` without
    // `--telemetry`).
    fn enabled(&self) -> bool {
        true
    }

    fn record_event(&mut self, event: Event) {
        self.fold.fold_event(&event);
        let is_slot = event.name() == "slot";
        if self.inner.enabled() {
            self.inner.record_event(event);
        }
        if is_slot {
            // Alert rules see the end-of-slot health summary. Generated
            // events are folded back into this layer's own fold before
            // forwarding, so the live exposition and an offline rebuild of
            // the recorded stream render identically.
            if let Some(engine) = &mut self.engine {
                for alert in engine.evaluate(&self.fold.health()) {
                    self.fold.fold_event(&alert);
                    if self.inner.enabled() {
                        self.inner.record_event(alert);
                    }
                }
            }
            self.slots_since_snapshot += 1;
            if self.slots_since_snapshot >= self.config.snapshot_every_slots {
                self.snapshot_now();
            }
        }
    }

    fn add_counter(&mut self, name: &'static str, delta: u64) {
        self.inner.add_counter(name, delta);
    }

    fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.inner.set_gauge(name, value);
    }

    fn record_value(&mut self, name: &'static str, value: f64) {
        self.inner.record_value(name, value);
    }

    fn profiling(&self) -> bool {
        self.inner.profiling()
    }

    fn span_enter(&mut self, name: &'static str) {
        self.inner.span_enter(name);
    }

    fn span_exit(&mut self, name: &'static str) {
        self.inner.span_exit(name);
    }

    fn span_leaf(&mut self, name: &'static str, count: u64) {
        self.inner.span_leaf(name, count);
    }
}

/// Writes `text` to `path` atomically: full write to a sibling `.tmp`
/// file, then rename over the target (same pattern as the checkpoint
/// store, minus the fsyncs — snapshots are advisory).
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_obs::{MemoryObserver, NullObserver};

    fn slot(t: u64) -> Event {
        Event::new("slot")
            .field("t", t)
            .field("queue_central", 1.0)
            .field("queue_local", 1.0)
            .field("queue_max", 1.0)
            .field("energy", 0.1)
            .field("fairness", 0.0)
            .field("arrivals", 1.0)
            .field("dropped", 0_u64)
            .field("wall_us", 10_u64)
    }

    #[test]
    fn forwards_events_and_folds_them() {
        let mut mem = MemoryObserver::new();
        let mut layer = MetricsLayer::new(&mut mem, MetricsConfig::default());
        layer.record_event(slot(0));
        layer.record_event(slot(1));
        assert_eq!(
            layer
                .fold()
                .registry()
                .scalar("grefar_slots_total", &[("scheduler", "")]),
            Some(2.0)
        );
        drop(layer);
        assert_eq!(mem.event_count("slot"), 2);
    }

    #[test]
    fn snapshots_on_the_slot_cadence() {
        let mut mem = MemoryObserver::new();
        let config = MetricsConfig {
            snapshot_every_slots: 2,
            ..MetricsConfig::default()
        };
        let mut layer = MetricsLayer::new(&mut mem, config);
        for t in 0..5 {
            layer.record_event(slot(t));
        }
        drop(layer);
        // Slots 2 and 4 cross the cadence.
        assert_eq!(mem.event_count("health.snapshot"), 2);
    }

    #[test]
    fn finish_writes_the_snapshot_file_atomically() {
        let dir = std::env::temp_dir().join("grefar-metrics-layer-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let mut null = NullObserver;
        let config = MetricsConfig {
            sink: SnapshotSink::File(path.clone()),
            ..MetricsConfig::default()
        };
        let mut layer = MetricsLayer::new(&mut null, config);
        layer.record_event(slot(0));
        layer.finish().unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("grefar_slots_total"));
        assert!(crate::lint(&text).is_empty(), "{:?}", crate::lint(&text));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shared_handle_sees_refreshes() {
        let shared = shared_handle();
        let mut null = NullObserver;
        let config = MetricsConfig {
            snapshot_every_slots: 1,
            ..MetricsConfig::default()
        };
        let mut layer = MetricsLayer::new(&mut null, config).with_shared(shared.clone());
        layer.record_event(slot(0));
        let snap = shared.lock().unwrap();
        assert!(snap.exposition.contains("grefar_slots_total"));
        assert_eq!(snap.verdict, "ok");
        assert!(snap.health_json.contains("\"verdict\":\"ok\""));
    }

    #[test]
    fn alert_rules_fire_live_and_match_the_offline_replay() {
        let rules = crate::alerts::parse_rules("deg:degraded_events>0").unwrap();
        let mut sink = grefar_obs::JsonlSink::new(Vec::new());
        let config = MetricsConfig {
            include_timings: false,
            emit_health_events: false,
            rules: rules.clone(),
            ..MetricsConfig::default()
        };
        let mut layer = MetricsLayer::new(&mut sink, config);
        layer.record_event(slot(0));
        layer.record_event(
            Event::new("degraded.mode")
                .field("t", 1_u64)
                .field("reason", "dc_offline"),
        );
        layer.record_event(slot(1));
        assert_eq!(layer.health().active_alerts, Some(1));
        let exposition = layer.fold().render();
        assert!(exposition.contains("grefar_alerts_fired_total"));
        drop(layer);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("\"event\":\"alert.fire\""));

        // Offline replay of the recorded stream (which now carries the
        // alert.fire line) regenerates the identical alert and renders the
        // identical exposition — the live/offline identity check.
        let (fold, engine, generated) = crate::alerts::replay_jsonl(rules, &text).unwrap();
        assert_eq!(generated.len(), 1);
        assert_eq!(generated[0].name(), "alert.fire");
        assert_eq!(engine.active_count(), 1);
        assert_eq!(fold.render(), exposition);
    }

    #[test]
    fn prefold_advances_the_alert_engine_without_reemitting() {
        let rules = crate::alerts::parse_rules("deg:degraded_events>0").unwrap();
        let prefix = format!(
            "{}\n{}\n",
            Event::new("degraded.mode")
                .field("t", 0_u64)
                .field("reason", "dc_offline")
                .to_json_with_schema(1),
            slot(0).to_json_with_schema(1),
        );
        let mut mem = MemoryObserver::new();
        let config = MetricsConfig {
            include_timings: false,
            emit_health_events: false,
            rules,
            ..MetricsConfig::default()
        };
        let mut layer = MetricsLayer::new(&mut mem, config);
        layer.prefold_jsonl(&prefix).unwrap();
        // The rule fired inside the prefix: state carries over, and the
        // live continuation neither re-fires nor forwards prefix alerts.
        layer.record_event(slot(1));
        drop(layer);
        assert_eq!(mem.event_count("alert.fire"), 0);
    }

    #[test]
    fn prefold_rejects_future_schema_versions() {
        let text: String = (0..2)
            .map(|t| format!("{}\n", slot(t).to_json_with_schema(2)))
            .collect();
        let mut null = NullObserver;
        let mut layer = MetricsLayer::new(&mut null, MetricsConfig::default());
        let err = layer.prefold_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 1: "), "{err}");
        assert!(err.contains("schema version 2"), "{err}");
    }

    #[test]
    fn shared_snapshot_carries_alert_state() {
        let shared = shared_handle();
        let mut null = NullObserver;
        let config = MetricsConfig {
            snapshot_every_slots: 1,
            rules: crate::alerts::parse_rules("s:slots>0").unwrap(),
            ..MetricsConfig::default()
        };
        let mut layer = MetricsLayer::new(&mut null, config).with_shared(shared.clone());
        layer.record_event(slot(0));
        let snap = shared.lock().unwrap();
        assert!(snap.alerts_json.contains("\"rule\":\"s\""));
        assert!(snap.alerts_json.contains("\"firing\":true"));
        assert!(snap.health_json.contains("\"active_alerts\":1"));
    }

    #[test]
    fn prefold_then_live_matches_a_single_fold() {
        let events: Vec<Event> = (0..4).map(slot).collect();
        let text: String = events
            .iter()
            .take(2)
            .map(|e| format!("{}\n", e.to_json_with_schema(1)))
            .collect();
        let mut null = NullObserver;
        let mut resumed = MetricsLayer::new(&mut null, MetricsConfig::default());
        resumed.prefold_jsonl(&text).unwrap();
        for event in &events[2..] {
            resumed.record_event(event.clone());
        }
        let mut whole = MetricsFold::new(true);
        for event in &events {
            whole.fold_event(event);
        }
        assert_eq!(resumed.fold().render(), whole.render());
    }
}
