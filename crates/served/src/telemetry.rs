//! The telemetry actor: the daemon's single writer of observability state.
//!
//! Every other actor forwards [`TelemetryMsg`]s over one channel that the
//! supervisor creates once and keeps across incarnations, so a message
//! sent while the actor restarts waits in the inbox and the replacement
//! writes it. This actor owns the JSONL sink, the metrics fold (which
//! powers `/metrics`, `/healthz` and `/alerts`), and the alert engine —
//! the same stack the experiment binaries compose as `ObsPlane`, rebuilt
//! here as a `Send`-able owned pipeline so it can live on (and be
//! restarted onto) its own thread.
//!
//! Crash-safety: the JSONL sink writes each event line straight to the
//! `File` (no userspace buffer), so an in-process chaos kill loses nothing
//! already recorded; a restarted incarnation reopens the file in append
//! mode and [pre-folds](grefar_metrics::MetricsLayer::prefold_jsonl) the
//! prefix so `/healthz` aggregates continue instead of restarting at zero.
//! The state keeper syncs with this actor before every checkpoint cut, so
//! a `kill -9` after a cut cannot lose an event of the slots before it:
//! `--resume` re-emits the slots from the cut on, and only those.

use grefar_metrics::{AlertRule, MetricsConfig, MetricsLayer, SharedHandle, SnapshotSink};
use grefar_obs::json::{parse_object, JsonValue};
use grefar_obs::{schema, Event, JsonlSink, Observer};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Duration;

/// Messages understood by the telemetry actor.
pub enum TelemetryMsg {
    /// A telemetry event (the JSONL + fold path).
    Event(Event),
    /// Refresh the metrics snapshot / `/healthz` surface now.
    Snapshot,
    /// Chaos: freeze for this many milliseconds.
    Stall(u64),
    /// Chaos: die (the supervisor restarts the actor).
    Poison,
    /// Answered by the incarnation that reads it, after everything queued
    /// ahead of it is written. The state keeper waits on one before every
    /// checkpoint cut; queued behind a `Poison`, only the replacement can
    /// answer it, once its pre-fold is done.
    Sync(Sender<()>),
    /// Graceful stop: final snapshot, flush, reply with the wrap-up.
    Stop(Sender<TelemetryFinal>),
}

/// The actor's wrap-up, returned through [`TelemetryMsg::Stop`].
#[derive(Debug, Clone)]
pub struct TelemetryFinal {
    /// Events recorded by this incarnation.
    pub events: u64,
    /// Final health verdict label.
    pub verdict: String,
}

/// Configuration for one telemetry-actor incarnation.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// JSONL event stream path (`None`: fold only, no file).
    pub jsonl: Option<PathBuf>,
    /// Open the stream in append mode and pre-fold its contents (resume
    /// and in-process restart).
    pub append: bool,
    /// Prometheus exposition snapshot file, atomically rewritten.
    pub snapshot: Option<PathBuf>,
    /// Alert rules evaluated against the fold each slot.
    pub rules: Vec<AlertRule>,
    /// The snapshot the HTTP listener serves from.
    pub shared: Option<SharedHandle>,
}

/// The owned bottom of the stack: the JSONL file and an event count.
struct DaemonSink {
    sink: Option<JsonlSink<File>>,
    events: u64,
}

impl Observer for DaemonSink {
    fn record_event(&mut self, event: Event) {
        self.events += 1;
        if let Some(sink) = &mut self.sink {
            sink.record_event(event);
        }
    }
}

/// Runs one telemetry-actor incarnation until [`TelemetryMsg::Stop`] or
/// channel closure; panics on [`TelemetryMsg::Poison`] (chaos).
///
/// # Panics
/// On an unopenable JSONL file (a daemon without its event stream is
/// misconfigured, not degraded) and on chaos poison.
pub fn run_telemetry(config: TelemetryConfig, rx: &Receiver<TelemetryMsg>) {
    // A bare `File` (no BufWriter): every event line hits the kernel as it
    // is recorded, so an in-process kill loses nothing already streamed.
    let sink = match &config.jsonl {
        None => None,
        Some(path) => {
            let file = if config.append {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
            } else {
                File::create(path)
            };
            let file = file
                .unwrap_or_else(|e| panic!("cannot open telemetry file {}: {e}", path.display()));
            Some(JsonlSink::new(file))
        }
    };
    let metrics_config = MetricsConfig {
        sink: match &config.snapshot {
            None => SnapshotSink::None,
            Some(path) => SnapshotSink::File(path.clone()),
        },
        rules: config.rules.clone(),
        ..MetricsConfig::default()
    };
    let mut layer = MetricsLayer::new(DaemonSink { sink, events: 0 }, metrics_config);
    if let Some(shared) = &config.shared {
        layer = layer.with_shared(shared.clone());
    }
    if config.append {
        if let Some(path) = &config.jsonl {
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    if let Err(e) = layer.prefold_jsonl(&text) {
                        eprintln!("warning: metrics prefold of {}: {e}", path.display());
                    }
                }
                Err(e) => eprintln!("warning: cannot re-read {}: {e}", path.display()),
            }
        }
    }

    let mut stop_ack: Option<Sender<TelemetryFinal>> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            TelemetryMsg::Event(event) => layer.record_event(event),
            TelemetryMsg::Snapshot => layer.snapshot_now(),
            TelemetryMsg::Stall(ms) => std::thread::sleep(Duration::from_millis(ms)),
            TelemetryMsg::Poison => panic!("chaos kill: telemetry actor"),
            TelemetryMsg::Sync(ack) => {
                let _ = ack.send(());
            }
            TelemetryMsg::Stop(ack) => {
                stop_ack = Some(ack);
                break;
            }
        }
    }
    let verdict = layer.health().verdict.label().to_string();
    let (mut sink, outcome) = layer.into_parts();
    if let Err(e) = outcome {
        eprintln!("warning: {e}");
    }
    if let Some(file_sink) = &mut sink.sink {
        if let Err(e) = file_sink.flush() {
            eprintln!("warning: telemetry flush: {e}");
        }
        if file_sink.io_errors() > 0 {
            eprintln!(
                "warning: telemetry file had {} write errors",
                file_sink.io_errors()
            );
        }
    }
    if let Some(ack) = stop_ack {
        let _ = ack.send(TelemetryFinal {
            events: sink.events,
            verdict,
        });
    }
}

/// An [`Observer`] facade over the telemetry actor's inbox — what the
/// state keeper hands to the simulation engine. Only events cross it; the
/// engine's counters, gauges and histogram samples fall to the trait's
/// no-op defaults.
pub struct PortObserver {
    port: Sender<TelemetryMsg>,
}

impl PortObserver {
    /// Wraps a sender on the inbox.
    pub fn new(port: Sender<TelemetryMsg>) -> Self {
        Self { port }
    }
}

impl Observer for PortObserver {
    fn record_event(&mut self, event: Event) {
        // Fails only once supervision has ended and the inbox is gone.
        let _ = self.port.send(TelemetryMsg::Event(event));
    }
}

/// What [`truncate_for_resume`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncateOutcome {
    /// Complete lines kept.
    pub kept_lines: u64,
    /// Bytes cut from the tail (0 when the stream was already clean).
    pub dropped_bytes: u64,
}

/// Prepares an interrupted run's telemetry stream for appending: cuts the
/// file back to the last event *before* the engine stream re-enters at
/// `resume_slot`, so the resumed daemon's re-emitted slots extend a clean
/// prefix instead of duplicating their own telemetry. Service events
/// ([`schema::is_service_event`]: lifecycle, admission, supervision) are
/// not part of the slot stream the engine re-emits, so they do not end
/// the prefix. Also cuts a torn trailing line (the `kill -9` case) and
/// anything from `run.end` on (a drained run being resumed).
///
/// The tail is cut in place (`set_len`), so a kill mid-truncation never
/// loses the prefix. A missing file is left missing (nothing to truncate).
///
/// # Errors
/// I/O errors reading or truncating the file.
pub fn truncate_for_resume(path: &Path, resume_slot: u64) -> Result<TruncateOutcome, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(TruncateOutcome {
                kept_lines: 0,
                dropped_bytes: 0,
            })
        }
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut keep = 0usize;
    let mut kept_lines = 0u64;
    for chunk in text.split_inclusive('\n') {
        if !chunk.ends_with('\n') {
            break; // torn trailing line
        }
        let line = chunk.trim_end_matches('\n');
        if !line.trim().is_empty() {
            let object = match parse_object(line) {
                Ok(object) => object,
                Err(_) => break, // corrupt line: cut here
            };
            let name = object
                .get("event")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            if name == "run.end" {
                break;
            }
            let slot = object.get("t").and_then(JsonValue::as_f64);
            if !schema::is_service_event(name) {
                if let Some(t) = slot {
                    if t >= resume_slot as f64 {
                        break;
                    }
                }
            }
        }
        keep += chunk.len();
        kept_lines += 1;
    }
    let dropped = (text.len() - keep) as u64;
    if dropped > 0 {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|file| file.set_len(keep as u64))
            .map_err(|e| format!("cannot truncate {}: {e}", path.display()))?;
    }
    Ok(TruncateOutcome {
        kept_lines,
        dropped_bytes: dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("grefar-served-tele-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn actor_streams_events_and_stops_cleanly() {
        let path = tmp("stream.jsonl");
        let _ = std::fs::remove_file(&path);
        let (tx, rx) = mpsc::channel();
        let config = TelemetryConfig {
            jsonl: Some(path.clone()),
            append: false,
            snapshot: None,
            rules: Vec::new(),
            shared: None,
        };
        let handle = std::thread::spawn(move || run_telemetry(config, &rx));
        tx.send(TelemetryMsg::Event(
            Event::new("served.start")
                .field("addr", "127.0.0.1:0")
                .field("slot", 0u64)
                .field("clock", "manual"),
        ))
        .unwrap();
        let (ack_tx, ack_rx) = mpsc::channel();
        tx.send(TelemetryMsg::Stop(ack_tx)).unwrap();
        let fin = ack_rx.recv().unwrap();
        handle.join().unwrap();
        // served.start plus the metrics layer's final health.snapshot
        // (the same trailer the batch binaries' streams carry).
        assert_eq!(fin.events, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"event\":\"served.start\""), "{text}");
        assert!(text.contains("\"event\":\"health.snapshot\""), "{text}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_next_incarnation_writes_what_was_queued_behind_poison() {
        let path = tmp("restart.jsonl");
        let _ = std::fs::remove_file(&path);
        let (tx, rx) = mpsc::channel();
        let inbox = std::sync::Mutex::new(rx);
        let config = TelemetryConfig {
            jsonl: Some(path.clone()),
            append: false,
            snapshot: None,
            rules: Vec::new(),
            shared: None,
        };
        let (sync_tx, sync_rx) = mpsc::channel();
        tx.send(TelemetryMsg::Poison).unwrap();
        tx.send(TelemetryMsg::Sync(sync_tx)).unwrap();
        tx.send(TelemetryMsg::Event(
            Event::new("served.restart")
                .field("t", 5u64)
                .field("actor", "telemetry")
                .field("restarts", 1u64)
                .field("backoff_ms", 1u64),
        ))
        .unwrap();
        // The first incarnation dies on the poison, holding the inbox lock.
        std::thread::scope(|scope| {
            let first = scope.spawn(|| run_telemetry(config.clone(), &inbox.lock().unwrap()));
            assert!(first.join().is_err(), "the poison kills the incarnation");
        });
        assert!(sync_rx.try_recv().is_err(), "only the replacement answers");

        // The replacement takes the poisoned lock and the same inbox.
        let config = TelemetryConfig {
            append: true,
            ..config
        };
        let handle = std::thread::spawn(move || {
            let rx = inbox
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            run_telemetry(config, &rx)
        });
        sync_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the replacement answers the sync message");
        let (ack_tx, ack_rx) = mpsc::channel();
        tx.send(TelemetryMsg::Stop(ack_tx)).unwrap();
        let fin = ack_rx.recv().unwrap();
        handle.join().unwrap();
        assert_eq!(fin.events, 2, "served.restart plus the health trailer");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.matches("\"event\":\"served.restart\"").count(),
            1,
            "{text}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_cuts_reemitted_slots_but_keeps_daemon_events() {
        let path = tmp("resume.jsonl");
        let stream = concat!(
            "{\"event\":\"served.start\",\"addr\":\"a\",\"slot\":0,\"clock\":\"manual\"}\n",
            "{\"event\":\"run.start\",\"scheduler\":\"GreFar\",\"horizon\":10,\"data_centers\":3,\"job_classes\":4}\n",
            "{\"event\":\"slot\",\"t\":0,\"queue_central\":0}\n",
            "{\"event\":\"admission.accept\",\"t\":5,\"job\":0,\"count\":1,\"seq\":0}\n",
            "{\"event\":\"checkpoint.write\",\"t\":1}\n",
            "{\"event\":\"slot\",\"t\":1,\"queue_central\":0}\n",
            "{\"event\":\"slot\",\"t\":2,\"queue_c",
        );
        std::fs::write(&path, stream).unwrap();
        // Resume at slot 1: the admission.accept for slot 5 and the
        // checkpoint.write survive (daemon events), slot 1 onward is cut.
        let outcome = truncate_for_resume(&path, 1).unwrap();
        assert_eq!(outcome.kept_lines, 5);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.ends_with("{\"event\":\"checkpoint.write\",\"t\":1}\n"));
        // Idempotent on a clean prefix.
        let again = truncate_for_resume(&path, 1).unwrap();
        assert_eq!(again.dropped_bytes, 0);
        assert_eq!(again.kept_lines, 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_cuts_run_end_for_a_drained_stream() {
        let path = tmp("drained.jsonl");
        let stream = concat!(
            "{\"event\":\"run.start\",\"scheduler\":\"GreFar\",\"horizon\":10,\"data_centers\":3,\"job_classes\":4}\n",
            "{\"event\":\"slot\",\"t\":0,\"queue_central\":0}\n",
            "{\"event\":\"run.end\",\"slots\":1,\"completed\":0,\"dropped\":0,\"wall_us\":7}\n",
            "{\"event\":\"served.stop\",\"t\":1,\"reason\":\"drain\"}\n",
        );
        std::fs::write(&path, stream).unwrap();
        let outcome = truncate_for_resume(&path, 1).unwrap();
        assert_eq!(outcome.kept_lines, 2);
        assert!(outcome.dropped_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }
}
