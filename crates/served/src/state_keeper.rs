//! The state-keeper actor: sole owner of the scheduling engine.
//!
//! All daemon state that matters — Θ(t), the admission journal, the
//! checkpoint cadence — is owned by this one actor, so there is exactly one
//! writer and restarts have a single, well-defined recovery story: the
//! supervisor rebuilds the engine from the [`EngineSpec`](crate::engine::EngineSpec)
//! (base inputs + replayed journal + last checkpoint) and the replacement
//! *silently catches up* to the telemetry watermark with a null observer,
//! so the event stream carries every slot exactly once.
//!
//! The submit path is journal-before-ack: a submission is fsync'd to the
//! admission journal **before** it is injected into the engine and before
//! the client sees `accepted`, so a `kill -9` can never acknowledge a job
//! it would later forget.
//!
//! Clock discipline ([`Clock`]): `manual` executes slots only on client
//! `advance` requests (deterministic tests), `turbo` free-runs to the
//! horizon, `real:MS` pins each slot to a wall-clock deadline and serves
//! admissions in the gaps.

use crate::admission::AdmissionMsg;
use crate::chaos::{chaos_inject_event, ChaosPlan};
use crate::journal::{Journal, JournalEntry};
use crate::protocol::{self, RejectReason};
use crate::telemetry::{PortObserver, TelemetryMsg};
use grefar_faults::ActorTarget;
use grefar_obs::{Event, NullObserver};
use grefar_sim::{SimulationReport, SteppedRun};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The slot clock the state keeper runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Slots execute only on client `advance` requests.
    Manual,
    /// Slots execute back to back until the horizon.
    Turbo,
    /// One slot per wall-clock period; admissions are served in the gaps.
    Real(Duration),
}

impl Clock {
    /// Parses `manual`, `turbo` or `real:MS`.
    ///
    /// # Errors
    /// An unknown clock name or a non-positive period.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "manual" => Ok(Clock::Manual),
            "turbo" => Ok(Clock::Turbo),
            _ => match spec.strip_prefix("real:") {
                Some(ms) => match ms.parse::<u64>() {
                    Ok(ms) if ms > 0 => Ok(Clock::Real(Duration::from_millis(ms))),
                    _ => Err(format!("bad real-time clock period {ms:?} (want real:MS)")),
                },
                None => Err(format!(
                    "unknown clock {spec:?} (want manual, turbo or real:MS)"
                )),
            },
        }
    }

    /// The canonical label (`manual` / `turbo` / `real:MS`).
    pub fn label(&self) -> String {
        match self {
            Clock::Manual => "manual".to_string(),
            Clock::Turbo => "turbo".to_string(),
            Clock::Real(period) => format!("real:{}", period.as_millis()),
        }
    }
}

/// Messages the state keeper understands. Connection-scoped requests carry
/// the admission actor's connection id so the reply routes back.
pub enum SkMsg {
    /// A parsed, pre-validated-shape job submission.
    Submit {
        /// Originating connection.
        conn: u64,
        /// Job class.
        job: usize,
        /// Job count (positive, finite — checked at parse).
        count: f64,
    },
    /// Execute `slots` slots now (manual clock only).
    Advance {
        /// Originating connection.
        conn: u64,
        /// Slots to execute.
        slots: u64,
    },
    /// Report daemon status.
    Status {
        /// Originating connection.
        conn: u64,
    },
    /// Graceful drain: stop admitting, checkpoint, finish the run.
    /// `conn` is present when a client asked (it gets an ack), absent when
    /// the supervisor translates SIGTERM/SIGINT.
    Drain {
        /// Originating connection, if any.
        conn: Option<u64>,
    },
}

/// Why (and with what) the state keeper exited cleanly.
pub enum SkExit {
    /// The run finished — horizon exhausted, drained, or every peer gone.
    Finished {
        /// The folded simulation report (same shape as a batch run's).
        report: Box<SimulationReport>,
        /// `"horizon"`, `"drain"` or `"disconnected"`.
        reason: &'static str,
    },
}

/// State shared between the state keeper, its peers and the supervisor —
/// everything that must survive an actor restart lives here, not in the
/// actor.
#[derive(Clone)]
pub struct SkShared {
    /// The telemetry actor's inbox.
    pub tele: Sender<TelemetryMsg>,
    /// The admission actor's inbox: reply lines, chaos and the
    /// supervisor's stop.
    pub admission: Sender<AdmissionMsg>,
    /// Set once draining begins; the admission actor rejects locally too.
    pub draining: Arc<AtomicBool>,
    /// Chaos socket-drop window currently active: the admission acceptor
    /// refuses connections while it is set.
    pub sockdrop: Arc<AtomicBool>,
    /// Telemetry watermark: slots whose events have been streamed. A
    /// replacement state keeper catches up to here silently.
    pub emitted_upto: Arc<AtomicU64>,
    /// Jobs admitted over the daemon's lifetime.
    pub admitted: Arc<AtomicU64>,
    /// Requests rejected over the daemon's lifetime.
    pub rejected: Arc<AtomicU64>,
    /// The accepted submissions a replacement engine still needs, in
    /// order — the in-memory journal the supervisor replays. With a
    /// checkpoint path each cut trims it to the suffix the on-disk journal
    /// keeps; without one it holds every submission, because a restart
    /// rebuilds from slot 0.
    pub accepted: Arc<Mutex<Vec<JournalEntry>>>,
    /// Chaos windows (by spec) that already fired, so a restarted state
    /// keeper replaying past slots does not re-kill anyone.
    pub fired_chaos: Arc<Mutex<BTreeSet<String>>>,
}

impl SkShared {
    /// Fresh shared state for a new daemon (all counters zero).
    pub fn new(tele: Sender<TelemetryMsg>, admission: Sender<AdmissionMsg>) -> Self {
        Self {
            tele,
            admission,
            draining: Arc::new(AtomicBool::new(false)),
            sockdrop: Arc::new(AtomicBool::new(false)),
            emitted_upto: Arc::new(AtomicU64::new(0)),
            admitted: Arc::new(AtomicU64::new(0)),
            rejected: Arc::new(AtomicU64::new(0)),
            accepted: Arc::new(Mutex::new(Vec::new())),
            fired_chaos: Arc::new(Mutex::new(BTreeSet::new())),
        }
    }

    fn lock_accepted(&self) -> std::sync::MutexGuard<'_, Vec<JournalEntry>> {
        // A poisoned lock means some incarnation panicked mid-push; the
        // data is a Vec of Copy-able rows, always structurally sound.
        self.accepted.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Per-incarnation configuration.
pub struct SkConfig {
    /// The slot clock.
    pub clock: Clock,
    /// The chaos schedule, if any.
    pub chaos: Option<ChaosPlan>,
    /// Checkpoint path (None: no persistence).
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint every N slots (and always at drain/horizon).
    pub checkpoint_every: u64,
    /// Admission journal path (None: in-memory journal only).
    pub journal: Option<PathBuf>,
    /// Job classes in the system (submit validation).
    pub num_job_classes: usize,
}

/// Runs one state-keeper incarnation to completion.
///
/// `run` is the engine the supervisor built (fresh, resumed from disk, or
/// rebuilt after a crash); if the telemetry watermark is ahead of the
/// engine, the gap is stepped silently first.
///
/// # Panics
/// On a `kill:actor=state_keeper` chaos window, and on journal/checkpoint
/// write failures — an un-acked, un-persisted daemon must escalate to its
/// supervisor, not limp on.
pub fn run_state_keeper(
    run: SteppedRun,
    config: SkConfig,
    shared: SkShared,
    rx: &Receiver<SkMsg>,
) -> SkExit {
    let journal = config.journal.as_ref().map(|path| {
        Journal::open(path)
            .unwrap_or_else(|e| panic!("cannot open journal {}: {e}", path.display()))
    });
    let mut keeper = StateKeeper {
        run,
        journal,
        checkpoint_path: config.checkpoint,
        checkpoint_every: config.checkpoint_every.max(1),
        last_checkpoint_slot: None,
        clock: config.clock,
        chaos: config.chaos,
        classes: config.num_job_classes,
        shared,
    };

    // Silent catch-up: replay slots the previous incarnation already
    // streamed, without re-emitting their telemetry.
    let silent_until = keeper.shared.emitted_upto.load(Ordering::SeqCst);
    while keeper.run.next_slot() < silent_until {
        keeper.execute_slot(true);
    }

    match keeper.clock {
        Clock::Manual => loop {
            match rx.recv() {
                Ok(msg) => match keeper.handle(msg) {
                    Flow::Continue => {}
                    Flow::Finish(reason) => return keeper.finish(reason),
                },
                Err(_) => return keeper.finish("disconnected"),
            }
        },
        Clock::Turbo => loop {
            loop {
                match rx.try_recv() {
                    Ok(msg) => match keeper.handle(msg) {
                        Flow::Continue => {}
                        Flow::Finish(reason) => return keeper.finish(reason),
                    },
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return keeper.finish("disconnected"),
                }
            }
            if keeper.run.is_done() {
                return keeper.finish("horizon");
            }
            keeper.execute_slot(false);
        },
        Clock::Real(period) => {
            // The wall clock only *paces* slot execution; every scheduling
            // decision inside `execute_slot` stays clock-free and replays
            // identically under the manual and turbo clocks.
            // verify: allow(determinism): real-time pacing, not a scheduling decision
            let mut deadline = Instant::now() + period;
            loop {
                // verify: allow(determinism): real-time pacing, not a scheduling decision
                let now = Instant::now();
                if now >= deadline {
                    if keeper.run.is_done() {
                        return keeper.finish("horizon");
                    }
                    keeper.execute_slot(false);
                    deadline += period;
                    continue;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(msg) => match keeper.handle(msg) {
                        Flow::Continue => {}
                        Flow::Finish(reason) => return keeper.finish(reason),
                    },
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return keeper.finish("disconnected"),
                }
            }
        }
    }
}

enum Flow {
    Continue,
    Finish(&'static str),
}

struct StateKeeper {
    run: SteppedRun,
    journal: Option<Journal>,
    checkpoint_path: Option<PathBuf>,
    checkpoint_every: u64,
    last_checkpoint_slot: Option<u64>,
    clock: Clock,
    chaos: Option<ChaosPlan>,
    classes: usize,
    shared: SkShared,
}

impl StateKeeper {
    fn handle(&mut self, msg: SkMsg) -> Flow {
        match msg {
            SkMsg::Submit { conn, job, count } => {
                self.handle_submit(conn, job, count);
                Flow::Continue
            }
            SkMsg::Advance { conn, slots } => self.handle_advance(conn, slots),
            SkMsg::Status { conn } => {
                self.reply(
                    conn,
                    protocol::status(
                        self.run.next_slot(),
                        self.run.horizon(),
                        self.run.queue_total(),
                        self.shared.admitted.load(Ordering::SeqCst),
                        self.shared.rejected.load(Ordering::SeqCst),
                        self.shared.draining.load(Ordering::SeqCst),
                    ),
                );
                Flow::Continue
            }
            SkMsg::Drain { conn } => {
                self.shared.draining.store(true, Ordering::SeqCst);
                if let Some(conn) = conn {
                    self.reply(conn, protocol::draining());
                }
                Flow::Finish("drain")
            }
        }
    }

    fn handle_submit(&mut self, conn: u64, job: usize, count: f64) {
        if self.shared.draining.load(Ordering::SeqCst) {
            return self.reject(
                conn,
                "submit",
                RejectReason::Draining,
                "daemon is draining",
                None,
            );
        }
        if self.run.is_done() {
            return self.reject(
                conn,
                "submit",
                RejectReason::Invalid,
                "horizon exhausted",
                Some((job, count)),
            );
        }
        if job >= self.classes {
            let detail = format!("job class {job} out of range ({} classes)", self.classes);
            return self.reject(
                conn,
                "submit",
                RejectReason::Invalid,
                &detail,
                Some((job, count)),
            );
        }
        let t = self.run.next_slot();
        // Next seq continues from the newest accepted entry — `len()`
        // would repeat seqs after a journal rotation trims the prefix.
        let seq = self
            .shared
            .lock_accepted()
            .last()
            .map_or(0, |prev| prev.seq + 1);
        let entry = JournalEntry { seq, t, job, count };
        if let Some(journal) = &mut self.journal {
            journal
                .append(entry)
                .unwrap_or_else(|e| panic!("journal append failed: {e}"));
        }
        self.run
            .inject_arrivals(t, job, count)
            .expect("submit validated against the engine");
        self.shared.lock_accepted().push(entry);
        self.shared.admitted.fetch_add(1, Ordering::SeqCst);
        self.emit(
            Event::new("admission.accept")
                .field("t", t)
                .field("job", job as u64)
                .field("count", count)
                .field("seq", seq),
        );
        self.reply(conn, protocol::accept(seq, t, job, count));
    }

    fn handle_advance(&mut self, conn: u64, slots: u64) -> Flow {
        if self.clock != Clock::Manual {
            self.reject(
                conn,
                "advance",
                RejectReason::BadRequest,
                "advance requires --clock manual",
                None,
            );
            return Flow::Continue;
        }
        for _ in 0..slots {
            if self.run.is_done() {
                break;
            }
            self.execute_slot(false);
        }
        self.reply(
            conn,
            protocol::advanced(self.run.next_slot(), self.run.is_done()),
        );
        if self.run.is_done() {
            Flow::Finish("horizon")
        } else {
            Flow::Continue
        }
    }

    /// Executes the next slot: chaos first (a kill window must strike
    /// before the slot's work), then the engine step, watermark, and
    /// checkpoint cadence.
    fn execute_slot(&mut self, silent: bool) {
        let t = self.run.next_slot();
        self.apply_chaos(t, silent);
        if silent {
            let mut null = NullObserver;
            self.run.step(&mut null);
        } else {
            let mut obs = PortObserver::new(self.shared.tele.clone());
            self.run.step(&mut obs);
        }
        self.shared
            .emitted_upto
            .store(self.run.next_slot(), Ordering::SeqCst);
        if !silent {
            self.maybe_checkpoint(false);
        }
    }

    /// Applies the chaos windows opening at slot `t`, in plan order. Each
    /// window fires at most once across all incarnations (tracked in
    /// [`SkShared::fired_chaos`]). A window is marked just before it runs,
    /// and the lock is released before it runs: a state-keeper kill panics
    /// out of this loop, and the replacement, replaying slot `t`, must
    /// still run the windows listed after it.
    fn apply_chaos(&mut self, t: u64, silent: bool) {
        let Some(chaos) = &self.chaos else { return };
        self.shared
            .sockdrop
            .store(chaos.sockdrop_active(t), Ordering::SeqCst);
        for fault in chaos.starting(t) {
            let first = self
                .shared
                .fired_chaos
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(fault.spec());
            if !first {
                continue;
            }
            if !silent {
                self.emit(chaos_inject_event(&fault, t));
            }
            let ms = fault.magnitude().unwrap_or(0.0).max(0.0) as u64;
            match (fault.label(), fault.actor()) {
                ("kill", Some(ActorTarget::StateKeeper)) => {
                    panic!("chaos kill: state_keeper")
                }
                ("kill", Some(ActorTarget::Admission)) => {
                    let _ = self.shared.admission.send(AdmissionMsg::Poison);
                }
                ("kill", Some(ActorTarget::Telemetry)) => {
                    // Only the replacement answers the sync queued behind
                    // the poison, after its pre-fold: waiting for it keeps
                    // this slot's events behind `served.restart` and the
                    // run from finishing while telemetry is down.
                    let _ = self.shared.tele.send(TelemetryMsg::Poison);
                    self.sync_telemetry();
                }
                ("stall", Some(ActorTarget::StateKeeper)) => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                ("stall", Some(ActorTarget::Admission)) => {
                    let _ = self.shared.admission.send(AdmissionMsg::Stall(ms));
                }
                ("stall", Some(ActorTarget::Telemetry)) => {
                    let _ = self.shared.tele.send(TelemetryMsg::Stall(ms));
                }
                ("sockdrop", _) => {
                    // The flag above keeps the acceptor refusing until the
                    // window closes; this closes what is already open.
                    let _ = self.shared.admission.send(AdmissionMsg::Sever);
                }
                _ => {}
            }
        }
    }

    /// Cuts a checkpoint when the cadence (or `force`) says so: the file
    /// is replaced by the new cut, then the journal — on disk and in
    /// memory — is rotated down to the suffix that cut still needs.
    fn maybe_checkpoint(&mut self, force: bool) {
        let Some(path) = &self.checkpoint_path else {
            return;
        };
        let slot = self.run.next_slot();
        if self.last_checkpoint_slot == Some(slot) {
            return;
        }
        let due = force || self.run.is_done() || slot.is_multiple_of(self.checkpoint_every);
        if !due {
            return;
        }
        // A resume re-emits only the slots from the cut on, so every
        // event of the slots before it must be written before the cut is.
        self.sync_telemetry();
        self.run
            .checkpoint()
            .write(path)
            .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"));
        self.last_checkpoint_slot = Some(slot);
        // The cut is durable: entries for executed slots are baked into
        // it, so both journals only need the suffix a resume or a restart
        // would replay (plus the newest entry as the seq watermark). A
        // kill before this rotation leaves a superset of that suffix: its
        // entries for slots before the cut only touch inputs the resumed
        // run never reads.
        let mut accepted = self.shared.lock_accepted();
        let from = accepted
            .iter()
            .position(|e| e.t >= slot)
            .unwrap_or_else(|| accepted.len().saturating_sub(1));
        accepted.drain(..from);
        if let Some(journal) = &mut self.journal {
            journal
                .rotate(&accepted)
                .unwrap_or_else(|e| panic!("journal rotate failed: {e}"));
        }
        drop(accepted);
        self.emit(Event::new("checkpoint.write").field("t", slot));
    }

    fn reject(
        &mut self,
        conn: u64,
        op: &str,
        reason: RejectReason,
        detail: &str,
        submit: Option<(usize, f64)>,
    ) {
        let mut event = Event::new("admission.reject")
            .field("t", self.run.next_slot())
            .field("reason", reason.as_str());
        if let Some((job, count)) = submit {
            event = event.field("job", job as u64).field("count", count);
        }
        self.emit(event);
        self.shared.rejected.fetch_add(1, Ordering::SeqCst);
        self.reply(conn, protocol::reject(op, reason, detail));
    }

    fn reply(&self, conn: u64, line: String) {
        // A reply queued for a connection of an incarnation that died is
        // dropped by the replacement: the connection died with it.
        let _ = self.shared.admission.send(AdmissionMsg::Reply(conn, line));
    }

    /// Waits until the telemetry actor has written everything sent to it
    /// so far: into the kernel, as its sink is a bare `File`. An actor
    /// that is restarting answers once its replacement is up.
    fn sync_telemetry(&self) {
        let (synced, wait) = mpsc::channel();
        let _ = self.shared.tele.send(TelemetryMsg::Sync(synced));
        let _ = wait.recv();
    }

    fn emit(&self, event: Event) {
        let _ = self.shared.tele.send(TelemetryMsg::Event(event));
    }

    /// Final cut, `run.end`, `served.stop` — in that order, so the stream
    /// ends exactly like a batch run's plus the daemon trailer.
    fn finish(mut self, reason: &'static str) -> SkExit {
        self.maybe_checkpoint(true);
        let watermark = self.run.next_slot();
        let mut obs = PortObserver::new(self.shared.tele.clone());
        let report = self.run.finish(&mut obs);
        let _ = self.shared.tele.send(TelemetryMsg::Event(
            Event::new("served.stop")
                .field("t", watermark)
                .field("reason", reason)
                .field("admitted", self.shared.admitted.load(Ordering::SeqCst))
                .field("rejected", self.shared.rejected.load(Ordering::SeqCst)),
        ));
        SkExit::Finished {
            report: Box::new(report),
            reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineSpec, SchedulerSpec};
    use grefar_obs::json::{parse_object, JsonValue};
    use grefar_sim::PaperScenario;
    use std::sync::mpsc;

    fn spec(hours: usize) -> EngineSpec {
        let scenario = PaperScenario::default().with_seed(5);
        let config = scenario.config().clone();
        let base_inputs = scenario.into_inputs(hours);
        EngineSpec {
            config,
            base_inputs,
            scheduler: SchedulerSpec::GreFar { v: 5.0, beta: 0.0 },
            admission_cap: None,
            faults: None,
            feeds: None,
            deadline_iters: None,
        }
    }

    struct Rig {
        sk: mpsc::Sender<SkMsg>,
        replies: mpsc::Receiver<AdmissionMsg>,
        handle: std::thread::JoinHandle<SkExit>,
    }

    /// A telemetry actor stand-in that drops events and answers syncs, as
    /// the real one does once it has written what was queued before them.
    fn telemetry_stub() -> mpsc::Sender<TelemetryMsg> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for msg in rx {
                if let TelemetryMsg::Sync(ack) = msg {
                    let _ = ack.send(());
                }
            }
        });
        tx
    }

    fn rig(hours: usize, clock: Clock) -> Rig {
        let engine = spec(hours);
        let classes = engine.config.num_job_classes();
        let run = engine.build(&[], None).unwrap();
        let (reply_tx, replies) = mpsc::channel();
        let shared = SkShared::new(telemetry_stub(), reply_tx);
        let (sk_tx, sk_rx) = mpsc::channel();
        let config = SkConfig {
            clock,
            chaos: None,
            checkpoint: None,
            checkpoint_every: 1,
            journal: None,
            num_job_classes: classes,
        };
        let handle = std::thread::spawn(move || run_state_keeper(run, config, shared, &sk_rx));
        Rig {
            sk: sk_tx,
            replies,
            handle,
        }
    }

    fn reply_of(rig: &Rig, conn: u64) -> std::collections::BTreeMap<String, JsonValue> {
        let msg = rig
            .replies
            .recv_timeout(Duration::from_secs(5))
            .expect("reply");
        let AdmissionMsg::Reply(got_conn, line) = msg else {
            panic!("expected a reply");
        };
        assert_eq!(got_conn, conn);
        parse_object(&line).expect("flat json reply")
    }

    #[test]
    fn manual_clock_submit_advance_status_drain() {
        let rig = rig(6, Clock::Manual);
        rig.sk
            .send(SkMsg::Submit {
                conn: 1,
                job: 0,
                count: 2.0,
            })
            .unwrap();
        let accept = reply_of(&rig, 1);
        assert_eq!(accept.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(accept.get("op").and_then(JsonValue::as_str), Some("submit"));
        assert_eq!(accept.get("seq").and_then(JsonValue::as_f64), Some(0.0));

        rig.sk.send(SkMsg::Advance { conn: 2, slots: 2 }).unwrap();
        let advanced = reply_of(&rig, 2);
        assert_eq!(advanced.get("slot").and_then(JsonValue::as_f64), Some(2.0));

        rig.sk.send(SkMsg::Status { conn: 3 }).unwrap();
        let status = reply_of(&rig, 3);
        assert_eq!(
            status.get("admitted").and_then(JsonValue::as_f64),
            Some(1.0)
        );
        assert_eq!(status.get("horizon").and_then(JsonValue::as_f64), Some(6.0));

        // Draining rejects new submissions and finishes the run.
        rig.sk.send(SkMsg::Drain { conn: Some(4) }).unwrap();
        let drain = reply_of(&rig, 4);
        assert_eq!(drain.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            drain.get("draining").and_then(JsonValue::as_bool),
            Some(true)
        );
        match rig.handle.join().unwrap() {
            SkExit::Finished { reason, .. } => assert_eq!(reason, "drain"),
        }
    }

    #[test]
    fn bad_submissions_get_typed_rejections() {
        let rig = rig(4, Clock::Manual);
        rig.sk
            .send(SkMsg::Submit {
                conn: 9,
                job: 99,
                count: 1.0,
            })
            .unwrap();
        let reject = reply_of(&rig, 9);
        assert_eq!(reject.get("ok").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(
            reject.get("error").and_then(JsonValue::as_str),
            Some("invalid")
        );
        rig.sk.send(SkMsg::Drain { conn: None }).unwrap();
        rig.handle.join().unwrap();
    }

    #[test]
    fn advancing_past_the_horizon_finishes_the_run() {
        let rig = rig(3, Clock::Manual);
        rig.sk.send(SkMsg::Advance { conn: 1, slots: 10 }).unwrap();
        let advanced = reply_of(&rig, 1);
        assert_eq!(advanced.get("slot").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(
            advanced.get("done").and_then(JsonValue::as_bool),
            Some(true)
        );
        match rig.handle.join().unwrap() {
            SkExit::Finished { reason, report } => {
                assert_eq!(reason, "horizon");
                assert!(report.average_energy_cost().is_finite());
            }
        }
    }

    #[test]
    fn checkpoints_rotate_the_journal_and_seqs_survive() {
        let dir = std::env::temp_dir().join(format!("grefar-sk-rot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck_path = dir.join("run.ckpt.jsonl");
        let jn_path = dir.join("run.ckpt.jsonl.journal");
        let _ = std::fs::remove_file(&ck_path);
        let _ = std::fs::remove_file(&jn_path);

        let engine = spec(8);
        let classes = engine.config.num_job_classes();
        let run = engine.build(&[], None).unwrap();
        let (reply_tx, replies) = mpsc::channel();
        let shared = SkShared::new(telemetry_stub(), reply_tx);
        let (sk_tx, sk_rx) = mpsc::channel();
        let config = SkConfig {
            clock: Clock::Manual,
            chaos: None,
            checkpoint: Some(ck_path.clone()),
            checkpoint_every: 1,
            journal: Some(jn_path.clone()),
            num_job_classes: classes,
        };
        let handle = {
            let shared = shared.clone();
            std::thread::spawn(move || run_state_keeper(run, config, shared, &sk_rx))
        };
        let rig = Rig {
            sk: sk_tx,
            replies,
            handle,
        };

        for conn in 0..3u64 {
            rig.sk
                .send(SkMsg::Submit {
                    conn,
                    job: 0,
                    count: 1.0,
                })
                .unwrap();
            let accept = reply_of(&rig, conn);
            assert_eq!(
                accept.get("seq").and_then(JsonValue::as_f64),
                Some(conn as f64)
            );
            rig.sk
                .send(SkMsg::Advance {
                    conn: 100 + conn,
                    slots: 1,
                })
                .unwrap();
            reply_of(&rig, 100 + conn);
        }

        // Three slots executed, a checkpoint after each: the checkpoint
        // file holds only the newest cut, and the journal has been rotated
        // down to the seq watermark (every admitted slot is behind the
        // cut), not grown to all three entries — on disk and in memory.
        let text = std::fs::read_to_string(&ck_path).unwrap();
        assert_eq!(text.matches("\"event\":\"ckpt.header\"").count(), 1);
        assert_eq!(grefar_sim::Checkpoint::load(&ck_path).unwrap().slot, 3);
        let recovered = crate::journal::load(&jn_path).unwrap();
        assert_eq!(recovered.entries.len(), 1, "{:?}", recovered.entries);
        assert_eq!(recovered.entries[0].seq, 2);
        assert_eq!(*shared.lock_accepted(), recovered.entries);

        // A fresh submission continues the seq sequence from the
        // watermark — exactly what a resumed daemon would do.
        rig.sk
            .send(SkMsg::Submit {
                conn: 7,
                job: 0,
                count: 2.0,
            })
            .unwrap();
        let accept = reply_of(&rig, 7);
        assert_eq!(accept.get("seq").and_then(JsonValue::as_f64), Some(3.0));

        rig.sk.send(SkMsg::Drain { conn: None }).unwrap();
        rig.handle.join().unwrap();

        // The rotated journal plus the newest checkpoint still rebuild a
        // runnable engine (the resume path's exact inputs).
        let recovered = crate::journal::load(&jn_path).unwrap();
        let ck = grefar_sim::Checkpoint::load(&ck_path).unwrap();
        let resumed = spec(8).build(&recovered.entries, Some(ck));
        assert!(resumed.is_ok(), "{:?}", resumed.err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn turbo_clock_free_runs_to_the_horizon() {
        let rig = rig(5, Clock::Turbo);
        match rig.handle.join().unwrap() {
            SkExit::Finished { reason, .. } => assert_eq!(reason, "horizon"),
        }
    }

    #[test]
    fn clock_parses() {
        assert_eq!(Clock::parse("manual").unwrap(), Clock::Manual);
        assert_eq!(Clock::parse("turbo").unwrap(), Clock::Turbo);
        assert_eq!(
            Clock::parse("real:25").unwrap(),
            Clock::Real(Duration::from_millis(25))
        );
        assert!(Clock::parse("real:0").is_err());
        assert!(Clock::parse("warp").is_err());
        assert_eq!(Clock::Real(Duration::from_millis(25)).label(), "real:25");
    }
}
