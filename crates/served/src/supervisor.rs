//! The supervision tree: spawn, watch, restart, drain.
//!
//! The supervisor owns every join handle, every swappable port
//! ([`crate::port::Swap`]) and the restart budget. Its loop is the only
//! place actor death is observed: a panicked actor is rebuilt from shared
//! state (journal + checkpoint + telemetry watermark) after an exponential
//! backoff, and more than [`RestartPolicy::max_restarts`] restarts of one
//! actor inside [`RestartPolicy::window`] turns the daemon off (exit 1) —
//! crash loops should page, not spin.
//!
//! Signals: SIGTERM/SIGINT latch a flag ([`crate::signal`]); the
//! supervision loop translates it into a graceful drain — stop admitting,
//! checkpoint, finish the run, flush telemetry — and exits 0.

use crate::admission::{run_admission, AdmissionMsg};
use crate::chaos::ChaosPlan;
use crate::engine::EngineSpec;
use crate::journal::{self, JournalEntry};
use crate::port::Swap;
use crate::signal;
use crate::state_keeper::{run_state_keeper, Clock, SkConfig, SkExit, SkMsg, SkShared};
use crate::telemetry::{
    run_telemetry, send_reliable, truncate_for_resume, TelemetryConfig, TelemetryFinal,
    TelemetryMsg, TelemetryPort,
};
use grefar_metrics::{shared_handle, AlertRule, MetricsServer};
use grefar_obs::Event;
use grefar_sim::Checkpoint;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Restart discipline for one actor.
#[derive(Debug, Clone, Copy)]
pub struct RestartPolicy {
    /// First backoff, doubled per restart inside the window.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Restarts tolerated per actor inside `window` before giving up.
    pub max_restarts: u32,
    /// The sliding restart-intensity window.
    pub window: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        Self {
            backoff_base_ms: 50,
            backoff_cap_ms: 2000,
            max_restarts: 5,
            window: Duration::from_secs(30),
        }
    }
}

impl RestartPolicy {
    /// The backoff before restart number `in_window` inside the sliding
    /// window (1-based), or `None` once the restart-intensity budget is
    /// blown. Pure: the supervision loop, the soak harness's restart
    /// oracle and the property tests all derive timing from this one
    /// function, so "deterministic per policy" is checkable by calling it
    /// twice.
    pub fn backoff_for(&self, in_window: u32) -> Option<u64> {
        if in_window > self.max_restarts {
            return None;
        }
        let doublings = u32::min(in_window.saturating_sub(1), 20);
        let backoff = self.backoff_base_ms.saturating_mul(1 << doublings);
        Some(backoff.min(self.backoff_cap_ms))
    }
}

struct RestartTracker {
    times: Vec<Instant>,
    total: u64,
    policy: RestartPolicy,
}

impl RestartTracker {
    fn new(policy: RestartPolicy) -> Self {
        Self {
            times: Vec::new(),
            total: 0,
            policy,
        }
    }

    /// Records a restart; returns the backoff to apply, or `None` when the
    /// intensity limit is blown.
    fn note(&mut self) -> Option<u64> {
        // verify: allow(determinism): restart-intensity window is wall-clock by design
        let now = Instant::now();
        let window = self.policy.window;
        self.times.retain(|t| now.duration_since(*t) < window);
        self.times.push(now);
        self.total += 1;
        let in_window = self.times.len() as u32;
        self.policy.backoff_for(in_window)
    }
}

/// One supervised actor: its live thread and its restart budget.
struct Supervised<T> {
    actor: &'static str,
    /// `None` from [`Supervised::reap`] until the replacement spawns, and
    /// for good once the supervisor gives up.
    thread: Option<JoinHandle<T>>,
    tracker: RestartTracker,
}

impl<T> Supervised<T> {
    fn new(actor: &'static str, thread: JoinHandle<T>, policy: RestartPolicy) -> Self {
        Self {
            actor,
            thread: Some(thread),
            tracker: RestartTracker::new(policy),
        }
    }

    fn is_finished(&self) -> bool {
        self.thread.as_ref().is_some_and(JoinHandle::is_finished)
    }

    /// The restart sequence every actor shares: join the finished thread,
    /// label its death, charge the restart budget, sleep out the backoff.
    /// `Ok` is the backoff slept; the caller rebuilds the actor. `Err` ends
    /// supervision: `clean` turned the thread's return value into an exit,
    /// or the budget is blown.
    fn reap(&mut self, clean: impl FnOnce(T) -> Option<Exit>) -> Result<u64, Exit> {
        let thread = self.thread.take().expect("reaped a live actor");
        let detail = match thread.join() {
            Ok(value) => match clean(value) {
                Some(exit) => return Err(exit),
                None => format!("{} loop exited unexpectedly", self.actor),
            },
            Err(panic) => panic_label(panic),
        };
        let Some(backoff_ms) = self.tracker.note() else {
            return Err(Exit::GaveUp {
                actor: self.actor,
                detail,
            });
        };
        std::thread::sleep(Duration::from_millis(backoff_ms));
        Ok(backoff_ms)
    }

    /// Emits `served.restart` for the replacement about to spawn.
    fn announce(&self, tele: &TelemetryPort, shared: &SkShared, backoff_ms: u64) {
        let actor = self.actor;
        let restarts = self.tracker.total;
        eprintln!("note: restarted {actor} actor (restart #{restarts})");
        send_reliable(
            tele,
            TelemetryMsg::Event(
                Event::new("served.restart")
                    .field("t", shared.emitted_upto.load(Ordering::SeqCst))
                    .field("actor", actor)
                    .field("restarts", restarts)
                    .field("backoff_ms", backoff_ms),
            ),
        );
    }
}

/// Everything `main` resolves from flags before handing over.
pub struct DaemonOptions {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// The slot clock.
    pub clock: Clock,
    /// The engine recipe.
    pub engine: EngineSpec,
    /// Deterministic chaos schedule.
    pub chaos: Option<ChaosPlan>,
    /// Checkpoint path (the admission journal rides next to it).
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint cadence in slots.
    pub checkpoint_every: u64,
    /// Resume from the checkpoint + admission journal on disk (without
    /// it, a fresh start removes both files).
    pub resume: bool,
    /// JSONL telemetry stream path.
    pub telemetry: Option<PathBuf>,
    /// Prometheus snapshot file.
    pub metrics_snapshot: Option<PathBuf>,
    /// `/metrics` + `/healthz` + `/alerts` listen address.
    pub metrics_listen: Option<String>,
    /// Alert rules for the telemetry fold.
    pub alerts: Vec<AlertRule>,
    /// File to write the bound address to (test harnesses).
    pub port_file: Option<PathBuf>,
    /// Bound depth of the admission → state-keeper queue.
    pub queue_cap: usize,
    /// Restart discipline.
    pub restart: RestartPolicy,
}

/// The admission journal's on-disk companion to a checkpoint path.
pub fn journal_path_for(checkpoint: &std::path::Path) -> PathBuf {
    let mut os = checkpoint.as_os_str().to_os_string();
    os.push(".journal");
    PathBuf::from(os)
}

/// Runs the daemon to completion. Returns the process exit code:
/// 0 for a graceful finish (horizon, drain, signal), 1 for a blown
/// restart budget or unrecoverable state.
///
/// # Errors
/// Startup failures (bad listen address, unreadable resume state, an
/// earlier session's state files that cannot be removed, invalid engine
/// build) — the caller prints and exits 2.
pub fn run_daemon(options: DaemonOptions) -> Result<i32, String> {
    signal::reset();
    signal::install();

    let journal_path = options.checkpoint.as_deref().map(journal_path_for);

    // --- Resume state -------------------------------------------------
    let mut accepted: Vec<JournalEntry> = Vec::new();
    let mut disk_checkpoint: Option<Checkpoint> = None;
    if options.resume {
        let ck_path = options
            .checkpoint
            .as_ref()
            .ok_or("--resume requires --checkpoint")?;
        disk_checkpoint = Some(
            Checkpoint::load(ck_path)
                .map_err(|e| format!("cannot resume from {}: {e}", ck_path.display()))?,
        );
        if let Some(path) = &journal_path {
            let recovered = journal::load(path)?;
            if recovered.dropped_bytes > 0 {
                eprintln!(
                    "note: dropped {} torn trailing bytes from {}",
                    recovered.dropped_bytes,
                    path.display()
                );
            }
            accepted = recovered.entries;
        }
    } else {
        // A fresh start owns its state files from the first slot: an
        // earlier session's checkpoint and journal would otherwise feed a
        // state-keeper restart (or a later --resume) before the first cut
        // replaces them.
        for path in options.checkpoint.iter().chain(&journal_path) {
            match std::fs::remove_file(path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("cannot remove {}: {e}", path.display()))
                }
                _ => {}
            }
        }
    }
    let resume_slot = disk_checkpoint.as_ref().map_or(0, |ck| ck.slot);
    if options.resume {
        if let Some(path) = &options.telemetry {
            truncate_for_resume(path, resume_slot)?;
        }
    }

    // --- Telemetry actor ----------------------------------------------
    let shared_metrics = shared_handle();
    let tele_config = TelemetryConfig {
        jsonl: options.telemetry.clone(),
        append: options.resume,
        snapshot: options.metrics_snapshot.clone(),
        rules: options.alerts.clone(),
        shared: Some(shared_metrics.clone()),
    };
    let (tele_tx, tele_rx) = mpsc::channel();
    let tele: TelemetryPort = Swap::new(tele_tx);
    let mut telemetry = {
        let config = tele_config.clone();
        let thread = std::thread::spawn(move || run_telemetry(config, tele_rx));
        Supervised::new("telemetry", thread, options.restart)
    };
    // --- Listener ------------------------------------------------------
    let listener = TcpListener::bind(&options.listen)
        .map_err(|e| format!("cannot bind {}: {e}", options.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("listener address: {e}"))?;
    if let Some(path) = &options.port_file {
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("grefar-served listening on {addr}");
    send_reliable(
        &tele,
        TelemetryMsg::Event(
            Event::new("served.start")
                .field("addr", addr.to_string())
                .field("slot", resume_slot)
                .field("clock", options.clock.label()),
        ),
    );

    let metrics_server = match &options.metrics_listen {
        None => None,
        Some(listen) => Some(
            MetricsServer::spawn(listen, shared_metrics.clone())
                .map_err(|e| format!("cannot bind metrics listener {listen}: {e}"))?,
        ),
    };

    // --- Engine --------------------------------------------------------
    let engine = options.engine;
    let run = engine.build(&accepted, disk_checkpoint.clone())?;

    // Theorem 1's certificate, degraded by the feed profile's admissible
    // staleness — same emission (and gating) as the batch CLI. A resumed
    // stream already carries its bounds.
    if !options.resume {
        if let Some((v, beta)) = engine.scheduler.grefar_params() {
            let faulted = match &engine.faults {
                None => engine.base_inputs.clone(),
                Some(plan) => engine
                    .base_inputs
                    .clone()
                    .with_faults(plan)
                    .map_err(|e| format!("--faults: {e}"))?,
            };
            let stale_slots = engine
                .feeds
                .as_ref()
                .map_or(0, |p| p.staleness_bound(engine.config.num_data_centers()));
            let mut obs = crate::telemetry::PortObserver::new(tele.clone());
            grefar_sim::theory_obs::emit_theory_bounds_stale(
                &engine.config,
                &faulted,
                &[(run.scheduler_name(), v, beta)],
                stale_slots,
                &mut obs,
            );
        }
    }

    // --- Shared wiring + actor spawn -----------------------------------
    let (admission_tx, admission_rx) = mpsc::channel();
    let shared = SkShared::new(tele.clone(), Swap::new(admission_tx));
    shared.emitted_upto.store(resume_slot, Ordering::SeqCst);
    *shared.accepted.lock().expect("fresh lock") = accepted;

    let (sk_tx, sk_rx) = mpsc::sync_channel::<SkMsg>(options.queue_cap.max(1));
    let sk: Swap<SyncSender<SkMsg>> = Swap::new(sk_tx);

    let sk_config = || SkConfig {
        clock: options.clock,
        chaos: options.chaos.clone(),
        checkpoint: options.checkpoint.clone(),
        checkpoint_every: options.checkpoint_every,
        journal: journal_path.clone(),
        num_job_classes: engine.config.num_job_classes(),
    };
    let mut keeper = Supervised::new(
        "state_keeper",
        spawn_sk(run, sk_config(), shared.clone(), sk_rx),
        options.restart,
    );

    let mut admission_incarnation: u64 = 0;
    let mut admission = Supervised::new(
        "admission",
        spawn_admission(&listener, &sk, &shared, admission_rx, admission_incarnation)?,
        options.restart,
    );

    // --- Supervision loop ----------------------------------------------
    let mut drain_requested = false;

    let exit = loop {
        if signal::triggered() && !drain_requested {
            shared.draining.store(true, Ordering::SeqCst);
            let (_, tx) = sk.get();
            // try_send: a wedged/dead keeper must not wedge the supervisor;
            // retried on the next tick until it lands.
            if tx.try_send(SkMsg::Drain { conn: None }).is_ok() {
                drain_requested = true;
            }
        }

        if keeper.is_finished() {
            let backoff_ms = match keeper
                .reap(|SkExit::Finished { report, reason }| Some(Exit::Clean { report, reason }))
            {
                Ok(backoff_ms) => backoff_ms,
                Err(exit) => break exit,
            };
            let snapshot: Vec<JournalEntry> = shared
                .accepted
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            let rebuilt = reload_checkpoint(options.checkpoint.as_deref())
                .and_then(|ck| engine.build(&snapshot, ck));
            let run = match rebuilt {
                Ok(run) => run,
                Err(detail) => {
                    break Exit::GaveUp {
                        actor: keeper.actor,
                        detail,
                    }
                }
            };
            let (sk_tx, sk_rx) = mpsc::sync_channel::<SkMsg>(options.queue_cap.max(1));
            sk.swap(sk_tx);
            // Announce before spawning: the replacement's own chaos plan
            // must not be able to kill the telemetry actor ahead of this
            // event.
            keeper.announce(&tele, &shared, backoff_ms);
            keeper.thread = Some(spawn_sk(run, sk_config(), shared.clone(), sk_rx));
            drain_requested = false; // re-deliver the drain if one was pending
            continue;
        }

        if admission.is_finished() {
            let backoff_ms = match admission.reap(|()| None) {
                Ok(backoff_ms) => backoff_ms,
                Err(exit) => break exit,
            };
            let (admission_tx, admission_rx) = mpsc::channel();
            shared.admission.swap(admission_tx);
            admission_incarnation += 1;
            admission.announce(&tele, &shared, backoff_ms);
            match spawn_admission(&listener, &sk, &shared, admission_rx, admission_incarnation) {
                Ok(thread) => admission.thread = Some(thread),
                Err(detail) => {
                    break Exit::GaveUp {
                        actor: admission.actor,
                        detail,
                    }
                }
            }
            continue;
        }

        if telemetry.is_finished() {
            let backoff_ms = match telemetry.reap(|()| None) {
                Ok(backoff_ms) => backoff_ms,
                Err(exit) => break exit,
            };
            let (tele_tx, tele_rx) = mpsc::channel();
            tele.swap(tele_tx);
            // The replacement appends and pre-folds whatever the dead
            // incarnation already wrote.
            let config = TelemetryConfig {
                append: tele_config.jsonl.is_some(),
                ..tele_config.clone()
            };
            // Enqueue the restart event into the replacement's channel
            // before it starts: it lands right after the pre-fold, ahead of
            // anything the other actors send.
            telemetry.announce(&tele, &shared, backoff_ms);
            telemetry.thread = Some(std::thread::spawn(move || run_telemetry(config, tele_rx)));
            continue;
        }

        std::thread::sleep(Duration::from_millis(2));
    };

    // --- Teardown -------------------------------------------------------
    let code = match exit {
        Exit::Clean { report, reason } => {
            let final_tele =
                stop_support_actors(&tele, &shared.admission, admission.thread, telemetry.thread);
            print!("{}", summary(&report, &shared));
            println!("exit             : {reason}");
            if let Some(fin) = final_tele {
                println!(
                    "telemetry        : {} events, health {}",
                    fin.events, fin.verdict
                );
            }
            0
        }
        Exit::GaveUp { actor, detail } => {
            eprintln!("error: {actor} actor failed beyond the restart budget: {detail}");
            send_reliable(
                &tele,
                TelemetryMsg::Event(
                    Event::new("served.stop")
                        .field("t", shared.emitted_upto.load(Ordering::SeqCst))
                        .field("reason", "supervision")
                        .field("admitted", shared.admitted.load(Ordering::SeqCst))
                        .field("rejected", shared.rejected.load(Ordering::SeqCst)),
                ),
            );
            let _ =
                stop_support_actors(&tele, &shared.admission, admission.thread, telemetry.thread);
            1
        }
    };
    if let Some(server) = metrics_server {
        server.shutdown();
    }
    Ok(code)
}

enum Exit {
    Clean {
        report: Box<grefar_sim::SimulationReport>,
        reason: &'static str,
    },
    GaveUp {
        actor: &'static str,
        detail: String,
    },
}

fn spawn_sk(
    run: grefar_sim::SteppedRun,
    config: SkConfig,
    shared: SkShared,
    rx: Receiver<SkMsg>,
) -> JoinHandle<SkExit> {
    std::thread::spawn(move || run_state_keeper(run, config, shared, rx))
}

fn spawn_admission(
    listener: &TcpListener,
    sk: &Swap<SyncSender<SkMsg>>,
    shared: &SkShared,
    inbox: Receiver<AdmissionMsg>,
    incarnation: u64,
) -> Result<JoinHandle<()>, String> {
    let listener = listener
        .try_clone()
        .map_err(|e| format!("cannot clone listener: {e}"))?;
    let sk = sk.clone();
    let shared = shared.clone();
    Ok(std::thread::spawn(move || {
        run_admission(listener, sk, shared, inbox, incarnation << 32)
    }))
}

fn reload_checkpoint(path: Option<&std::path::Path>) -> Result<Option<Checkpoint>, String> {
    let Some(path) = path else { return Ok(None) };
    if !path.exists() {
        return Ok(None);
    }
    Checkpoint::load(path)
        .map(Some)
        .map_err(|e| format!("cannot reload checkpoint {}: {e}", path.display()))
}

/// Stops admission, then telemetry; the final telemetry snapshot lands
/// *after* `served.stop`/`run.end` so the stream ends with the health
/// trailer. A `None` thread is an actor the supervisor gave up on.
///
/// After a clean exit the state keeper is gone, so every reply it sent is
/// queued ahead of `Stop`: admission writes them all, then closes its
/// connections. A failed send means the incarnation already died, and
/// its connections with it.
fn stop_support_actors(
    tele: &TelemetryPort,
    admission_port: &Swap<Sender<AdmissionMsg>>,
    admission: Option<JoinHandle<()>>,
    telemetry: Option<JoinHandle<()>>,
) -> Option<TelemetryFinal> {
    let (_, admission_tx) = admission_port.get();
    let _ = admission_tx.send(AdmissionMsg::Stop);
    if let Some(thread) = admission {
        let _ = thread.join();
    }
    send_reliable(tele, TelemetryMsg::Snapshot);
    let (fin_tx, fin_rx) = mpsc::channel();
    send_reliable(tele, TelemetryMsg::Stop(fin_tx));
    let fin = fin_rx.recv_timeout(Duration::from_secs(10)).ok();
    if let Some(thread) = telemetry {
        let _ = thread.join();
    }
    fin
}

fn panic_label(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

/// The same header table the batch CLI prints, plus the daemon's
/// admission tallies.
fn summary(report: &grefar_sim::SimulationReport, shared: &SkShared) -> String {
    let mut out = String::new();
    out.push_str(&format!("scheduler        : {}\n", report.scheduler));
    out.push_str(&format!("hours            : {}\n", report.horizon));
    out.push_str(&format!(
        "avg energy cost  : {:.3}\n",
        report.average_energy_cost()
    ));
    out.push_str(&format!(
        "avg fairness     : {:.4}\n",
        report.average_fairness()
    ));
    out.push_str(&format!(
        "jobs completed   : {}\n",
        report.completions.completed_total
    ));
    out.push_str(&format!(
        "max queue        : {:.0}\n",
        report.max_queue_length()
    ));
    out.push_str(&format!(
        "admitted (live)  : {}\n",
        shared.admitted.load(Ordering::SeqCst)
    ));
    out.push_str(&format!(
        "rejected (live)  : {}\n",
        shared.rejected.load(Ordering::SeqCst)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_tracker_backs_off_then_gives_up() {
        let mut tracker = RestartTracker::new(RestartPolicy {
            backoff_base_ms: 10,
            backoff_cap_ms: 35,
            max_restarts: 3,
            window: Duration::from_secs(30),
        });
        assert_eq!(tracker.note(), Some(10));
        assert_eq!(tracker.note(), Some(20));
        assert_eq!(tracker.note(), Some(35)); // capped
        assert_eq!(tracker.note(), None); // budget blown
        assert_eq!(tracker.total, 4);
    }

    #[test]
    fn journal_path_rides_next_to_the_checkpoint() {
        assert_eq!(
            journal_path_for(std::path::Path::new("/tmp/run.ck")),
            PathBuf::from("/tmp/run.ck.journal")
        );
    }
}
