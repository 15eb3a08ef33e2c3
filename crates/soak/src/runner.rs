//! Drives one [`Scenario`] through the three soak legs and returns the
//! first oracle violation, if any. See the [crate docs](crate) for the
//! leg-by-leg contract.
//!
//! The legs run in order and stop at the first violation: a scenario
//! whose ledger is already broken in the batch leg would fail the resume
//! diff and the daemon oracles for the same underlying reason, and the
//! shrinker needs one stable failure signature, not three echoes of it.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::thread;
use std::time::Duration;

use grefar_core::theory::{slackness_delta_trace, TheoryBounds};
use grefar_core::{GreFar, GreFarParams};
use grefar_faults::{ActorTarget, FaultPlan};
use grefar_metrics::MetricsFold;
use grefar_obs::json::{parse_object, JsonValue};
use grefar_obs::JsonlSink;
use grefar_report::{diff_streams, DiffOptions};
use grefar_served::state_keeper::Clock;
use grefar_served::{
    run_daemon, ChaosPlan, DaemonOptions, EngineSpec, RestartPolicy, SchedulerSpec,
};
use grefar_sim::{Checkpoint, PaperScenario, RunPolicy, SimError, Simulation, SteppedRun};
use grefar_types::SystemConfig;

use crate::oracle::{OracleKind, Violation};
use crate::scenario::Scenario;

/// Relative slack on the occupancy comparison — the bound itself is an
/// analytic quantity computed in the same float arithmetic as the run, so
/// anything beyond rounding noise is a genuine breach.
const OCCUPANCY_EPS: f64 = 1e-6;

/// What one scenario run produced.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The first oracle violation, or `None` for a green run.
    pub violation: Option<Violation>,
    /// Whether the occupancy oracle was live (the scenario admitted a
    /// slackness certificate) or skipped.
    pub occupancy_checked: bool,
    /// Slots executed per leg.
    pub slots: u64,
    /// Supervisor restarts observed in the daemon leg (0 when the run
    /// stopped before that leg).
    pub restarts: u64,
}

/// Runs `scenario` end to end, using `scratch` for checkpoints, journals
/// and telemetry files. The directory is created if missing; callers own
/// cleanup (and uniqueness across parallel runs).
///
/// # Errors
/// Harness-level failures — I/O, thread, or build errors that say nothing
/// about the system under test. Oracle failures are *not* errors; they
/// come back inside [`SoakReport::violation`].
pub fn run_scenario(scenario: &Scenario, scratch: &Path) -> Result<SoakReport, String> {
    scenario.validate()?;
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {scratch:?}: {e}"))?;
    let mut report = SoakReport {
        violation: None,
        occupancy_checked: false,
        slots: scenario.horizon,
        restarts: 0,
    };

    // Leg 1: batch reference with per-slot ledger + occupancy oracles.
    let (reference, violation, occupancy_checked) = batch_leg(scenario)?;
    report.occupancy_checked = occupancy_checked;
    if violation.is_some() {
        report.violation = violation;
        return Ok(report);
    }

    // Leg 2: kill-9 at the cut slot, resume, diff against the reference.
    if let Some(v) = crash_leg(scenario, scratch, &reference)? {
        report.violation = Some(v);
        return Ok(report);
    }

    // Leg 3: the daemon under chaos, traffic over the wire.
    let (violation, restarts) = daemon_leg(scenario, scratch)?;
    report.restarts = restarts;
    report.violation = violation;
    Ok(report)
}

/// Builds the scenario's simulation: paper workload from the seed, the
/// scheduler at the scenario's operating point, faults, feeds, cap, and
/// the pre-run traffic injections. `with_corruption` arms the mutation
/// self-check hook (leg 1 only — the other legs must stay healthy so the
/// self-check's failure signature is the ledger, not a resume echo).
fn build_simulation(scenario: &Scenario, with_corruption: bool) -> Result<Simulation, String> {
    let shape = PaperScenario::default().with_seed(scenario.seed);
    let config = shape.config().clone();
    let inputs = shape.into_inputs(scenario.horizon as usize);
    let scheduler = GreFar::new(&config, GreFarParams::new(scenario.v, scenario.beta))
        .map_err(|e| format!("scheduler: {e}"))?;
    let mut sim = Simulation::try_new(config, inputs, Box::new(scheduler))
        .map_err(|e| format!("build: {e}"))?;
    if let Some(cap) = scenario.admission_cap {
        sim = sim.with_admission_cap(cap);
    }
    let plan = scenario.fault_plan()?;
    if !plan.is_empty() {
        sim = sim
            .with_fault_plan(plan)
            .map_err(|e| format!("faults: {e}"))?;
    }
    if let Some(profile) = scenario.feed_profile()? {
        sim = sim
            .with_feed_profile(profile)
            .map_err(|e| format!("feeds: {e}"))?;
    }
    for (t, job, count) in scenario.traffic() {
        sim.inject_arrivals(t as usize, job, count);
    }
    if with_corruption {
        if let Some((slot, delta)) = scenario.corruption() {
            sim.corrupt_queue_for_test(slot, delta);
        }
    }
    Ok(sim)
}

/// The widened stale-aware Theorem 1(a) occupancy bound for this
/// scenario, or `None` when the (faulted, injected) trace admits no
/// slackness certificate — an overloaded system gets no guarantee, so
/// the oracle stands down.
///
/// The widening is the same engineering corollary the feed layer already
/// documents for staleness (`stale_queue_bound = queue_bound +
/// stale·q^max`), extended to solver squeezes: a slot whose decision was
/// computed under a degraded budget can overshoot the drift contraction,
/// but the queues still move by at most `q^max` per slot, so each such
/// slot relaxes the peak by one `q^max`.
fn widened_occupancy_bound(
    scenario: &Scenario,
    config: &SystemConfig,
    sim: &Simulation,
) -> Result<Option<f64>, String> {
    let inputs = sim.inputs();
    let delta =
        match slackness_delta_trace(config, &inputs.capacities(config), inputs.all_arrivals()) {
            Some(delta) => delta,
            None => return Ok(None),
        };
    let price_max = (0..inputs.horizon())
        .flat_map(|t| {
            let state = inputs.state(t);
            (0..config.num_data_centers())
                .map(move |i| state.data_center(i).price())
                .collect::<Vec<_>>()
        })
        .fold(0.0f64, f64::max);
    let bounds = TheoryBounds::new(config, delta, price_max, scenario.beta);
    let stale = match scenario.feed_profile()? {
        Some(profile) => profile
            .staleness_bound(config.num_data_centers())
            .min(scenario.horizon),
        None => 0,
    };
    let plan = scenario.fault_plan()?;
    let squeezed = (0..scenario.horizon)
        .filter(|&t| plan.fw_budget_at(t).is_some())
        .count();
    Ok(Some(
        bounds.stale_queue_bound(scenario.v, stale) + bounds.q_max() * squeezed as f64,
    ))
}

/// Leg 1: step the batch run slot by slot, checking the conservation
/// ledger and the occupancy bound after every slot, and recording the
/// reference telemetry stream.
fn batch_leg(scenario: &Scenario) -> Result<(String, Option<Violation>, bool), String> {
    let config = PaperScenario::default().config().clone();
    let sim = build_simulation(scenario, true)?;
    let bound = widened_occupancy_bound(scenario, &config, &sim)?;
    let mut run = SteppedRun::new(sim);
    let mut sink = JsonlSink::new(Vec::new());
    let mut violation = None;
    while !run.is_done() {
        run.step(&mut sink);
        let slot = run.next_slot() - 1;
        let ledger = run.ledger();
        let balance = ledger.balance(run.queue_total());
        if balance.abs() > ledger.tolerance() {
            violation = Some(Violation::new(
                OracleKind::Ledger,
                format!(
                    "slot {slot}: conservation balance {balance:.6} exceeds tolerance {:.3e} \
                     (admitted {:.3}, served {:.3}, route_excess {:.3}, queued {:.3})",
                    ledger.tolerance(),
                    ledger.admitted(),
                    ledger.served(),
                    ledger.route_excess(),
                    run.queue_total(),
                ),
            ));
            break;
        }
        if let Some(bound) = bound {
            let peak = run.queue_peak();
            if peak > bound * (1.0 + OCCUPANCY_EPS) {
                violation = Some(Violation::new(
                    OracleKind::Occupancy,
                    format!(
                        "slot {slot}: peak queue {peak:.6} exceeds the widened Theorem 1(a) \
                         bound {bound:.6} (V={}, beta={})",
                        scenario.v, scenario.beta
                    ),
                ));
                break;
            }
        }
    }
    let _ = run.finish(&mut sink);
    // A run cut short by a violation has a truncated stream; it is never
    // used as a reference because the caller stops at the violation.
    let text = String::from_utf8(sink.into_inner()).map_err(|e| e.to_string())?;
    Ok((text, violation, bound.is_some()))
}

/// Leg 2: run the same simulation under a kill policy, resume from the
/// checkpoint, and demand the concatenated stream diffs clean against the
/// uninterrupted reference.
fn crash_leg(
    scenario: &Scenario,
    scratch: &Path,
    reference: &str,
) -> Result<Option<Violation>, String> {
    let ck_path = scratch.join("batch-checkpoint.jsonl");
    let policy =
        RunPolicy::new(&ck_path, scenario.checkpoint_every as usize).with_kill_at(scenario.kill_at);
    let run = SteppedRun::new(build_simulation(scenario, false)?);
    let mut cut = JsonlSink::new(Vec::new());
    match run.complete(&mut cut, Some(&policy)) {
        Err(SimError::Killed { .. }) => {}
        Ok(_) => {
            return Ok(Some(Violation::new(
                OracleKind::ResumeDiff,
                format!(
                    "kill scheduled at slot {} inside horizon {} never fired",
                    scenario.kill_at, scenario.horizon
                ),
            )))
        }
        Err(e) => return Err(format!("crash leg: {e}")),
    }
    let checkpoint = Checkpoint::load(&ck_path).map_err(|e| format!("checkpoint: {e}"))?;
    let mut tail = JsonlSink::new(Vec::new());
    SteppedRun::resume(build_simulation(scenario, false)?, checkpoint)
        .and_then(|run| run.complete(&mut tail, None))
        .map_err(|e| format!("resume: {e}"))?;
    let mut combined = String::from_utf8(cut.into_inner()).map_err(|e| e.to_string())?;
    combined.push_str(&String::from_utf8(tail.into_inner()).map_err(|e| e.to_string())?);
    let diff = diff_streams(reference, &combined, &DiffOptions::default())?;
    if diff.is_match() {
        Ok(None)
    } else {
        Ok(Some(Violation::new(
            OracleKind::ResumeDiff,
            format!(
                "kill at slot {} / resume diverged from the uninterrupted run:\n{}",
                scenario.kill_at,
                diff.render().trim_end()
            ),
        )))
    }
}

/// One line-delimited JSON client connection to the in-process daemon.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: &str) -> Result<Self, String> {
        // verify: allow(determinism): wall-clock retry deadline for a live TCP daemon, not decision-path state
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                // verify: allow(determinism): wall-clock retry deadline for a live TCP daemon
                Err(_) if std::time::Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(format!("connect {addr}: {e}")),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        // One request per round trip: without TCP_NODELAY, Nagle's
        // algorithm holds each request behind the previous reply's delayed
        // ACK.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Wire {
            reader,
            writer: stream,
        })
    }

    /// Sends one request without waiting for its reply.
    fn send(&mut self, line: &str) -> Result<(), String> {
        // Request and newline in one write, so they leave as one segment.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send {line:?}: {e}"))
    }

    /// Sends one request and waits for the reply with `op == want_op`,
    /// skipping stale replies from earlier timed-out requests. `None`
    /// means the read timed out — after a state-keeper kill the in-flight
    /// request's reply is simply lost, and the caller resyncs via
    /// `status`.
    fn call(
        &mut self,
        line: &str,
        want_op: &str,
    ) -> Result<Option<BTreeMap<String, JsonValue>>, String> {
        self.send(line)?;
        loop {
            let mut reply = String::new();
            match self.reader.read_line(&mut reply) {
                Ok(0) => return Err("daemon closed the connection".to_string()),
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(format!("read: {e}")),
            }
            let object = parse_object(reply.trim())
                .map_err(|e| format!("unparsable reply {:?}: {e}", reply.trim()))?;
            if object.get("op").and_then(JsonValue::as_str) == Some(want_op) {
                return Ok(Some(object));
            }
            // A stale reply for an earlier request whose wait timed out;
            // skip it and keep reading.
        }
    }
}

fn num_field(object: &BTreeMap<String, JsonValue>, key: &str) -> Option<f64> {
    object.get(key).and_then(JsonValue::as_f64)
}

fn is_ok(object: &BTreeMap<String, JsonValue>) -> bool {
    object.get("ok") == Some(&JsonValue::Bool(true))
}

fn error_reason(object: &BTreeMap<String, JsonValue>) -> String {
    object
        .get("error")
        .and_then(JsonValue::as_str)
        .unwrap_or("<none>")
        .to_string()
}

/// Leg 3: run `grefar-served` in-process under a manual clock, feed it
/// the scenario's traffic over the wire while the chaos plan fires, then
/// check exit status, restart conformance and the metrics fold identity.
fn daemon_leg(scenario: &Scenario, scratch: &Path) -> Result<(Option<Violation>, u64), String> {
    let shape = PaperScenario::default().with_seed(scenario.seed);
    let config = shape.config().clone();
    let base_inputs = shape.into_inputs(scenario.horizon as usize);
    let plan = scenario.fault_plan()?;
    let engine = EngineSpec {
        config,
        base_inputs,
        scheduler: SchedulerSpec::GreFar {
            v: scenario.v,
            beta: scenario.beta,
        },
        admission_cap: scenario.admission_cap,
        faults: if plan.is_empty() { None } else { Some(plan) },
        feeds: scenario.feed_profile()?,
        deadline_iters: None,
    };
    let chaos = match scenario.chaos_spec() {
        Some(spec) => Some(ChaosPlan::parse(&spec).map_err(|e| format!("chaos: {e}"))?),
        None => None,
    };
    let telemetry = scratch.join("daemon-telemetry.jsonl");
    let snapshot = scratch.join("daemon-metrics.prom");
    let checkpoint = scratch.join("daemon-checkpoint.jsonl");
    let port_file = scratch.join("daemon.port");
    let options = DaemonOptions {
        listen: "127.0.0.1:0".to_string(),
        clock: Clock::Manual,
        engine,
        chaos,
        checkpoint: Some(checkpoint),
        checkpoint_every: scenario.checkpoint_every,
        resume: false,
        telemetry: Some(telemetry.clone()),
        metrics_snapshot: Some(snapshot.clone()),
        metrics_listen: None,
        alerts: Vec::new(),
        port_file: Some(port_file.clone()),
        queue_cap: 64,
        restart: RestartPolicy {
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            ..RestartPolicy::default()
        },
    };
    let daemon = thread::spawn(move || run_daemon(options));
    let addr = wait_port_file(&port_file)?;
    let exit = match drive_daemon(scenario, &addr) {
        Ok(()) => daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))?,
        Err(e) => {
            // Best effort: do not leave the daemon thread running behind a
            // harness error.
            if let Ok(mut wire) = Wire::connect(&addr) {
                let _ = wire.call("{\"op\":\"drain\"}", "drain");
            }
            let _ = daemon.join();
            return Err(e);
        }
    };
    let mut violation = None;
    if exit != 0 {
        violation = Some(Violation::new(
            OracleKind::Restart,
            format!("daemon exited {exit} (expected 0: clean shutdown after the horizon)"),
        ));
    }
    let tele_text =
        std::fs::read_to_string(&telemetry).map_err(|e| format!("read {telemetry:?}: {e}"))?;
    let restarts = tele_text
        .lines()
        .filter(|l| l.contains("\"event\":\"served.restart\""))
        .count() as u64;
    if violation.is_none() {
        let expected = scenario.kill_count() as u64;
        if restarts != expected {
            violation = Some(Violation::new(
                OracleKind::Restart,
                format!(
                    "supervisor restarted {restarts} time(s), chaos plan scheduled {expected} \
                     kill window(s)"
                ),
            ));
        }
    }
    if violation.is_none() {
        let live =
            std::fs::read_to_string(&snapshot).map_err(|e| format!("read {snapshot:?}: {e}"))?;
        let mut fold = MetricsFold::new(true);
        fold.fold_jsonl(&tele_text)
            .map_err(|e| format!("refold: {e}"))?;
        let offline = fold.render();
        if offline != live {
            violation = Some(Violation::new(
                OracleKind::Fold,
                format!(
                    "offline refold of the telemetry stream differs from the live metrics \
                     snapshot ({} vs {} bytes); first divergence: {}",
                    offline.len(),
                    live.len(),
                    first_divergence(&offline, &live)
                ),
            ));
        }
    }
    Ok((violation, restarts))
}

/// Polls the daemon's `--port-file` until the listener address appears.
fn wait_port_file(port_file: &Path) -> Result<String, String> {
    // verify: allow(determinism): wall-clock startup deadline for a live daemon
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            let addr = text.trim();
            if !addr.is_empty() {
                return Ok(addr.to_string());
            }
        }
        // verify: allow(determinism): wall-clock startup deadline for a live daemon
        if std::time::Instant::now() >= deadline {
            return Err(format!("daemon never wrote {port_file:?}"));
        }
        thread::sleep(Duration::from_millis(10));
    }
}

/// Submits the traffic script slot by slot and advances the manual clock
/// to the horizon, resyncing via `status` whenever a state-keeper kill
/// swallows an in-flight reply, then drains.
fn drive_daemon(scenario: &Scenario, addr: &str) -> Result<(), String> {
    let mut wire = Wire::connect(addr)?;
    let mut pending: BTreeMap<u64, Vec<(usize, f64)>> = BTreeMap::new();
    for (t, job, count) in scenario.traffic() {
        pending.entry(t).or_default().push((job, count));
    }
    // The slots whose advance kills the state keeper: that advance's reply
    // dies with it, so the loop below resyncs with `status` at once instead of
    // waiting out the read timeout.
    let mut keeper_kills: BTreeSet<u64> = match scenario.chaos_spec() {
        Some(spec) => FaultPlan::parse(&spec)
            .map_err(|e| format!("chaos: {e}"))?
            .faults()
            .iter()
            .filter(|f| f.label() == "kill" && f.actor() == Some(ActorTarget::StateKeeper))
            .map(|f| f.start)
            .collect(),
        None => BTreeSet::new(),
    };
    // verify: allow(determinism): wall-clock watchdog so a deadlocked daemon fails the leg instead of hanging CI
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        // verify: allow(determinism): wall-clock watchdog so a deadlocked daemon fails the leg
        if std::time::Instant::now() >= deadline {
            return Err("daemon leg timed out after 120s".to_string());
        }
        let status = match wire.call("{\"op\":\"status\"}", "status")? {
            Some(s) => s,
            None => continue, // keeper mid-restart; retry
        };
        if !is_ok(&status) {
            // `unavailable` while an actor restarts — back off and retry.
            thread::sleep(Duration::from_millis(5));
            continue;
        }
        let slot = num_field(&status, "slot").unwrap_or(0.0) as u64;
        let horizon = num_field(&status, "horizon").unwrap_or(0.0) as u64;
        if slot >= horizon {
            break;
        }
        if let Some(subs) = pending.remove(&slot) {
            for (job, count) in subs {
                submit(&mut wire, job, count)?;
            }
        }
        if keeper_kills.remove(&slot) {
            wire.send("{\"op\":\"advance\"}")?;
            continue;
        }
        match wire.call("{\"op\":\"advance\"}", "advance")? {
            Some(reply) if is_ok(&reply) => {
                if reply.get("done") == Some(&JsonValue::Bool(true)) {
                    break;
                }
            }
            // A rejection (`unavailable`) or a lost reply (keeper killed
            // mid-slot): fall through to the status resync.
            Some(_) | None => thread::sleep(Duration::from_millis(5)),
        }
    }
    // No explicit drain: completing the horizon finishes the state keeper
    // (`SkExit::Finished`) and the supervisor shuts the daemon down on its
    // own — a drain after that would race the closing listener.
    Ok(())
}

/// One wire submission with retry on the daemon's transient rejections.
fn submit(wire: &mut Wire, job: usize, count: f64) -> Result<(), String> {
    let line = format!("{{\"op\":\"submit\",\"job\":{job},\"count\":{count}}}");
    for _ in 0..200 {
        match wire.call(&line, "submit")? {
            Some(reply) if is_ok(&reply) => return Ok(()),
            Some(reply) => match error_reason(&reply).as_str() {
                // Transient: actor restarting or backpressure.
                "unavailable" | "queue_full" => thread::sleep(Duration::from_millis(5)),
                other => return Err(format!("submit rejected: {other}")),
            },
            None => thread::sleep(Duration::from_millis(5)),
        }
    }
    Err("submit never accepted after 200 attempts".to_string())
}

/// The first line where two renderings diverge (for the fold oracle's
/// detail string).
fn first_divergence(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("{la:?} vs {lb:?}");
        }
    }
    "one rendering is a prefix of the other".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Clause;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("grefar-soak-ut-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A small fixed scenario that exercises every leg quickly.
    fn small_scenario() -> Scenario {
        Scenario {
            seed: 11,
            horizon: 12,
            v: 2.5,
            beta: 0.0,
            admission_cap: None,
            checkpoint_every: 3,
            kill_at: 5,
            clauses: vec![
                Clause::Traffic {
                    t: 4,
                    job: 2,
                    count: 2.0,
                },
                Clause::Chaos("kill:actor=state_keeper,start=6,end=7".to_string()),
            ],
        }
    }

    #[test]
    fn healthy_scenario_soaks_green_through_all_legs() {
        let dir = scratch("green");
        let report = run_scenario(&small_scenario(), &dir).unwrap();
        assert_eq!(report.violation, None, "{:?}", report.violation);
        assert_eq!(report.restarts, 1, "one kill window, one restart");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_queue_update_trips_the_ledger_oracle() {
        let dir = scratch("corrupt");
        let mut sc = small_scenario();
        sc.clauses.push(Clause::Corrupt {
            slot: 6,
            delta: 5.0,
        });
        let report = run_scenario(&sc, &dir).unwrap();
        let violation = report.violation.expect("the ledger oracle must fire");
        assert_eq!(violation.oracle, OracleKind::Ledger, "{violation}");
        assert!(violation.detail.contains("slot 6"), "{violation}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn violations_are_bit_deterministic_across_runs() {
        let dir_a = scratch("det-a");
        let dir_b = scratch("det-b");
        let mut sc = small_scenario();
        sc.clauses.push(Clause::Corrupt {
            slot: 7,
            delta: 3.0,
        });
        let a = run_scenario(&sc, &dir_a).unwrap().violation;
        let b = run_scenario(&sc, &dir_b).unwrap().violation;
        assert_eq!(a, b);
        assert!(a.is_some());
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}
