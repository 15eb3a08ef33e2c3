//! `served-open-loop`: the `grefar-served` daemon under open-loop load.
//!
//! The daemon runs the paper scenario on a real 10 ms slot clock at
//! β = 100, journaling and fsyncing every submission before its ack,
//! checkpointing every 10 slots and streaming telemetry. One TCP
//! connection (`TCP_NODELAY`) carries the load: this thread writes each
//! request at its due time whatever the daemon is doing (open loop), and
//! one reader thread matches replies.
//!
//! The load is taken from the repository, not invented: it replays the
//! job arrivals of `PaperScenario` (seeded like the daemon) at the
//! daemon's own clock, one hour-slot of arrivals per 10 ms. In each slot
//! the client reads `status` once, as `grefar-soak`'s daemon client reads
//! the slot before it submits that slot's traffic, and sends one
//! submission per job class with arrivals, carrying the class's arrival
//! count. The slot's requests are due at uniform random times within the
//! slot (status first), which is how a Poisson count spreads over its
//! interval.
//!
//! Each reply is timed from its request's due send time, so a stall also
//! charges the requests queued behind it. Throughput is what the daemon
//! controls: requests served per second of the daemon's CPU time. The
//! daemon's own costs come from `/proc/<pid>` and the sizes of its files;
//! nothing inside it is traced, so the traced and untraced runs are the
//! same run.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use grefar_obs::json::{parse_object, JsonValue};
use grefar_sim::PaperScenario;

use crate::json::Json;
use crate::report::Report;
use crate::stats::{median, median_tail, percentile, sorted, spread, tail, Tail};
use crate::sys;
use crate::Settings;

/// Wall-clock length of one slot (`--clock real:10`).
const SLOT_MS: u64 = 10;
/// Submissions the state keeper may have queued before the edge sheds.
/// The load brings ~800 a second, each fsync'd before its ack. A cap of
/// 256 shed requests in one run of twenty, when a stall of the shared disk
/// outlasted ~0.3 s. This cap rides out a ~5 s stall, so shedding means
/// the daemon fell behind for good.
const QUEUE_CAP: u32 = 4096;
/// Checkpoint cadence in slots.
const CHECKPOINT_EVERY: u32 = 10;
/// Daemon start-ups timed per run (the last one is the measured daemon).
const SETUP_SAMPLES: usize = 9;
/// How often the writer samples the daemon's `/proc` entries.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);
/// Longest wait for the port file, for outstanding replies, and for the
/// daemon to exit after `drain`.
const PATIENCE: Duration = Duration::from_secs(10);
/// Share of the run's time budget the load lasts; the rest is start-ups,
/// the drain of outstanding replies and the daemon's shutdown.
const LOAD_SHARE: f64 = 0.7;
/// Replies per block whose percentiles are taken (enough for a p99 with
/// ten samples beyond it).
const BLOCK: usize = 1000;

/// The request kinds the load sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Submit,
    Status,
}

impl Op {
    fn parse(label: &str) -> Option<Op> {
        match label {
            "submit" => Some(Op::Submit),
            "status" => Some(Op::Status),
            _ => None,
        }
    }
}

/// A request awaiting its reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pending {
    pub due: Instant,
    /// Part of the timed load (the final status, sent after it, is not).
    pub load: bool,
}

/// One request of the load: when it is due after the load starts, and
/// the line that carries it.
#[derive(Debug, Clone, PartialEq)]
struct Request {
    due: Duration,
    op: Op,
    line: String,
}

/// The load: `slots` slots of the paper scenario's job arrivals for
/// `seed`, one slot per [`SLOT_MS`]. Each slot is one `status` and one
/// submission per job class with arrivals (its count the arrivals), due
/// at sorted uniform times within the slot, the status first.
fn load(seed: u64, slots: usize) -> Vec<Request> {
    let inputs = PaperScenario::default().with_seed(seed).into_inputs(slots);
    let mut draws = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut requests = Vec::new();
    for slot in 0..slots {
        let mut slot_requests = vec![(Op::Status, "{\"op\":\"status\"}\n".to_string())];
        for (job, &count) in inputs.arrivals(slot).iter().enumerate() {
            if count > 0.0 {
                let line = format!("{{\"op\":\"submit\",\"job\":{job},\"count\":{count}}}\n");
                slot_requests.push((Op::Submit, line));
            }
        }
        let mut offsets: Vec<f64> = slot_requests
            .iter()
            .map(|_| 1.0 - unit_draw(&mut draws))
            .collect();
        offsets.sort_by(f64::total_cmp);
        for ((op, line), offset) in slot_requests.into_iter().zip(offsets) {
            let ms = (slot as f64 + offset) * SLOT_MS as f64;
            requests.push(Request {
                due: Duration::from_secs_f64(ms / 1e3),
                op,
                line,
            });
        }
    }
    requests
}

/// Matches replies to requests per op kind. The state keeper answers the
/// requests forwarded to it in the order they were sent, so its replies
/// (acks, and the rejections it makes itself) take the oldest pending
/// request of their kind. The admission edge writes its own rejections
/// (`queue_full`, `unavailable`, …) the moment it reads the request —
/// overtaking acks still queued at the keeper — so those take the newest.
#[derive(Debug, Default)]
pub struct Matcher {
    submit: VecDeque<Pending>,
    status: VecDeque<Pending>,
}

/// Rejection reasons the admission edge writes without the state keeper.
fn is_edge_rejection(error: &str) -> bool {
    matches!(
        error,
        "queue_full" | "unavailable" | "parse" | "line_too_long" | "draining"
    )
}

impl Matcher {
    fn queue(&mut self, op: Op) -> &mut VecDeque<Pending> {
        match op {
            Op::Submit => &mut self.submit,
            Op::Status => &mut self.status,
        }
    }

    pub fn sent(&mut self, op: Op, request: Pending) {
        self.queue(op).push_back(request);
    }

    /// The request a reply answers; `error` is its rejection reason.
    pub fn reply(&mut self, op: Op, error: Option<&str>) -> Option<Pending> {
        let queue = self.queue(op);
        if error.is_some_and(is_edge_rejection) {
            queue.pop_back()
        } else {
            queue.pop_front()
        }
    }

    pub fn outstanding(&self) -> usize {
        self.submit.len() + self.status.len()
    }
}

/// What the reader thread learned.
#[derive(Default)]
struct Replies {
    /// `(op, latency ms)` of every accepted request of the load.
    ok: Vec<(Op, f64)>,
    queue_full: u64,
    other_errors: u64,
    unmatched: u64,
    unparsable: u64,
    acked_submits: u64,
    /// When the last accepted reply of the load arrived.
    last_ok: Option<Instant>,
    /// `(admitted, slot, received)` of the final status.
    final_status: Option<(u64, u64, Instant)>,
    drained: bool,
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    dir: PathBuf,
    addr: String,
    ready: Instant,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    fn checkpoint(&self) -> PathBuf {
        self.dir.join("checkpoint.jsonl")
    }

    /// Starts the daemon and waits for its port file. Returns it with the
    /// time from spawn until the port file named a listening address.
    fn spawn(bin: &Path, dir: &Path, seed: u64, hours: u64) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let started = Instant::now();
        let child = Command::new(bin)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--clock")
            .arg(format!("real:{SLOT_MS}"))
            .args(["--beta", "100", "--seed", &seed.to_string()])
            .args(["--hours", &hours.to_string()])
            .args(["--queue-cap", &QUEUE_CAP.to_string()])
            .arg("--checkpoint")
            .arg(dir.join("checkpoint.jsonl"))
            .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
            .arg("--telemetry")
            .arg(dir.join("telemetry.jsonl"))
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            dir: dir.to_path_buf(),
            addr: String::new(),
            ready: started,
        };
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(addr) = text.strip_suffix('\n') {
                    daemon.addr = addr.to_string();
                    daemon.ready = Instant::now();
                    return Ok((daemon, started.elapsed().as_secs_f64()));
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if started.elapsed() > PATIENCE {
                return Err("daemon wrote no port file".to_string());
            }
            thread::sleep(Duration::from_micros(200));
        }
    }

    /// Waits for the daemon to exit on its own.
    fn wait_exit(&mut self) -> Result<std::process::ExitStatus, String> {
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                Ok(None) => return Err("daemon did not exit after drain".to_string()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }
}

/// Locates `grefar-served` next to this executable (both land in the same
/// cargo target directory).
fn daemon_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("grefar-served");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found; build it with `cargo build --release -p grefar-served` \
             into the same target directory",
            bin.display()
        ))
    }
}

/// The reader thread: parses and matches every reply line.
fn read_replies(stream: TcpStream, matcher: Arc<Mutex<Matcher>>, stop: Arc<AtomicBool>) -> Replies {
    let mut replies = Replies::default();
    let mut reader = BufReader::new(stream);
    // A read that times out keeps what it read of a line in `line`; the
    // next read completes it.
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        let received = Instant::now();
        let text = std::mem::take(&mut line);
        let Ok(object) = parse_object(text.trim()) else {
            replies.unparsable += 1;
            continue;
        };
        let label = object.get("op").and_then(JsonValue::as_str).unwrap_or("");
        if label == "drain" {
            replies.drained = true;
            continue;
        }
        let ok = object.get("ok").and_then(JsonValue::as_bool) == Some(true);
        let error = object.get("error").and_then(JsonValue::as_str);
        let matched = Op::parse(label).and_then(|op| {
            let request = matcher.lock().ok()?.reply(op, error);
            request.map(|r| (op, r))
        });
        let Some((op, request)) = matched else {
            replies.unmatched += 1;
            continue;
        };
        if !ok {
            match error {
                Some("queue_full") => replies.queue_full += 1,
                _ => replies.other_errors += 1,
            }
            continue;
        }
        if op == Op::Submit {
            replies.acked_submits += 1;
        }
        if request.load {
            let ms = received
                .saturating_duration_since(request.due)
                .as_secs_f64()
                * 1e3;
            replies.ok.push((op, ms));
            replies.last_ok = Some(received);
        } else {
            let field = |key: &str| object.get(key).and_then(JsonValue::as_f64).unwrap_or(-1.0);
            replies.final_status = Some((field("admitted") as u64, field("slot") as u64, received));
        }
    }
    replies
}

/// What the writer measured about the daemon while it sent.
#[derive(Default)]
struct Samples {
    threads: u64,
    late_ms: Vec<f64>,
    sent: u64,
    /// When the load's first request was due.
    started: Option<Instant>,
}

/// A uniform draw in (0, 1] from a splitmix64 stream.
fn unit_draw(state: &mut u64) -> f64 {
    ((grefar_faults::splitmix64(state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// The open-loop writer: sends every request of the load at its due time.
fn drive(
    daemon: &Daemon,
    writer: &mut TcpStream,
    matcher: &Mutex<Matcher>,
    requests: &[Request],
) -> Result<Samples, String> {
    let pid = daemon.child.id();
    let mut samples = Samples::default();
    let mut last_sample = Instant::now();
    let start = Instant::now();
    samples.started = Some(start);
    for request in requests {
        let due = start + request.due;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        matcher
            .lock()
            .map_err(|_| "matcher lock poisoned")?
            .sent(request.op, Pending { due, load: true });
        samples
            .late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        writer
            .write_all(request.line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        samples.sent += 1;
        if last_sample.elapsed() >= SAMPLE_EVERY {
            last_sample = Instant::now();
            let threads = sys::status_field(Some(pid), "Threads").unwrap_or(0);
            samples.threads = samples.threads.max(threads);
        }
    }
    Ok(samples)
}

/// What the load left behind, read before and after the daemon drained.
struct Exercise {
    samples: Samples,
    /// The daemon's CPU time (user + system) over the load and the drain
    /// of its replies, in microseconds.
    cpu_us: f64,
    peak_rss: Option<f64>,
    journal_bytes: u64,
    checkpoint_bytes: u64,
    exit: Result<std::process::ExitStatus, String>,
}

/// Sends the load, waits for its replies, samples the daemon's footprint,
/// then asks for a final status and a graceful drain.
fn exercise(
    daemon: &mut Daemon,
    writer: &mut TcpStream,
    matcher: &Mutex<Matcher>,
    requests: &[Request],
) -> Result<Exercise, String> {
    let pid = daemon.child.id();
    let cpu_start = sys::cpu_us(pid).ok_or("cannot read the daemon's CPU time")?;
    let samples = drive(daemon, writer, matcher, requests)?;
    let deadline = Instant::now() + PATIENCE;
    while matcher
        .lock()
        .map_err(|_| "matcher lock poisoned")?
        .outstanding()
        > 0
        && Instant::now() < deadline
    {
        thread::sleep(Duration::from_millis(2));
    }
    let cpu_us = sys::cpu_us(pid).ok_or("cannot read the daemon's CPU time")? - cpu_start;
    let peak_rss = sys::peak_rss_mib(Some(daemon.child.id()));
    let journal_bytes = journal_bytes(&daemon.dir);
    let checkpoint_bytes = sys::file_size(&daemon.checkpoint());
    let final_status = Pending {
        due: Instant::now(),
        load: false,
    };
    matcher
        .lock()
        .map_err(|_| "matcher lock poisoned")?
        .sent(Op::Status, final_status);
    writer
        .write_all(b"{\"op\":\"status\"}\n{\"op\":\"drain\"}\n")
        .map_err(|e| format!("send: {e}"))?;
    Ok(Exercise {
        samples,
        cpu_us,
        peak_rss,
        journal_bytes,
        checkpoint_bytes,
        exit: daemon.wait_exit(),
    })
}

/// Runs the workload: timed start-ups, then the open-loop load against
/// the last daemon started.
pub fn run(s: &Settings, traced: bool) -> Result<Report, String> {
    let mut report = Report::new("served-open-loop", traced);
    let bin = daemon_binary()?;
    let hours = 2400u64.max((120.0 * s.seconds).ceil() as u64);
    let slots = (LOAD_SHARE * s.seconds * 1e3 / SLOT_MS as f64).round() as usize;
    let requests = load(s.seed, slots.max(1));

    let mut setup_s = Vec::new();
    for i in 0..SETUP_SAMPLES - 1 {
        let dir = s.scratch.join(format!("setup-{i}"));
        let (daemon, took) = Daemon::spawn(&bin, &dir, s.seed, hours)?;
        setup_s.push(took);
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (mut daemon, took) = Daemon::spawn(&bin, &s.scratch.join("daemon"), s.seed, hours)?;
    setup_s.push(took);

    let stream = TcpStream::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let matcher = Arc::new(Mutex::new(Matcher::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let matcher = Arc::clone(&matcher);
        let stop = Arc::clone(&stop);
        thread::spawn(move || read_replies(stream, matcher, stop))
    };

    // The reader is stopped and joined whether or not the load succeeded.
    let outcome = exercise(&mut daemon, &mut writer, &matcher, &requests);
    stop.store(true, Ordering::SeqCst);
    let replies = reader.join().map_err(|_| "reply reader panicked")?;
    let Exercise {
        samples,
        cpu_us,
        peak_rss,
        journal_bytes,
        checkpoint_bytes,
        exit,
    } = outcome?;
    let unanswered = matcher
        .lock()
        .map_err(|_| "matcher lock poisoned")?
        .outstanding() as u64;

    let sent = samples.sent;
    let failed = replies.queue_full + replies.other_errors + unanswered + replies.unmatched;
    report.operations(sent, failed);
    report.check(
        "replies",
        failed == 0 && replies.unparsable == 0,
        format!(
            "{sent} requests: {} ok, {} queue_full, {} other errors, {unanswered} unanswered, \
             {} unmatched, {} unparsable replies",
            replies.ok.len(),
            replies.queue_full,
            replies.other_errors,
            replies.unmatched,
            replies.unparsable
        ),
    );
    match replies.final_status {
        Some((admitted, _, _)) => report.check(
            "admitted",
            admitted == replies.acked_submits,
            format!(
                "status.admitted {admitted} equals the {} acked submissions",
                replies.acked_submits
            ),
        ),
        None => report.check("admitted", false, "no reply to the final status"),
    }
    match exit {
        Ok(status) => report.check(
            "drain",
            status.success() && replies.drained,
            format!("daemon drained and exited with {status}"),
        ),
        Err(e) => report.check("drain", false, e),
    }

    let latency_ms = |op: Op| -> Vec<f64> {
        sorted(
            &replies
                .ok
                .iter()
                .filter(|(o, _)| *o == op)
                .map(|(_, ms)| *ms)
                .collect::<Vec<_>>(),
        )
    };
    // Goodput: accepted replies over the time from the first due send to
    // the last accepted reply. It follows the offered rate unless the
    // daemon falls behind, so it is a validity number, not a capacity.
    let goodput = match (samples.started, replies.last_ok) {
        (Some(start), Some(end)) if end > start => {
            replies.ok.len() as f64 / (end - start).as_secs_f64()
        }
        _ => 0.0,
    };
    let offered = requests
        .last()
        .map_or(0.0, |r| sent as f64 / r.due.as_secs_f64());
    // Operation latency over every request of the load, as medians over
    // consecutive blocks of replies, so one burst of interference (or one
    // slow checkpoint) does not set the run's value.
    let load_us: Vec<f64> = replies.ok.iter().map(|(_, ms)| ms * 1e3).collect();
    let blocks: Vec<Vec<f64>> = if load_us.len() >= BLOCK {
        load_us.chunks_exact(BLOCK).map(sorted).collect()
    } else {
        vec![sorted(&load_us)]
    };
    let p50s: Vec<f64> = blocks.iter().filter_map(|b| percentile(b, 50.0)).collect();
    let tails: Vec<Tail> = blocks.iter().filter_map(|b| tail(b)).collect();
    if traced {
        report.set_tail("latency_us_p99", median_tail(&tails), s.smoke);
        report.set("served.cpu_us_per_req", cpu_us / sent.max(1) as f64);
        report.set("served.threads", samples.threads as f64);
        report.set("served.journal_bytes", journal_bytes as f64);
        report.set("served.checkpoint_bytes", checkpoint_bytes as f64);
        report.set("served.reject.queue_full", replies.queue_full as f64);
        report.set("served.reject.other", replies.other_errors as f64);
        if let Some((_, slot, at)) = replies.final_status {
            let expected =
                at.saturating_duration_since(daemon.ready).as_millis() as f64 / SLOT_MS as f64;
            report.set("served.slot_lag", expected.floor() - slot as f64);
        }
        for (op, p50, p99) in [
            (Op::Submit, "served.submit_ms_p50", "served.submit_ms_p99"),
            (Op::Status, "served.status_ms_p50", "served.status_ms_p99"),
        ] {
            let v = latency_ms(op);
            report.set(p50, percentile(&v, 50.0).unwrap_or(0.0));
            report.set(p99, tail(&v).map_or(0.0, |t| t.value));
        }
        report.set("served.offered_rps", offered);
        report.set("served.goodput_rps", goodput);
        let late = sorted(&samples.late_ms);
        report.set("gen.late_ms_p99", tail(&late).map_or(0.0, |t| t.value));
        report.set("gen.late_ms_max", late.last().copied().unwrap_or(0.0));
    } else {
        report.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
        // Capacity the daemon controls: requests served per second of its
        // own CPU time (every thread, user and system) while it served them.
        report.set("throughput_per_s", sent as f64 / (cpu_us / 1e6));
        report.set("latency_us_p50", median(&p50s).unwrap_or(f64::NAN));
        report.set(
            "peak_rss_mib",
            peak_rss.ok_or("cannot read the daemon's VmHWM")?,
        );
        report.note_tail("latency_us_p99", median_tail(&tails));
        // One daemon life per run: its blocks differ by design (later
        // checkpoints are larger), so they give no within-run spread for
        // the latency, and one life none for the throughput.
        report.note("spread", Json::obj().with("setup_s", spread(&setup_s)));
        report.note("setup_samples", setup_s.len());
        report.note("offered_rps", offered);
        report.note("goodput_rps", goodput);
    }
    let submits = requests.iter().filter(|r| r.op == Op::Submit).count();
    report.note("latency_blocks", blocks.len());
    report.note("requests", sent);
    report.note(
        "load",
        Json::obj()
            .with("slots", slots)
            .with("submits", submits)
            .with("status", requests.len() - submits)
            .with("seconds", LOAD_SHARE * s.seconds),
    );
    drop(daemon);
    Ok(report)
}

/// Bytes in the admission journal and its rotated segments.
fn journal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with("checkpoint.jsonl.journal")
            })
            .map(|e| e.metadata().map_or(0, |m| m.len()))
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_draws_stay_in_the_open_unit_interval() {
        let mut state = 7;
        let draws: Vec<f64> = (0..10_000).map(|_| unit_draw(&mut state)).collect();
        assert!(draws.iter().all(|&u| u > 0.0 && u <= 1.0));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }

    #[test]
    fn load_replays_the_scenario_arrivals_slot_by_slot() {
        let slots = 48;
        let requests = load(5, slots);
        assert_eq!(requests, load(5, slots));
        assert_ne!(requests, load(6, slots));
        let inputs = PaperScenario::default().with_seed(5).into_inputs(slots);
        let slot_of = |r: &Request| (r.due.as_secs_f64() * 1e3 / SLOT_MS as f64) as usize;
        assert!(requests.windows(2).all(|w| w[0].due <= w[1].due));
        for slot in 0..slots {
            let in_slot: Vec<&Request> = requests.iter().filter(|r| slot_of(r) == slot).collect();
            assert_eq!(in_slot[0].op, Op::Status);
            assert!(in_slot[1..].iter().all(|r| r.op == Op::Submit));
            let jobs: f64 = in_slot[1..]
                .iter()
                .map(|r| {
                    let object = parse_object(r.line.trim()).unwrap();
                    object.get("count").and_then(JsonValue::as_f64).unwrap()
                })
                .sum();
            assert_eq!(jobs, inputs.arrivals(slot).iter().sum::<f64>());
            let classes = inputs.arrivals(slot).iter().filter(|&&a| a > 0.0).count();
            assert_eq!(in_slot.len(), 1 + classes);
        }
    }

    #[test]
    fn edge_rejection_overtaking_pending_acks_takes_the_newest_request() {
        let t0 = Instant::now();
        let at = |ms: u64| Pending {
            due: t0 + Duration::from_millis(ms),
            load: true,
        };
        let mut m = Matcher::default();
        m.sent(Op::Submit, at(0));
        m.sent(Op::Status, at(1));
        m.sent(Op::Submit, at(2));
        m.sent(Op::Submit, at(3));
        // The keeper is behind: the edge sheds the newest submission first,
        // and its rejection arrives before any ack.
        assert_eq!(m.reply(Op::Submit, Some("queue_full")), Some(at(3)));
        // Keeper replies keep send order within their op kind, whatever
        // the interleaving of kinds.
        assert_eq!(m.reply(Op::Status, None), Some(at(1)));
        assert_eq!(m.reply(Op::Submit, None), Some(at(0)));
        // A rejection the keeper makes itself is in send order too.
        assert_eq!(m.reply(Op::Submit, Some("invalid")), Some(at(2)));
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.reply(Op::Status, None), None);
    }
}
