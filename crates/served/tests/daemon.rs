//! End-to-end tests of the `grefar-served` binary: the wire protocol, the
//! `kill -9` → `--resume` continuation (after every ack of a scripted
//! session, and while the telemetry actor stalls, too), a fresh start over
//! an earlier session's state files,
//! chaos-driven actor restarts (the admission actor's under live
//! connections too, requests or events queued while an actor restarts,
//! and windows that open in the slot of a state-keeper kill), socket-drop
//! windows, teardown with idle clients connected, and the supervisor's
//! give-up escalation. Every daemon is spawned through [`Daemon`], so a
//! failing test leaves no process behind.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_grefar-served")
}

/// A spawned daemon that is killed and reaped when dropped, so a test
/// that fails before the daemon exits leaves no process behind.
struct Daemon(Child);

fn spawn(cmd: &mut Command) -> Daemon {
    Daemon(cmd.spawn().unwrap())
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Both are no-ops once the daemon has been reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Deref for Daemon {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

/// A fresh scratch directory per test (parallel tests must not collide).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grefar-served-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Polls the `--port-file` until the daemon has written its address.
fn wait_addr(port_file: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            let addr = text.trim();
            if !addr.is_empty() {
                return addr.to_string();
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never wrote {port_file:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_exit(child: &mut Child) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(Instant::now() < deadline, "daemon did not exit");
        std::thread::sleep(Duration::from_millis(20));
    }
}

struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Session {
    fn connect(addr: &str) -> Self {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Err(e) => panic!("cannot connect to {addr}: {e}"),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Session {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Sends one request line, returns the one reply line.
    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        assert!(!reply.is_empty(), "connection closed after {line:?}");
        reply.trim().to_string()
    }
}

/// The deterministic slice of a telemetry stream: the events the schedule
/// itself emits, with the wall-clock field stripped (`grefar-report diff`
/// applies the same filters).
fn schedule_events(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| {
            [
                "\"event\":\"run.start\"",
                "\"event\":\"slot\"",
                "\"event\":\"run.end\"",
            ]
            .iter()
            .any(|tag| l.contains(tag))
        })
        .map(|l| {
            // "wall_us":N is always the trailing field of slot/run.end.
            match l.find(",\"wall_us\":") {
                Some(cut) => format!("{}}}", &l[..cut]),
                None => l.to_string(),
            }
        })
        .collect()
}

/// The unsigned integer field `key` of a flat JSON reply line.
fn field(reply: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let start = reply
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {reply}"))
        + tag.len();
    let digits: String = reply[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {reply}"))
}

fn count_lines_with(path: &Path, needles: &[&str]) -> usize {
    std::fs::read_to_string(path)
        .map(|text| {
            text.lines()
                .filter(|l| needles.iter().all(|needle| l.contains(needle)))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn manual_clock_session_drains_cleanly() {
    let dir = scratch("drain");
    let port_file = dir.join("port");
    let telemetry = dir.join("tele.jsonl");
    let mut daemon = spawn(
        Command::new(bin())
            .args(["--hours", "6", "--clock", "manual", "--seed", "42"])
            .arg("--telemetry")
            .arg(&telemetry)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null()),
    );
    let addr = wait_addr(&port_file);
    let mut session = Session::connect(&addr);

    let accept = session.request("{\"op\":\"submit\",\"job\":0,\"count\":2}");
    assert!(accept.contains("\"ok\":true"), "{accept}");
    assert!(accept.contains("\"seq\":0"), "{accept}");

    let advanced = session.request("{\"op\":\"advance\",\"slots\":2}");
    assert!(advanced.contains("\"slot\":2"), "{advanced}");

    let status = session.request("{\"op\":\"status\"}");
    assert!(status.contains("\"admitted\":1"), "{status}");
    assert!(status.contains("\"horizon\":6"), "{status}");

    // Fractional counts are refused at the protocol edge.
    let reject = session.request("{\"op\":\"submit\",\"job\":0,\"count\":0.5}");
    assert!(reject.contains("\"error\":\"bad_request\""), "{reject}");

    let drain = session.request("{\"op\":\"drain\"}");
    assert!(drain.contains("\"draining\":true"), "{drain}");

    let status = wait_exit(&mut daemon);
    assert_eq!(status.code(), Some(0), "drain must exit 0");
    let text = std::fs::read_to_string(&telemetry).unwrap();
    assert!(text.contains("\"event\":\"served.start\""), "{text}");
    assert!(text.contains("\"event\":\"admission.accept\""), "{text}");
    assert!(text.contains("\"event\":\"run.end\""), "{text}");
    assert!(text.contains("\"event\":\"served.stop\""), "{text}");
}

#[test]
fn kill_nine_then_resume_continues_bit_identically() {
    let dir = scratch("resume");
    let run = |tag: &str| {
        let port_file = dir.join(format!("{tag}.port"));
        let telemetry = dir.join(format!("{tag}.jsonl"));
        let checkpoint = dir.join(format!("{tag}.ck"));
        let mut cmd = Command::new(bin());
        cmd.args(["--hours", "8", "--clock", "manual", "--seed", "7"])
            .arg("--telemetry")
            .arg(&telemetry)
            .arg("--checkpoint")
            .arg(&checkpoint)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null());
        (cmd, port_file, telemetry)
    };

    // Reference: one uninterrupted session.
    let (mut cmd, port_file, reference_tele) = run("ref");
    let mut daemon = spawn(&mut cmd);
    let mut session = Session::connect(&wait_addr(&port_file));
    session.request("{\"op\":\"submit\",\"job\":1,\"count\":3}");
    let advanced = session.request("{\"op\":\"advance\",\"slots\":8}");
    assert!(advanced.contains("\"done\":true"), "{advanced}");
    assert_eq!(wait_exit(&mut daemon).code(), Some(0));

    // Interrupted: same submissions, kill -9 mid-run, resume, finish.
    let (mut cmd, port_file, interrupted_tele) = run("cut");
    let mut daemon = spawn(&mut cmd);
    let mut session = Session::connect(&wait_addr(&port_file));
    session.request("{\"op\":\"submit\",\"job\":1,\"count\":3}");
    let advanced = session.request("{\"op\":\"advance\",\"slots\":3}");
    assert!(advanced.contains("\"slot\":3"), "{advanced}");
    daemon.kill().unwrap(); // SIGKILL: no drain, no flush
    daemon.wait().unwrap();

    let (mut cmd, port_file, _) = run("cut");
    std::fs::remove_file(&port_file).unwrap();
    cmd.arg("--resume");
    let mut daemon = spawn(&mut cmd);
    let mut session = Session::connect(&wait_addr(&port_file));
    let status = session.request("{\"op\":\"status\"}");
    assert!(status.contains("\"slot\":3"), "resume position: {status}");
    let advanced = session.request("{\"op\":\"advance\",\"slots\":5}");
    assert!(advanced.contains("\"done\":true"), "{advanced}");
    assert_eq!(wait_exit(&mut daemon).code(), Some(0));

    // The merged interrupted stream carries the same schedule as the
    // uninterrupted one.
    let reference = schedule_events(&reference_tele);
    let merged = schedule_events(&interrupted_tele);
    assert_eq!(reference.len(), 10, "run.start + 8 slots + run.end");
    assert_eq!(reference, merged, "resume must continue bit-identically");
}

/// The scripted session of the kill-anywhere oracle: submits before,
/// between and after the checkpoint cuts at slots 2, 4 and 6.
const ACK_SCRIPT: [&str; 10] = [
    "{\"op\":\"submit\",\"job\":0,\"count\":2}",
    "{\"op\":\"advance\",\"slots\":2}",
    "{\"op\":\"submit\",\"job\":1,\"count\":3}",
    "{\"op\":\"submit\",\"job\":5,\"count\":1}",
    "{\"op\":\"advance\",\"slots\":1}",
    "{\"op\":\"submit\",\"job\":2,\"count\":2}",
    "{\"op\":\"advance\",\"slots\":1}",
    "{\"op\":\"submit\",\"job\":7,\"count\":4}",
    "{\"op\":\"advance\",\"slots\":2}",
    "{\"op\":\"submit\",\"job\":3,\"count\":1}",
];
/// `ACK_SCRIPT[FIRST_CUT]`'s ack is the first one sent after a cut.
const FIRST_CUT: usize = 1;
const ACK_HORIZON: u64 = 10;

#[test]
fn kill_nine_after_any_ack_loses_no_acked_submit() {
    let dir = scratch("every-ack");
    let daemon = |tag: &str, resume: bool| {
        let port_file = dir.join(format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let telemetry = dir.join(format!("{tag}.jsonl"));
        let mut cmd = Command::new(bin());
        cmd.arg("--hours")
            .arg(ACK_HORIZON.to_string())
            .args([
                "--clock",
                "manual",
                "--seed",
                "11",
                "--checkpoint-every",
                "2",
            ])
            .arg("--checkpoint")
            .arg(dir.join(format!("{tag}.ck")))
            .arg("--telemetry")
            .arg(&telemetry)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null());
        if resume {
            cmd.arg("--resume");
        }
        let child = spawn(&mut cmd);
        let session = Session::connect(&wait_addr(&port_file));
        (child, session, telemetry)
    };
    // Plays a script prefix, checking that every submit is acked.
    let play = |session: &mut Session, prefix: &[&str]| {
        for line in prefix {
            let reply = session.request(line);
            assert!(reply.contains("\"ok\":true"), "{line} -> {reply}");
        }
    };
    let finish = |mut child: Daemon, session: &mut Session, from: u64| {
        let advance = format!("{{\"op\":\"advance\",\"slots\":{}}}", ACK_HORIZON - from);
        let reply = session.request(&advance);
        assert!(reply.contains("\"done\":true"), "{reply}");
        assert_eq!(wait_exit(&mut child).code(), Some(0));
    };

    for last in FIRST_CUT..ACK_SCRIPT.len() {
        let prefix = &ACK_SCRIPT[..=last];
        let slot: u64 = prefix
            .iter()
            .filter(|line| line.contains("advance"))
            .map(|line| field(line, "slots"))
            .sum();

        let (child, mut session, reference) = daemon(&format!("ref{last}"), false);
        play(&mut session, prefix);
        finish(child, &mut session, slot);

        // SIGKILL right after the ack: no drain, no flush.
        let tag = format!("cut{last}");
        let (mut child, mut session, merged) = daemon(&tag, false);
        play(&mut session, prefix);
        child.kill().unwrap();
        child.wait().unwrap();
        let (child, mut session, _) = daemon(&tag, true);
        let resumed = field(&session.request("{\"op\":\"status\"}"), "slot");
        assert!(resumed <= slot, "resumed at {resumed}, killed at {slot}");
        finish(child, &mut session, resumed);

        let reference = schedule_events(&reference);
        let slots = ACK_HORIZON as usize;
        assert_eq!(reference.len(), slots + 2, "run.start + slots + run.end");
        assert_eq!(
            schedule_events(&merged),
            reference,
            "a kill -9 after the ack of {:?} lost acknowledged work",
            ACK_SCRIPT[last]
        );
    }
}

#[test]
fn kill_nine_after_a_cut_loses_no_event_of_a_stalled_telemetry_actor() {
    // The telemetry actor sleeps from slot 1 on with slot 1's events
    // queued behind the stall; the cut at slot 2 must not become durable
    // (and the advance must not be acked) before they are written, or the
    // SIGKILL right after the ack loses them: `--resume` re-emits slots 2
    // and later only.
    let dir = scratch("stalled-cut");
    let daemon = |tag: &str, resume: bool| {
        let port_file = dir.join(format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let telemetry = dir.join(format!("{tag}.jsonl"));
        let mut cmd = Command::new(bin());
        cmd.args(["--hours", "6", "--clock", "manual", "--seed", "13"])
            .args(["--checkpoint-every", "2"])
            .args(["--chaos", "stall:actor=telemetry,ms=600,start=1,end=2"])
            .arg("--checkpoint")
            .arg(dir.join(format!("{tag}.ck")))
            .arg("--telemetry")
            .arg(&telemetry)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null());
        if resume {
            cmd.arg("--resume");
        }
        let child = spawn(&mut cmd);
        let session = Session::connect(&wait_addr(&port_file));
        (child, session, telemetry)
    };

    let (mut child, mut session, reference) = daemon("ref", false);
    let done = session.request("{\"op\":\"advance\",\"slots\":6}");
    assert!(done.contains("\"done\":true"), "{done}");
    assert_eq!(wait_exit(&mut child).code(), Some(0));

    let (mut child, mut session, merged) = daemon("cut", false);
    let acked = session.request("{\"op\":\"advance\",\"slots\":3}");
    assert!(acked.contains("\"slot\":3"), "{acked}");
    child.kill().unwrap(); // SIGKILL inside the stall window
    child.wait().unwrap();
    let (mut child, mut session, _) = daemon("cut", true);
    let resumed = field(&session.request("{\"op\":\"status\"}"), "slot");
    assert_eq!(resumed, 2, "resumed from the cut at slot 2");
    let done = session.request("{\"op\":\"advance\",\"slots\":4}");
    assert!(done.contains("\"done\":true"), "{done}");
    assert_eq!(wait_exit(&mut child).code(), Some(0));

    let reference = schedule_events(&reference);
    assert_eq!(reference.len(), 8, "run.start + 6 slots + run.end");
    assert_eq!(schedule_events(&merged), reference);
}

#[test]
fn fresh_start_discards_an_earlier_sessions_checkpoint_and_journal() {
    let dir = scratch("stale");
    let session = |seed: &str, checkpoint: &Path, extra: &[&str], telemetry: Option<&Path>| {
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(bin());
        cmd.args(["--hours", "12", "--clock", "turbo", "--seed", seed])
            .arg("--checkpoint")
            .arg(checkpoint)
            .args(extra)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(path) = telemetry {
            cmd.arg("--telemetry").arg(path);
        }
        let mut daemon = spawn(&mut cmd);
        wait_addr(&port_file);
        assert_eq!(wait_exit(&mut daemon).code(), Some(0), "seed {seed}");
    };
    // The state keeper dies before the session's first cut, so its
    // restart reloads whatever checkpoint the path holds.
    let chaos = [
        "--checkpoint-every",
        "100",
        "--backoff-ms",
        "1",
        "--chaos",
        "kill:actor=state_keeper,start=3,end=4",
    ];

    // An earlier session on another seed leaves its checkpoint behind.
    let stale = dir.join("stale.ck");
    session("9", &stale, &["--checkpoint-every", "4"], None);
    assert!(stale.exists());

    let stale_tele = dir.join("stale.jsonl");
    session("7", &stale, &chaos, Some(&stale_tele));
    let clean_tele = dir.join("clean.jsonl");
    session("7", &dir.join("clean.ck"), &chaos, Some(&clean_tele));

    let clean = schedule_events(&clean_tele);
    assert_eq!(clean.len(), 14, "run.start + 12 slots + run.end");
    assert_eq!(
        schedule_events(&stale_tele),
        clean,
        "a fresh start must not resume an earlier session's state"
    );
}

#[test]
fn chaos_kills_restart_actors_and_the_run_completes() {
    let dir = scratch("chaos");
    let port_file = dir.join("port");
    let telemetry = dir.join("tele.jsonl");
    let checkpoint = dir.join("ck");
    // Every inbox outlives its actor's incarnations, so a restart event
    // queued behind a telemetry kill is written by the next incarnation;
    // the kills are spread over the run so each restart arm runs alone.
    let mut daemon = spawn(
        Command::new(bin())
            .args(["--hours", "10", "--clock", "turbo", "--seed", "3"])
            .args(["--backoff-ms", "1"])
            .args([
                "--chaos",
                "kill:actor=telemetry,start=2,end=3;\
                 kill:actor=admission,start=4,end=5;\
                 kill:actor=state_keeper,start=6,end=7;\
                 stall:actor=admission,ms=1,start=7,end=8",
            ])
            .arg("--telemetry")
            .arg(&telemetry)
            .arg("--checkpoint")
            .arg(&checkpoint)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null()),
    );
    wait_addr(&port_file);
    assert_eq!(
        wait_exit(&mut daemon).code(),
        Some(0),
        "a supervised run rides out its chaos plan"
    );
    for actor in ["telemetry", "admission", "state_keeper"] {
        assert_eq!(
            count_lines_with(
                &telemetry,
                &[
                    "\"event\":\"served.restart\"",
                    &format!("\"actor\":\"{actor}\"")
                ],
            ),
            1,
            "the {actor} kill leaves exactly one served.restart"
        );
    }
    assert_eq!(
        count_lines_with(&telemetry, &["\"event\":\"run.end\""]),
        1,
        "the run still completes exactly once"
    );
}

#[test]
fn windows_opening_in_the_slot_of_a_state_keeper_kill_still_fire() {
    let dir = scratch("same-slot-chaos");
    let port_file = dir.join("port");
    let telemetry = dir.join("tele.jsonl");
    // The keeper's kill panics before the telemetry kill listed after it
    // in the same slot has run; the replacement, replaying slot 23, must
    // still fire it (grefar-soak seed 42, shrunk to these two clauses).
    let mut daemon = spawn(
        Command::new(bin())
            .args(["--hours", "30", "--clock", "turbo", "--seed", "3"])
            .args(["--backoff-ms", "1"])
            .args([
                "--chaos",
                "kill:actor=state_keeper,start=23,end=24;kill:actor=telemetry,start=23,end=24",
            ])
            .arg("--telemetry")
            .arg(&telemetry)
            .arg("--checkpoint")
            .arg(dir.join("ck"))
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null()),
    );
    wait_addr(&port_file);
    assert_eq!(wait_exit(&mut daemon).code(), Some(0));
    for actor in ["state_keeper", "telemetry"] {
        assert_eq!(
            count_lines_with(
                &telemetry,
                &[
                    "\"event\":\"served.restart\"",
                    &format!("\"actor\":\"{actor}\"")
                ],
            ),
            1,
            "the {actor} kill at slot 23 leaves exactly one served.restart"
        );
    }
}

#[test]
fn a_request_queued_behind_a_state_keeper_kill_is_answered_by_the_replacement() {
    let dir = scratch("keeper-inbox");
    let port_file = dir.join("port");
    let telemetry = dir.join("tele.jsonl");
    let mut daemon = spawn(
        Command::new(bin())
            .args(["--clock", "manual", "--hours", "6", "--backoff-ms", "500"])
            .args(["--chaos", "kill:actor=state_keeper,start=2,end=3"])
            .arg("--telemetry")
            .arg(&telemetry)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null()),
    );
    let mut session = Session::connect(&wait_addr(&port_file));
    session
        .writer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // One write: the status waits in the state keeper's inbox behind the
    // advance that kills it at slot 2. The advance's reply dies with its
    // incarnation; the status is the replacement's to answer.
    session
        .writer
        .write_all(b"{\"op\":\"advance\",\"slots\":3}\n{\"op\":\"status\"}\n")
        .unwrap();
    let mut reply = String::new();
    session
        .reader
        .read_line(&mut reply)
        .expect("a reply within 10 s");
    assert!(reply.contains("\"op\":\"status\""), "{reply}");
    assert_eq!(field(&reply, "slot"), 2, "{reply}");

    let drain = session.request("{\"op\":\"drain\"}");
    assert!(drain.contains("\"draining\":true"), "{drain}");
    assert_eq!(wait_exit(&mut daemon).code(), Some(0));
    assert_eq!(
        count_lines_with(
            &telemetry,
            &["\"event\":\"served.restart\"", "\"actor\":\"state_keeper\""],
        ),
        1,
        "the state-keeper kill leaves exactly one served.restart"
    );
}

#[test]
fn a_telemetry_kill_loses_no_event_and_holds_the_run_until_the_replacement() {
    let dir = scratch("telemetry-kill");
    // With a 200 ms backoff the turbo run would reach its horizon while
    // telemetry is down, unless the state keeper waits for the replacement.
    let session = |tag: &str, chaos: &[&str]| {
        let port_file = dir.join(format!("{tag}.port"));
        let telemetry = dir.join(format!("{tag}.jsonl"));
        let mut daemon = spawn(
            Command::new(bin())
                .args(["--hours", "40", "--clock", "turbo", "--seed", "3"])
                .args(["--backoff-ms", "200"])
                .args(chaos)
                .arg("--telemetry")
                .arg(&telemetry)
                .arg("--port-file")
                .arg(&port_file)
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
        );
        wait_addr(&port_file);
        assert_eq!(wait_exit(&mut daemon).code(), Some(0), "{tag}");
        telemetry
    };
    let plain = session("plain", &[]);
    let killed = session("killed", &["--chaos", "kill:actor=telemetry,start=5,end=6"]);

    let reference = schedule_events(&plain);
    assert_eq!(reference.len(), 42, "run.start + 40 slots + run.end");
    assert_eq!(schedule_events(&killed), reference);
    assert_eq!(
        count_lines_with(
            &killed,
            &["\"event\":\"served.restart\"", "\"actor\":\"telemetry\""],
        ),
        1,
        "the telemetry kill leaves exactly one served.restart"
    );
    let text = std::fs::read_to_string(&killed).unwrap();
    let restart = text.find("\"event\":\"served.restart\"").unwrap();
    let slot = text.find("\"event\":\"slot\",\"t\":5,").unwrap();
    assert!(restart < slot, "served.restart precedes slot 5's event");
}

#[test]
fn killed_admission_actor_comes_back_and_serves_new_connections() {
    let dir = scratch("admission-kill");
    let port_file = dir.join("port");
    let telemetry = dir.join("tele.jsonl");
    let mut daemon = spawn(
        Command::new(bin())
            .args(["--hours", "6", "--clock", "manual", "--seed", "8"])
            .args(["--backoff-ms", "1"])
            .args(["--chaos", "kill:actor=admission,start=2,end=3"])
            .arg("--telemetry")
            .arg(&telemetry)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null()),
    );
    let addr = wait_addr(&port_file);

    // The kill lands inside this advance, so the connection dies with the
    // incarnation that owns it; the reply may or may not get out first.
    let mut first = Session::connect(&addr);
    writeln!(first.writer, "{{\"op\":\"advance\",\"slots\":3}}").unwrap();
    let mut rest = String::new();
    first.reader.read_to_string(&mut rest).unwrap();
    assert!(
        rest.is_empty() || rest.contains("\"slot\":3"),
        "only the advance reply may precede EOF: {rest}"
    );

    // The replacement owns the listener: a new connection is served.
    let mut second = Session::connect(&addr);
    let status = second.request("{\"op\":\"status\"}");
    assert!(status.contains("\"slot\":3"), "{status}");
    let drain = second.request("{\"op\":\"drain\"}");
    assert!(drain.contains("\"draining\":true"), "{drain}");
    assert_eq!(wait_exit(&mut daemon).code(), Some(0));

    assert_eq!(
        count_lines_with(
            &telemetry,
            &["\"event\":\"served.restart\"", "\"actor\":\"admission\""],
        ),
        1,
        "the admission kill leaves exactly one served.restart"
    );
    assert_eq!(
        count_lines_with(&telemetry, &["\"event\":\"run.end\""]),
        1,
        "the run still completes exactly once"
    );
}

#[test]
fn sockdrop_window_severs_open_connections_and_refuses_new_ones() {
    // On the manual clock a window would never close: its flag clears
    // only when the next slot runs, and a severed client cannot ask for
    // that slot. The real clock runs it.
    let dir = scratch("sockdrop");
    let port_file = dir.join("port");
    let mut daemon = spawn(
        Command::new(bin())
            .args(["--hours", "400", "--clock", "real:20", "--seed", "6"])
            .args(["--chaos", "sockdrop:start=25,end=30"])
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null()),
    );
    let addr = wait_addr(&port_file);

    // An idle connection opened (and served) before the window reads EOF
    // once the window opens.
    let mut idle = Session::connect(&addr);
    let status = idle.request("{\"op\":\"status\"}");
    assert!(field(&status, "slot") < 25, "opened too late: {status}");
    let mut rest = String::new();
    idle.reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "a severed connection reads EOF: {rest}");

    // Connections made inside the window close unanswered; the first one
    // served runs after it.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        let mut probe = Session::connect(&addr);
        let _ = writeln!(probe.writer, "{{\"op\":\"status\"}}");
        let mut reply = String::new();
        if probe.reader.read_line(&mut reply).is_ok_and(|n| n > 0) {
            break reply;
        }
        assert!(
            Instant::now() < deadline,
            "no connection served after the window"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        field(&status, "slot") >= 30,
        "served inside the window: {status}"
    );

    let mut client = Session::connect(&addr);
    let drain = client.request("{\"op\":\"drain\"}");
    assert!(drain.contains("\"draining\":true"), "{drain}");
    assert_eq!(wait_exit(&mut daemon).code(), Some(0));
}

#[test]
fn drain_with_an_idle_client_connected_exits_promptly() {
    let dir = scratch("idle-drain");
    let port_file = dir.join("port");
    let mut daemon = spawn(
        Command::new(bin())
            .args(["--hours", "6", "--clock", "manual", "--seed", "5"])
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null()),
    );
    let addr = wait_addr(&port_file);
    let mut idle = Session::connect(&addr);
    idle.request("{\"op\":\"status\"}");

    let mut client = Session::connect(&addr);
    let drain = client.request("{\"op\":\"drain\"}");
    assert!(drain.contains("\"draining\":true"), "{drain}");
    // Teardown must not hang on the idle client's blocked reader or on
    // the blocked acceptor.
    let asked = Instant::now();
    assert_eq!(wait_exit(&mut daemon).code(), Some(0));
    assert!(
        asked.elapsed() < Duration::from_secs(10),
        "drain took {:?}",
        asked.elapsed()
    );
    let mut rest = String::new();
    idle.reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "the idle client reads EOF: {rest}");
}

#[test]
fn restart_intensity_limit_gives_up_with_exit_one() {
    let dir = scratch("giveup");
    let port_file = dir.join("port");
    let mut daemon = spawn(
        Command::new(bin())
            .args(["--hours", "12", "--clock", "turbo", "--seed", "3"])
            .args(["--max-restarts", "1", "--backoff-ms", "1"])
            .args([
                "--chaos",
                "kill:actor=state_keeper,start=1,end=2;\
                 kill:actor=state_keeper,start=2,end=3;\
                 kill:actor=state_keeper,start=3,end=4",
            ])
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null()),
    );
    wait_addr(&port_file);
    assert_eq!(
        wait_exit(&mut daemon).code(),
        Some(1),
        "exceeding the restart budget must escalate to exit 1"
    );
}

#[test]
fn client_subcommand_scripts_a_session() {
    let dir = scratch("client");
    let port_file = dir.join("port");
    let script = dir.join("script.txt");
    std::fs::write(
        &script,
        "# a comment and a blank line are skipped\n\n\
         {\"op\":\"submit\",\"job\":0,\"count\":1}\n\
         {\"op\":\"advance\"}\n\
         {\"op\":\"drain\"}\n",
    )
    .unwrap();
    let mut daemon = spawn(
        Command::new(bin())
            .args(["--hours", "4", "--clock", "manual", "--seed", "9"])
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null()),
    );
    let addr = wait_addr(&port_file);
    let output = Command::new(bin())
        .arg("client")
        .arg(&addr)
        .arg(&script)
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), 3, "{stdout}");
    assert!(replies[0].contains("\"seq\":0"), "{stdout}");
    assert!(replies[1].contains("\"slot\":1"), "{stdout}");
    assert!(replies[2].contains("\"draining\":true"), "{stdout}");
    assert_eq!(wait_exit(&mut daemon).code(), Some(0));
}

#[test]
fn sigterm_drains_and_exits_zero() {
    let dir = scratch("sigterm");
    let port_file = dir.join("port");
    let telemetry = dir.join("tele.jsonl");
    let mut daemon = spawn(
        Command::new(bin())
            .args(["--hours", "6", "--clock", "manual", "--seed", "4"])
            .arg("--telemetry")
            .arg(&telemetry)
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null()),
    );
    let addr = wait_addr(&port_file);
    let mut session = Session::connect(&addr);
    session.request("{\"op\":\"advance\",\"slots\":2}");

    let kill = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let status = wait_exit(&mut daemon);
    assert_eq!(status.code(), Some(0), "SIGTERM is a graceful drain");
    let text = std::fs::read_to_string(&telemetry).unwrap();
    assert!(text.contains("\"event\":\"run.end\""), "{text}");
    assert!(text.contains("\"event\":\"served.stop\""), "{text}");
}
