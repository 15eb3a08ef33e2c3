//! The admission actor: the daemon's TCP front door.
//!
//! One nonblocking poll loop owns the listener and every client
//! connection. Requests are line-delimited flat JSON
//! ([`crate::protocol`]); each parsed request is forwarded to the state
//! keeper over a **bounded** channel, so a state keeper that falls behind
//! surfaces as typed `queue_full` rejections at the edge — load shedding,
//! not unbounded buffering. Replies route back by connection id.
//!
//! The actor has one inbox, [`AdmissionMsg`]: the state keeper's replies
//! and the chaos controls share it, and one drain per poll serves both.
//!
//! The actor rejects locally (without bothering the state keeper) when the
//! line does not parse, when the daemon is draining, or when the state
//! keeper's current incarnation is dead (`unavailable` — the supervisor is
//! already restarting it, clients should retry).
//!
//! Chaos hooks: `kill:actor=admission` poisons the loop (connections die
//! with it; the supervisor re-arms the listener for the replacement), and
//! an active `sockdrop` window severs every connection on sight.

use crate::port::Swap;
use crate::protocol::{self, parse_request, RejectReason, Request};
use crate::state_keeper::{SkMsg, SkShared};
use crate::telemetry::{send_reliable, TelemetryMsg};
use grefar_obs::Event;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// The admission actor's inbox: everything the state keeper routes to it.
pub enum AdmissionMsg {
    /// A reply line for connection `conn`.
    Reply(u64, String),
    /// Chaos: die. The supervisor restarts the actor.
    Poison,
    /// Chaos: freeze the poll loop for this many milliseconds.
    Stall(u64),
}

/// Per-incarnation wiring for the admission actor.
pub struct AdmissionConfig {
    /// High bits for connection ids, unique per incarnation, so replies
    /// can never route to a recycled id.
    pub conn_base: u64,
    /// Graceful-stop flag (the supervisor sets it at teardown).
    pub stop: Arc<AtomicBool>,
}

/// The largest request line the wire protocol accepts, in bytes. Real
/// requests are well under 100 bytes; the cap bounds per-connection
/// memory so a peer streaming an endless unterminated "line" cannot grow
/// `Conn::buf` without limit. An overrun gets one typed `line_too_long`
/// rejection, the rest of the oversized line is discarded through its
/// terminating newline, and the connection then resumes normal framing.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

struct Conn {
    id: u64,
    stream: TcpStream,
    buf: Vec<u8>,
    dead: bool,
    /// Set after a `line_too_long` rejection: incoming bytes are dropped
    /// (never buffered) until the oversized line's newline goes by.
    discarding: bool,
}

/// Runs one admission-actor incarnation until the stop flag is set.
///
/// # Panics
/// On [`AdmissionMsg::Poison`] (chaos).
pub fn run_admission(
    listener: TcpListener,
    sk: Swap<SyncSender<SkMsg>>,
    shared: SkShared,
    inbox: Receiver<AdmissionMsg>,
    config: AdmissionConfig,
) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_conn = config.conn_base;

    while !config.stop.load(Ordering::SeqCst) {
        if shared.sockdrop.load(Ordering::SeqCst) {
            // Chaos window: sever everything, including fresh accepts.
            conns.clear();
            while let Ok((stream, _)) = listener.accept() {
                drop(stream);
            }
        } else {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        conns.push(Conn {
                            id: next_conn,
                            stream,
                            buf: Vec::new(),
                            dead: false,
                            discarding: false,
                        });
                        next_conn += 1;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
            for conn in &mut conns {
                pump_reads(conn, &sk, &shared);
            }
        }
        serve_inbox(&inbox, &mut conns);
        conns.retain(|c| !c.dead);
        std::thread::sleep(Duration::from_millis(1));
    }

    // Teardown: the supervisor only sets `stop` after the state keeper has
    // exited, so every reply it will ever send is already queued — flush
    // them so the last client sees its final ack before the socket closes.
    // Chaos controls left in the inbox have nothing left to act on.
    while let Ok(msg) = inbox.try_recv() {
        if let AdmissionMsg::Reply(conn_id, line) = msg {
            if let Some(conn) = conns.iter_mut().find(|c| c.id == conn_id) {
                let _ = write_line(&mut conn.stream, &line);
            }
        }
    }
}

/// Drains the inbox in arrival order: writes each reply to its connection
/// (if it is still open) and acts on chaos controls.
fn serve_inbox(inbox: &Receiver<AdmissionMsg>, conns: &mut [Conn]) {
    while let Ok(msg) = inbox.try_recv() {
        match msg {
            AdmissionMsg::Reply(conn_id, line) => {
                if let Some(conn) = conns.iter_mut().find(|c| c.id == conn_id) {
                    if write_line(&mut conn.stream, &line).is_err() {
                        conn.dead = true;
                    }
                }
            }
            AdmissionMsg::Poison => panic!("chaos kill: admission actor"),
            AdmissionMsg::Stall(ms) => std::thread::sleep(Duration::from_millis(ms)),
        }
    }
}

/// Reads whatever the connection has, forwarding each complete line.
fn pump_reads(conn: &mut Conn, sk: &Swap<SyncSender<SkMsg>>, shared: &SkShared) {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                let mut bytes = &chunk[..n];
                if conn.discarding {
                    // Mid-oversized-line: drop bytes until its newline.
                    match bytes.iter().position(|&b| b == b'\n') {
                        Some(i) => {
                            conn.discarding = false;
                            bytes = &bytes[i + 1..];
                        }
                        None => continue,
                    }
                }
                conn.buf.extend_from_slice(bytes);
                if conn.buf.len() > MAX_LINE_BYTES {
                    // Stop slurping: let line processing below drain
                    // complete lines (or shed the overrun) before the
                    // buffer grows past one cap's worth.
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = conn.buf.drain(..=pos).collect();
        if line.len() > MAX_LINE_BYTES {
            // Terminated but oversized: reject it whole, keep framing.
            reject_line_too_long(conn, shared);
            continue;
        }
        let line = String::from_utf8_lossy(&line);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        handle_line(conn, line, sk, shared);
        if conn.dead {
            return;
        }
    }
    // No newline yet: a partial line already past the cap can never
    // become a valid request, so reject once and discard the rest of the
    // flood as it streams in instead of buffering it.
    if conn.buf.len() > MAX_LINE_BYTES {
        reject_line_too_long(conn, shared);
        conn.buf.clear();
        conn.discarding = true;
    }
}

/// One typed `line_too_long` rejection at the edge.
fn reject_line_too_long(conn: &mut Conn, shared: &SkShared) {
    reject_local(
        conn,
        "request",
        RejectReason::LineTooLong,
        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        shared,
    );
}

fn handle_line(conn: &mut Conn, line: &str, sk: &Swap<SyncSender<SkMsg>>, shared: &SkShared) {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err((reason, detail)) => {
            return reject_local(conn, "request", reason, &detail, shared);
        }
    };
    let (op, msg) = match request {
        Request::Submit { job, count } => {
            if shared.draining.load(Ordering::SeqCst) {
                return reject_local(
                    conn,
                    "submit",
                    RejectReason::Draining,
                    "daemon is draining",
                    shared,
                );
            }
            (
                "submit",
                SkMsg::Submit {
                    conn: conn.id,
                    job,
                    count,
                },
            )
        }
        Request::Advance { slots } => (
            "advance",
            SkMsg::Advance {
                conn: conn.id,
                slots,
            },
        ),
        Request::Status => ("status", SkMsg::Status { conn: conn.id }),
        Request::Drain => (
            "drain",
            SkMsg::Drain {
                conn: Some(conn.id),
            },
        ),
    };
    let (_, tx) = sk.get();
    match tx.try_send(msg) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => reject_local(
            conn,
            op,
            RejectReason::QueueFull,
            "state keeper queue is full; back off and retry",
            shared,
        ),
        Err(TrySendError::Disconnected(_)) => reject_local(
            conn,
            op,
            RejectReason::Unavailable,
            "state keeper restarting; retry shortly",
            shared,
        ),
    }
}

/// An edge rejection: counted, streamed, answered — without a state-keeper
/// round trip. `t` is the telemetry watermark (the state keeper owns the
/// true slot counter).
fn reject_local(conn: &mut Conn, op: &str, reason: RejectReason, detail: &str, shared: &SkShared) {
    shared.rejected.fetch_add(1, Ordering::SeqCst);
    send_reliable(
        &shared.tele,
        TelemetryMsg::Event(
            Event::new("admission.reject")
                .field("t", shared.emitted_upto.load(Ordering::SeqCst))
                .field("reason", reason.as_str()),
        ),
    );
    if write_line(&mut conn.stream, &protocol::reject(op, reason, detail)).is_err() {
        conn.dead = true;
    }
}

/// Writes `line\n` to a nonblocking stream, briefly riding out a full
/// socket buffer (replies are tiny; ~100ms of patience is plenty).
fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    let mut written = 0;
    let mut patience = 100;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                patience -= 1;
                if patience == 0 {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalEntry;
    use std::collections::BTreeSet;
    use std::io::{BufRead, BufReader};
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc::{self, sync_channel};
    use std::sync::Mutex;

    fn shared_for_test() -> (SkShared, mpsc::Receiver<TelemetryMsg>) {
        let (tele_tx, tele_rx) = mpsc::channel();
        let (admission_tx, _admission_rx) = mpsc::channel();
        // The admission receiver is dropped: the state keeper's side of
        // the inbox is not under test and sends to it may fail.
        let shared = SkShared {
            tele: Swap::new(tele_tx),
            admission: Swap::new(admission_tx),
            draining: Arc::new(AtomicBool::new(false)),
            sockdrop: Arc::new(AtomicBool::new(false)),
            emitted_upto: Arc::new(AtomicU64::new(0)),
            admitted: Arc::new(AtomicU64::new(0)),
            rejected: Arc::new(AtomicU64::new(0)),
            accepted: Arc::new(Mutex::new(Vec::<JournalEntry>::new())),
            fired_chaos: Arc::new(Mutex::new(BTreeSet::new())),
        };
        (shared, tele_rx)
    }

    #[test]
    fn forwards_requests_and_routes_replies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (sk_tx, sk_rx) = sync_channel::<SkMsg>(8);
        let sk = Swap::new(sk_tx);
        let (shared, _tele_rx) = shared_for_test();
        let (inbox_tx, inbox_rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let sk = sk.clone();
            let shared = shared.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                run_admission(
                    listener,
                    sk,
                    shared,
                    inbox_rx,
                    AdmissionConfig { conn_base: 0, stop },
                )
            })
        };

        let mut client = TcpStream::connect(addr).unwrap();
        writeln!(client, "{{\"op\":\"submit\",\"job\":1,\"count\":2}}").unwrap();
        let (conn, job) = match sk_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            SkMsg::Submit { conn, job, count } => {
                assert_eq!(count, 2.0);
                (conn, job)
            }
            _ => panic!("expected submit"),
        };
        assert_eq!(job, 1);
        inbox_tx
            .send(AdmissionMsg::Reply(conn, protocol::accept(0, 0, job, 2.0)))
            .unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        assert!(line.contains("\"seq\":0"), "{line}");

        // Garbage rejects locally without a state-keeper round trip.
        writeln!(client, "not json").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"error\":\"parse\""), "{line}");
        assert_eq!(shared.rejected.load(Ordering::SeqCst), 1);

        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn multi_megabyte_line_is_rejected_typed_and_framing_resyncs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (sk_tx, _sk_rx) = sync_channel::<SkMsg>(8);
        let sk = Swap::new(sk_tx);
        let (shared, _tele_rx) = shared_for_test();
        let (_inbox_tx, inbox_rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let sk = sk.clone();
            let shared = shared.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                run_admission(
                    listener,
                    sk,
                    shared,
                    inbox_rx,
                    AdmissionConfig { conn_base: 0, stop },
                )
            })
        };

        // A 4 MiB "line": exactly one typed rejection as soon as the cap
        // trips, however many poll cycles the flood spans — the actor
        // discards the rest instead of buffering it.
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut flood = vec![b'x'; 4 * 1024 * 1024];
        flood.push(b'\n');
        client.write_all(&flood).unwrap();
        client.flush().unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"error\":\"line_too_long\""), "{line}");
        assert_eq!(shared.rejected.load(Ordering::SeqCst), 1);

        // Framing resynced at the flood's newline: the next (short,
        // malformed) line gets its own typed answer, not silence.
        writeln!(client, "not json").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"error\":\"parse\""), "{line}");
        assert_eq!(shared.rejected.load(Ordering::SeqCst), 2);

        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn backpressure_and_dead_keeper_reject_typed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (sk_tx, sk_rx) = sync_channel::<SkMsg>(1);
        let sk = Swap::new(sk_tx);
        let (shared, _tele_rx) = shared_for_test();
        let (_inbox_tx, inbox_rx) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let sk = sk.clone();
            let shared = shared.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                run_admission(
                    listener,
                    sk,
                    shared,
                    inbox_rx,
                    AdmissionConfig {
                        conn_base: 1 << 32,
                        stop,
                    },
                )
            })
        };

        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();

        // Fill the (capacity 1) queue, then overflow it.
        writeln!(client, "{{\"op\":\"submit\",\"job\":0}}").unwrap();
        writeln!(client, "{{\"op\":\"submit\",\"job\":0}}").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"error\":\"queue_full\""), "{line}");

        // Kill the keeper's receiving end: typed `unavailable`.
        drop(sk_rx);
        writeln!(client, "{{\"op\":\"status\"}}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"error\":\"unavailable\""), "{line}");

        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }
}
