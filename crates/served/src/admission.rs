//! The admission actor: the daemon's TCP front door.
//!
//! Every thread of the actor blocks on I/O; none sleeps to wait. The
//! supervised thread is the **writer**: it blocks on the actor's one inbox,
//! [`AdmissionMsg`], writes each reply line to its connection and acts on
//! the controls queued beside them. It spawns one **acceptor**, blocked in
//! `accept`, which spawns one **reader** per connection, blocked in
//! `read`.
//!
//! Requests are line-delimited flat JSON ([`crate::protocol`]); a reader
//! forwards each parsed request to the state keeper over a **bounded**
//! channel, so a state keeper that falls behind surfaces as typed
//! `queue_full` rejections at the edge — load shedding, not unbounded
//! buffering. Replies route back through the writer by connection id.
//!
//! A reader rejects locally (without bothering the state keeper) when the
//! line does not parse, when the daemon is draining, or when the state
//! keeper's current incarnation is dead (`unavailable` — the supervisor is
//! already restarting it, clients should retry). It writes those
//! rejections itself, under the connection's write lock. Every accepted
//! socket has Nagle off and a [`WRITE_TIMEOUT`], so a peer that stops
//! reading is dropped instead of stalling everyone else's replies.
//!
//! Closing: [`AdmissionMsg::Stop`] (the supervisor's teardown),
//! [`AdmissionMsg::Sever`] (a chaos `sockdrop` window opening) and
//! [`AdmissionMsg::Poison`] (`kill:actor=admission`) close every
//! connection with `shutdown`, which returns its blocked reader. The inbox
//! is FIFO, so every reply queued ahead of `Stop` is written before the
//! sockets close. `Stop` and `Poison` also end the acceptor: the writer
//! marks the connection registry closing and connects once to the
//! listener's own address — with `unsafe` denied, that is the std-only way
//! to return a blocked `accept`. The writer joins the acceptor before it
//! closes the connections, so a replacement incarnation is the only thread
//! in `accept`, and the incarnation returns or unwinds only after every
//! reader has ended. During a `sockdrop` window the acceptor refuses every
//! new connection.

use crate::port::Swap;
use crate::protocol::{self, parse_request, RejectReason, Request};
use crate::state_keeper::{SkMsg, SkShared};
use crate::telemetry::{send_reliable, TelemetryMsg};
use grefar_obs::Event;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

/// The admission actor's inbox: everything the state keeper and the
/// supervisor route to it.
pub enum AdmissionMsg {
    /// A reply line for connection `conn`.
    Reply(u64, String),
    /// Chaos: die. The supervisor restarts the actor.
    Poison,
    /// Chaos: freeze the writer for this many milliseconds.
    Stall(u64),
    /// Chaos: a `sockdrop` window opened; close every connection.
    Sever,
    /// Teardown: write the replies queued ahead of this, close every
    /// connection and return.
    Stop,
}

/// The largest request line the wire protocol accepts, in bytes. Real
/// requests are well under 100 bytes; the cap bounds per-connection
/// memory so a peer streaming an endless unterminated "line" cannot grow
/// a reader's buffer without limit. An overrun gets one typed
/// `line_too_long` rejection, the rest of the oversized line is discarded
/// through its terminating newline, and the connection then resumes
/// normal framing.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How long one reply write may wait on a full socket buffer before its
/// connection is dropped. Replies are tiny, so a write that waits this
/// long means the peer has stopped reading.
const WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// One connection's write half, shared by the writer's replies and its
/// reader's edge rejections.
type Outbox = Arc<Mutex<TcpStream>>;

/// The live connections of one incarnation.
#[derive(Default)]
struct Registry {
    /// Set when the writer returns or dies: the acceptor exits at its next
    /// accept instead of registering the connection.
    closing: bool,
    conns: BTreeMap<u64, Outbox>,
}

impl Registry {
    /// Closes every connection; each blocked reader sees EOF and exits.
    fn sever(&mut self) {
        for out in std::mem::take(&mut self.conns).into_values() {
            let _ = lock(&out).shutdown(Shutdown::Both);
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every guarded value (a socket, a map of sockets) stays sound if a
    // holder panicked, so a poisoned lock is still usable.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one admission-actor incarnation until [`AdmissionMsg::Stop`] (or
/// until every sender of `inbox` is gone). `conn_base` holds the high bits
/// of this incarnation's connection ids, so replies can never route to a
/// recycled id. The acceptor and the readers are scoped threads: the
/// incarnation returns (or unwinds) only after every one has ended.
///
/// # Panics
/// On [`AdmissionMsg::Poison`] (chaos), after closing every connection and
/// ending the acceptor; and when a reader thread panicked.
pub fn run_admission(
    listener: TcpListener,
    sk: Swap<SyncSender<SkMsg>>,
    shared: SkShared,
    inbox: Receiver<AdmissionMsg>,
    conn_base: u64,
) {
    let addr = listener.local_addr().expect("admission listener address");
    let registry = Mutex::new(Registry::default());
    std::thread::scope(|scope| {
        let acceptor =
            scope.spawn(|| accept_loop(scope, &listener, &registry, &sk, &shared, conn_base));
        let _close = Close {
            registry: &registry,
            addr,
            acceptor: Some(acceptor),
        };
        while let Ok(msg) = inbox.recv() {
            match msg {
                AdmissionMsg::Reply(conn, line) => {
                    let out = lock(&registry).conns.get(&conn).cloned();
                    if let Some(out) = out {
                        if write_line(&out, &line).is_err() {
                            // Its reader sees EOF and unregisters it.
                            let _ = lock(&out).shutdown(Shutdown::Both);
                        }
                    }
                }
                AdmissionMsg::Poison => panic!("chaos kill: admission actor"),
                AdmissionMsg::Stall(ms) => std::thread::sleep(Duration::from_millis(ms)),
                AdmissionMsg::Sever => lock(&registry).sever(),
                AdmissionMsg::Stop => break,
            }
        }
    });
}

/// Ends the acceptor, then closes every connection, when the writer
/// returns or unwinds.
struct Close<'scope> {
    registry: &'scope Mutex<Registry>,
    addr: SocketAddr,
    acceptor: Option<ScopedJoinHandle<'scope, ()>>,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        lock(self.registry).closing = true;
        // Wake the blocked `accept`: the acceptor sees `closing` and exits.
        // Without the wake it exits at the next connection instead.
        if let Err(e) = TcpStream::connect(self.addr) {
            eprintln!("warning: cannot wake the admission acceptor: {e}");
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Close the connections only now, so a client that reconnects when
        // its connection closes reaches the next incarnation's acceptor.
        lock(self.registry).sever();
    }
}

/// Accepts connections until the registry is closing, spawning one reader
/// per connection.
fn accept_loop<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    listener: &'env TcpListener,
    registry: &'env Mutex<Registry>,
    sk: &'env Swap<SyncSender<SkMsg>>,
    shared: &'env SkShared,
    conn_base: u64,
) {
    let mut next_conn = conn_base;
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        // Checked under the registry lock, which `Sever` and closing also
        // take: a connection is either registered before they close
        // everything, or sees their flag and is dropped here.
        let mut live = lock(registry);
        if live.closing {
            return;
        }
        if shared.sockdrop.load(Ordering::SeqCst) {
            continue; // a chaos window refuses every connection
        }
        let Ok(read_half) = configure(&stream) else {
            continue;
        };
        let conn = Conn {
            id: next_conn,
            out: Arc::new(Mutex::new(stream)),
        };
        next_conn += 1;
        live.conns.insert(conn.id, Arc::clone(&conn.out));
        drop(live);
        let id = conn.id;
        let spawned = std::thread::Builder::new().spawn_scoped(scope, move || {
            read_loop(&conn, read_half, registry, sk, shared)
        });
        if spawned.is_err() {
            // Dropping the last handle closes the socket.
            lock(registry).conns.remove(&id);
        }
    }
}

/// Nagle off, a bounded write wait, and a second handle for the reader.
fn configure(stream: &TcpStream) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.try_clone()
}

/// One client connection, as its reader sees it.
struct Conn {
    id: u64,
    out: Outbox,
}

/// A reader thread: serves the connection until EOF or a failed write,
/// then unregisters it. The socket closes with its last handle.
fn read_loop(
    conn: &Conn,
    mut stream: TcpStream,
    registry: &Mutex<Registry>,
    sk: &Swap<SyncSender<SkMsg>>,
    shared: &SkShared,
) {
    let _ = serve_reads(conn, &mut stream, sk, shared);
    lock(registry).conns.remove(&conn.id);
}

/// Reads the connection line by line, forwarding each complete request.
/// Returns at EOF (`Ok`) or on the first failed read or write.
fn serve_reads(
    conn: &Conn,
    stream: &mut TcpStream,
    sk: &Swap<SyncSender<SkMsg>>,
    shared: &SkShared,
) -> std::io::Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    // Set after a `line_too_long` rejection: incoming bytes are dropped
    // (never buffered) until the oversized line's newline goes by.
    let mut discarding = false;
    let mut chunk = [0u8; 4096];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let mut bytes = &chunk[..n];
        if discarding {
            // Mid-oversized-line: drop bytes until its newline.
            match bytes.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    discarding = false;
                    bytes = &bytes[i + 1..];
                }
                None => continue,
            }
        }
        buf.extend_from_slice(bytes);
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            if line.len() > MAX_LINE_BYTES {
                // Terminated but oversized: reject it whole, keep framing.
                reject_line_too_long(conn, shared)?;
                continue;
            }
            let line = String::from_utf8_lossy(&line);
            let line = line.trim();
            if !line.is_empty() {
                handle_line(conn, line, sk, shared)?;
            }
        }
        // No newline yet: a partial line already past the cap can never
        // become a valid request, so reject once and discard the rest of
        // the flood as it streams in instead of buffering it.
        if buf.len() > MAX_LINE_BYTES {
            reject_line_too_long(conn, shared)?;
            buf.clear();
            discarding = true;
        }
    }
}

/// One typed `line_too_long` rejection at the edge.
fn reject_line_too_long(conn: &Conn, shared: &SkShared) -> std::io::Result<()> {
    reject_local(
        conn,
        "request",
        RejectReason::LineTooLong,
        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        shared,
    )
}

fn handle_line(
    conn: &Conn,
    line: &str,
    sk: &Swap<SyncSender<SkMsg>>,
    shared: &SkShared,
) -> std::io::Result<()> {
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
        Ok(()) => Ok(()),
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
fn reject_local(
    conn: &Conn,
    op: &str,
    reason: RejectReason,
    detail: &str,
    shared: &SkShared,
) -> std::io::Result<()> {
    shared.rejected.fetch_add(1, Ordering::SeqCst);
    send_reliable(
        &shared.tele,
        TelemetryMsg::Event(
            Event::new("admission.reject")
                .field("t", shared.emitted_upto.load(Ordering::SeqCst))
                .field("reason", reason.as_str()),
        ),
    );
    write_line(&conn.out, &protocol::reject(op, reason, detail))
}

/// Writes `line\n` in one call, so it leaves as one segment; a peer that
/// stops reading fails it after [`WRITE_TIMEOUT`].
fn write_line(out: &Mutex<TcpStream>, line: &str) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    lock(out).write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalEntry;
    use std::collections::BTreeSet;
    use std::io::{BufRead, BufReader};
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::mpsc::{self, sync_channel};

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
        let handle = {
            let sk = sk.clone();
            let shared = shared.clone();
            std::thread::spawn(move || run_admission(listener, sk, shared, inbox_rx, 0))
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

        inbox_tx.send(AdmissionMsg::Stop).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn multi_megabyte_line_is_rejected_typed_and_framing_resyncs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (sk_tx, _sk_rx) = sync_channel::<SkMsg>(8);
        let sk = Swap::new(sk_tx);
        let (shared, _tele_rx) = shared_for_test();
        let (inbox_tx, inbox_rx) = mpsc::channel();
        let handle = {
            let sk = sk.clone();
            let shared = shared.clone();
            std::thread::spawn(move || run_admission(listener, sk, shared, inbox_rx, 0))
        };

        // A 4 MiB "line": exactly one typed rejection as soon as the cap
        // trips, however many reads the flood spans — the reader discards
        // the rest instead of buffering it.
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

        inbox_tx.send(AdmissionMsg::Stop).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn backpressure_and_dead_keeper_reject_typed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (sk_tx, sk_rx) = sync_channel::<SkMsg>(1);
        let sk = Swap::new(sk_tx);
        let (shared, _tele_rx) = shared_for_test();
        let (inbox_tx, inbox_rx) = mpsc::channel();
        let handle = {
            let sk = sk.clone();
            let shared = shared.clone();
            std::thread::spawn(move || run_admission(listener, sk, shared, inbox_rx, 1 << 32))
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

        inbox_tx.send(AdmissionMsg::Stop).unwrap();
        handle.join().unwrap();
    }
}
