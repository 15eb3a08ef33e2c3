//! A minimal blocking HTTP listener for `GET /metrics` and
//! `GET /healthz`.
//!
//! Deliberately tiny: std `TcpListener` only, one service thread blocked
//! in `accept`. [`MetricsServer::shutdown`] sets a flag and connects once
//! to the bound address, which returns that `accept`. It serves
//! whatever the [`MetricsLayer`](crate::MetricsLayer) last published into
//! the [`SharedHandle`](crate::SharedHandle) — the listener itself never
//! touches fold state, so it cannot race the run thread.
//!
//! `/healthz` returns 200 while the run is `ok` or `degraded` and 503
//! once it is `violating`, so a plain HTTP check agrees with
//! `grefar-report analyze --assert-bound`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::layer::SharedHandle;

/// Per-connection read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// A running metrics listener; shut down with
/// [`shutdown`](MetricsServer::shutdown) (dropping without it leaves the
/// thread parked until process exit).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for an ephemeral
    /// port) and spawns the service thread.
    ///
    /// # Errors
    /// Bind failures (address in use, bad address, permissions).
    pub fn spawn(addr: &str, shared: SharedHandle) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("grefar-metrics".to_string())
            .spawn(move || serve(listener, shared, thread_stop))?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the service thread, wakes its `accept` and joins it.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Without the wake the thread stays parked in `accept`: skip the
        // join rather than hang on it.
        if TcpStream::connect(self.addr).is_err() {
            return;
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve(listener: TcpListener, shared: SharedHandle, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Serve inline: the endpoints are tiny and the snapshot is
        // pre-rendered, so one connection at a time is plenty.
        if let Ok(stream) = stream {
            let _ = handle_connection(stream, &shared);
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &SharedHandle) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let target = read_request_target(&mut stream)?;
    let (status, content_type, body) = route(&target, shared);
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Reads up to the end of the request head and returns the request
/// target (`GET /metrics HTTP/1.1` → `/metrics`); non-GET methods return
/// an empty target, which routes to 404.
fn read_request_target(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = [0u8; 2048];
    let mut head = Vec::new();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(error) => return Err(error),
        };
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let text = String::from_utf8_lossy(&head);
    let request_line = text.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method == "GET" {
        Ok(target.to_string())
    } else {
        Ok(String::new())
    }
}

fn route(target: &str, shared: &SharedHandle) -> (&'static str, &'static str, String) {
    let snapshot = match shared.lock() {
        Ok(snap) => snap.clone(),
        Err(_) => {
            return (
                "500 Internal Server Error",
                "text/plain; charset=utf-8",
                "snapshot lock poisoned\n".to_string(),
            )
        }
    };
    match target {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            snapshot.exposition,
        ),
        "/healthz" => {
            let status = if snapshot.verdict == "violating" {
                "503 Service Unavailable"
            } else {
                "200 OK"
            };
            let mut body = snapshot.health_json;
            if body.is_empty() {
                body = "{\"event\":\"health.snapshot\",\"verdict\":\"ok\"}".to_string();
            }
            body.push('\n');
            (status, "application/json; charset=utf-8", body)
        }
        "/alerts" => {
            let mut body = snapshot.alerts_json;
            if body.is_empty() {
                body = "{\"alerts\":\"none configured\"}\n".to_string();
            }
            ("200 OK", "application/json; charset=utf-8", body)
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics, /healthz or /alerts\n".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{shared_handle, SharedSnapshot};

    fn get(addr: SocketAddr, target: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let shared = shared_handle();
        *shared.lock().unwrap() = SharedSnapshot {
            exposition: "# HELP grefar_slots_total Slots.\n# TYPE grefar_slots_total counter\ngrefar_slots_total 3\n".to_string(),
            health_json: "{\"event\":\"health.snapshot\",\"t\":3,\"verdict\":\"ok\"}".to_string(),
            verdict: "ok".to_string(),
            alerts_json: "{\"rule\":\"deg\",\"firing\":false}\n".to_string(),
        };
        let server = MetricsServer::spawn("127.0.0.1:0", shared.clone()).unwrap();
        let addr = server.addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("version=0.0.4"));
        assert!(metrics.contains("grefar_slots_total 3\n"));

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.contains("\"verdict\":\"ok\""));

        let alerts = get(addr, "/alerts");
        assert!(alerts.starts_with("HTTP/1.1 200 OK\r\n"), "{alerts}");
        assert!(alerts.contains("\"rule\":\"deg\""));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        assert!(missing.contains("/alerts"));

        shared.lock().unwrap().verdict = "violating".to_string();
        let unhealthy = get(addr, "/healthz");
        assert!(unhealthy.starts_with("HTTP/1.1 503"), "{unhealthy}");

        server.shutdown();
    }

    #[test]
    fn non_get_requests_are_rejected() {
        let server = MetricsServer::spawn("127.0.0.1:0", shared_handle()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        server.shutdown();
    }

    #[test]
    fn slow_request_line_written_in_pieces_is_served() {
        let shared = shared_handle();
        shared.lock().unwrap().exposition = "# EOF\n".to_string();
        let server = MetricsServer::spawn("127.0.0.1:0", shared).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Dribble the request head across several writes with pauses well
        // under the 500ms IO timeout; the reader must keep accumulating
        // until the blank line arrives.
        for piece in [
            &b"GET /met"[..],
            b"rics HTTP/1.1\r\n",
            b"Host: x\r\n",
            b"\r\n",
        ] {
            stream.write_all(piece).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("# EOF"));
        server.shutdown();
    }

    #[test]
    fn partial_request_that_stalls_gets_dropped_not_wedged() {
        let server = MetricsServer::spawn("127.0.0.1:0", shared_handle()).unwrap();
        let addr = server.addr();
        let mut stalled = TcpStream::connect(addr).unwrap();
        // Never finish the head: the per-connection IO timeout must free
        // the service thread so later connections still get answers.
        stalled.write_all(b"GET /metrics HT").unwrap();
        let mut response = String::new();
        let _ = stalled.read_to_string(&mut response);
        let after = get(addr, "/healthz");
        assert!(after.starts_with("HTTP/1.1 200 OK\r\n"), "{after}");
        server.shutdown();
    }

    #[test]
    fn sequential_connections_are_each_served() {
        let shared = shared_handle();
        shared.lock().unwrap().exposition = "# seq\n".to_string();
        let server = MetricsServer::spawn("127.0.0.1:0", shared).unwrap();
        for _ in 0..5 {
            let response = get(server.addr(), "/metrics");
            assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
            assert!(response.contains("# seq"));
        }
        server.shutdown();
    }

    #[test]
    fn ephemeral_port_zero_reports_the_bound_port() {
        let server = MetricsServer::spawn("127.0.0.1:0", shared_handle()).unwrap();
        assert_ne!(server.addr().port(), 0);
        server.shutdown();
    }
}
