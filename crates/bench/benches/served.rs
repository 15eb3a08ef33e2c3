//! Daemon request round trips: one `status` and one `submit`, closed loop
//! over one `TCP_NODELAY` connection to an in-process `grefar-served`
//! (`run_daemon`, as `grefar-soak`'s daemon leg runs it). The daemon runs
//! the manual clock without `--checkpoint`, so no slot executes and a
//! submit pays no journal fsync: each case times the admission threads,
//! the state keeper's inbox and the reply route back. Start-up and drain
//! run outside the timed closures.

use criterion::{criterion_group, criterion_main, Criterion};
use grefar_served::{run_daemon, Clock, DaemonOptions, EngineSpec, RestartPolicy, SchedulerSpec};
use grefar_sim::PaperScenario;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the daemon");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Self {
            reader: BufReader::new(stream.try_clone().expect("clone the stream")),
            writer: stream,
            reply: String::new(),
        }
    }

    /// Sends one request line and reads its one reply line.
    fn call(&mut self, request: &[u8]) -> usize {
        self.writer.write_all(request).expect("send a request");
        self.reply.clear();
        let n = self
            .reader
            .read_line(&mut self.reply)
            .expect("read a reply");
        assert!(self.reply.contains("\"ok\":true"), "{}", self.reply);
        n
    }
}

/// Polls the port file the daemon writes once its listener is bound.
fn wait_addr(port_file: &Path) -> String {
    for _ in 0..3_000 {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if !text.trim().is_empty() {
                return text.trim().to_string();
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("the daemon never wrote {}", port_file.display());
}

fn bench_served(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("grefar-bench-served-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let port_file = dir.join("port");
    let scenario = PaperScenario::default().with_seed(5);
    let config = scenario.config().clone();
    let options = DaemonOptions {
        listen: "127.0.0.1:0".to_string(),
        clock: Clock::Manual,
        engine: EngineSpec {
            config,
            base_inputs: scenario.into_inputs(48),
            scheduler: SchedulerSpec::GreFar { v: 7.5, beta: 0.0 },
            admission_cap: None,
            faults: None,
            feeds: None,
            deadline_iters: None,
        },
        chaos: None,
        checkpoint: None,
        checkpoint_every: 1,
        resume: false,
        telemetry: None,
        metrics_snapshot: None,
        metrics_listen: None,
        alerts: Vec::new(),
        port_file: Some(port_file.clone()),
        queue_cap: 64,
        restart: RestartPolicy::default(),
    };
    let daemon = std::thread::spawn(move || run_daemon(options));
    let mut client = Client::connect(&wait_addr(&port_file));

    let mut group = c.benchmark_group("served");
    group.bench_function("status_roundtrip", |b| {
        b.iter(|| client.call(b"{\"op\":\"status\"}\n"))
    });
    group.bench_function("submit_roundtrip", |b| {
        b.iter(|| client.call(b"{\"op\":\"submit\",\"job\":0,\"count\":1}\n"))
    });
    group.finish();

    client.call(b"{\"op\":\"drain\"}\n");
    let exit = daemon
        .join()
        .expect("daemon thread")
        .expect("daemon start-up");
    assert_eq!(exit, 0, "the daemon drains cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_served);
criterion_main!(benches);
