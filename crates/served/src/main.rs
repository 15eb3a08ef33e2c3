//! `grefar-served` — the scheduling daemon's command line.
//!
//! ```text
//! USAGE:
//!   grefar-served [--listen ADDR] [--clock manual|turbo|real:MS]
//!                 [--scheduler grefar|always|local-only|price-greedy]
//!                 [--v V] [--beta B] [--hours N] [--seed S] [--load-scale X]
//!                 [--admission-cap C] [--deadline-iters N] [--queue-cap N]
//!                 [--faults PLAN] [--chaos PLAN] [--feeds PROFILE]
//!                 [--checkpoint FILE] [--checkpoint-every N] [--resume]
//!                 [--telemetry FILE.jsonl] [--metrics-snapshot FILE]
//!                 [--metrics-listen ADDR] [--alerts RULES]
//!                 [--port-file FILE] [--max-restarts N] [--backoff-ms MS]
//!   grefar-served client ADDR [SCRIPT]
//! ```
//!
//! The daemon accepts line-delimited JSON requests on `--listen` (see
//! `grefar_served::protocol`): `{"op":"submit","job":J,"count":C}`,
//! `{"op":"advance","slots":N}` (manual clock), `{"op":"status"}` and
//! `{"op":"drain"}`. `--checkpoint FILE` makes the daemon crash-safe: the
//! admission journal lands in `FILE.journal`, every `--checkpoint-every`
//! slots `FILE` is atomically replaced by a new cut, and after a `kill -9`
//! the same command line plus `--resume` continues bit-identically — the
//! merged `--telemetry` stream is diff-clean against an uninterrupted run.
//! A start without `--resume` discards `FILE` and `FILE.journal` first.
//!
//! `--chaos PLAN` schedules deterministic actor failures (`kill:actor=…`,
//! `stall:actor=…,ms=…`, `sockdrop:…` windows keyed to slots); data faults
//! and solver squeezes stay in `--faults`. SIGTERM/SIGINT drain
//! gracefully: admission stops, the run is checkpointed and finished, the
//! telemetry and metrics snapshot are flushed, and the process exits 0.
//!
//! `client` connects to a running daemon and plays `SCRIPT` (a file of
//! request lines, `-` or absent for stdin; blank lines and `#` comments
//! skipped), printing one response line per request.

use grefar_served::engine::{EngineSpec, SchedulerSpec};
use grefar_served::state_keeper::Clock;
use grefar_served::supervisor::{run_daemon, DaemonOptions, RestartPolicy};
use grefar_served::ChaosPlan;
use grefar_sim::PaperScenario;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "grefar-served [--listen ADDR] [--clock manual|turbo|real:MS] \
                     [--scheduler grefar|always|local-only|price-greedy] [--v V] [--beta B] \
                     [--hours N] [--seed S] [--load-scale X] [--admission-cap C] \
                     [--deadline-iters N] [--queue-cap N] [--faults PLAN] [--chaos PLAN] \
                     [--feeds PROFILE] [--checkpoint FILE] [--checkpoint-every N] [--resume] \
                     [--telemetry FILE.jsonl] [--metrics-snapshot FILE] [--metrics-listen ADDR] \
                     [--alerts RULES] [--port-file FILE] [--max-restarts N] [--backoff-ms MS]\n\
                     grefar-served client ADDR [SCRIPT]";

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\nusage: {USAGE}");
    std::process::exit(2);
}

/// Resolves a spec argument: if it names a readable file, the file's
/// contents are the spec; otherwise the value itself is (the same
/// convention as the experiment binaries' loaders).
fn spec_or_file(value: &str) -> String {
    std::fs::read_to_string(value)
        .map_or_else(|_| value.to_string(), |text| text.trim().to_string())
}

struct ServeOptions {
    listen: String,
    clock: String,
    scheduler: String,
    v: f64,
    beta: f64,
    hours: usize,
    seed: u64,
    load_scale: f64,
    admission_cap: Option<f64>,
    deadline_iters: Option<usize>,
    queue_cap: usize,
    faults: Option<String>,
    chaos: Option<String>,
    feeds: Option<String>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u64,
    resume: bool,
    telemetry: Option<PathBuf>,
    metrics_snapshot: Option<PathBuf>,
    metrics_listen: Option<String>,
    alerts: Option<String>,
    port_file: Option<PathBuf>,
    max_restarts: u32,
    backoff_ms: u64,
}

fn parse_serve_args(args: &[String]) -> ServeOptions {
    let mut opts = ServeOptions {
        listen: "127.0.0.1:0".into(),
        clock: "manual".into(),
        scheduler: "grefar".into(),
        v: 7.5,
        beta: 0.0,
        hours: 24 * 30,
        seed: 2012,
        load_scale: 1.0,
        admission_cap: None,
        deadline_iters: None,
        queue_cap: 64,
        faults: None,
        chaos: None,
        feeds: None,
        checkpoint: None,
        checkpoint_every: 1,
        resume: false,
        telemetry: None,
        metrics_snapshot: None,
        metrics_listen: None,
        alerts: None,
        port_file: None,
        max_restarts: 5,
        backoff_ms: 50,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            match args.get(i + 1) {
                Some(v) => v,
                None => usage_error(&format!("missing value after {}", args[i])),
            }
        };
        let number = |i: usize, what: &str| -> f64 {
            match value(i).parse() {
                Ok(v) => v,
                Err(_) => usage_error(&format!("{what} expects a number")),
            }
        };
        let integer = |i: usize, what: &str| -> u64 {
            match value(i).parse() {
                Ok(v) => v,
                Err(_) => usage_error(&format!("{what} expects an integer")),
            }
        };
        match args[i].as_str() {
            "--listen" => opts.listen = value(i).to_string(),
            "--clock" => opts.clock = value(i).to_string(),
            "--scheduler" => opts.scheduler = value(i).to_string(),
            "--v" => opts.v = number(i, "--v"),
            "--beta" => opts.beta = number(i, "--beta"),
            "--hours" => opts.hours = integer(i, "--hours") as usize,
            "--seed" => opts.seed = integer(i, "--seed"),
            "--load-scale" => opts.load_scale = number(i, "--load-scale"),
            "--admission-cap" => opts.admission_cap = Some(number(i, "--admission-cap")),
            "--deadline-iters" => {
                opts.deadline_iters = Some(integer(i, "--deadline-iters") as usize)
            }
            "--queue-cap" => opts.queue_cap = integer(i, "--queue-cap") as usize,
            "--faults" => opts.faults = Some(value(i).to_string()),
            "--chaos" => opts.chaos = Some(value(i).to_string()),
            "--feeds" => opts.feeds = Some(value(i).to_string()),
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(value(i))),
            "--checkpoint-every" => opts.checkpoint_every = integer(i, "--checkpoint-every"),
            "--resume" => {
                opts.resume = true;
                i -= 1;
            }
            "--telemetry" => opts.telemetry = Some(PathBuf::from(value(i))),
            "--metrics-snapshot" => opts.metrics_snapshot = Some(PathBuf::from(value(i))),
            "--metrics-listen" => opts.metrics_listen = Some(value(i).to_string()),
            "--alerts" => opts.alerts = Some(value(i).to_string()),
            "--port-file" => opts.port_file = Some(PathBuf::from(value(i))),
            "--max-restarts" => opts.max_restarts = integer(i, "--max-restarts") as u32,
            "--backoff-ms" => opts.backoff_ms = integer(i, "--backoff-ms"),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    if opts.hours == 0 {
        usage_error("--hours must be positive");
    }
    if opts.checkpoint_every == 0 {
        usage_error("--checkpoint-every must be positive");
    }
    if opts.queue_cap == 0 {
        usage_error("--queue-cap must be positive");
    }
    if opts.resume && opts.checkpoint.is_none() {
        usage_error("--resume requires --checkpoint FILE");
    }
    opts
}

fn serve(opts: ServeOptions) -> ! {
    let clock = Clock::parse(&opts.clock).unwrap_or_else(|e| usage_error(&e));
    let scheduler = SchedulerSpec::parse(&opts.scheduler, opts.v, opts.beta)
        .unwrap_or_else(|e| usage_error(&e));
    let faults = opts.faults.as_deref().map(|spec| {
        let plan = grefar_faults::FaultPlan::parse(&spec_or_file(spec))
            .unwrap_or_else(|e| usage_error(&format!("--faults: {e}")));
        if plan.has_chaos() {
            usage_error("--faults carries chaos clauses; move kill/stall/sockdrop to --chaos");
        }
        plan
    });
    let chaos = opts.chaos.as_deref().map(|spec| {
        ChaosPlan::parse(&spec_or_file(spec))
            .unwrap_or_else(|e| usage_error(&format!("--chaos: {e}")))
    });
    let feeds = opts.feeds.as_deref().map(|spec| {
        grefar_ingest::FeedProfile::parse(&spec_or_file(spec))
            .unwrap_or_else(|e| usage_error(&format!("--feeds: {e}")))
    });
    let alerts = opts.alerts.as_deref().map_or_else(Vec::new, |spec| {
        grefar_metrics::parse_rules(&spec_or_file(spec))
            .unwrap_or_else(|e| usage_error(&format!("--alerts: {e}")))
    });

    let scenario = PaperScenario::default()
        .with_seed(opts.seed)
        .with_load_scale(opts.load_scale);
    let config = scenario.config().clone();
    let base_inputs = scenario.into_inputs(opts.hours);

    let engine = EngineSpec {
        config,
        base_inputs,
        scheduler,
        admission_cap: opts.admission_cap,
        faults,
        feeds,
        deadline_iters: opts.deadline_iters,
    };
    let options = DaemonOptions {
        listen: opts.listen,
        clock,
        engine,
        chaos,
        checkpoint: opts.checkpoint,
        checkpoint_every: opts.checkpoint_every,
        resume: opts.resume,
        telemetry: opts.telemetry,
        metrics_snapshot: opts.metrics_snapshot,
        metrics_listen: opts.metrics_listen,
        alerts,
        port_file: opts.port_file,
        queue_cap: opts.queue_cap,
        restart: RestartPolicy {
            backoff_base_ms: opts.backoff_ms,
            max_restarts: opts.max_restarts,
            ..RestartPolicy::default()
        },
    };
    match run_daemon(options) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Plays a request script against a running daemon, one reply per line.
fn client(args: &[String]) -> ! {
    let addr = match args.first() {
        Some(addr) => addr.clone(),
        None => usage_error("client needs the daemon address"),
    };
    let script: Box<dyn Read> = match args.get(1).map(String::as_str) {
        None | Some("-") => Box::new(std::io::stdin()),
        Some(path) => match std::fs::File::open(path) {
            Ok(file) => Box::new(file),
            Err(e) => {
                eprintln!("error: cannot open {path}: {e}");
                std::process::exit(1);
            }
        },
    };
    let stream = match TcpStream::connect(&addr) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    // One request per round trip: without TCP_NODELAY, Nagle's algorithm
    // holds each request behind the previous reply's delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let mut replies = BufReader::new(stream);
    for line in BufReader::new(script).lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("error: reading script: {e}");
                std::process::exit(1);
            }
        };
        let request = line.trim();
        if request.is_empty() || request.starts_with('#') {
            continue;
        }
        // Request and newline in one write, so they leave as one segment.
        if writer.write_all(format!("{request}\n").as_bytes()).is_err() {
            eprintln!("error: daemon closed the connection");
            std::process::exit(1);
        }
        let mut reply = String::new();
        match replies.read_line(&mut reply) {
            Ok(0) => {
                eprintln!("error: daemon closed the connection");
                std::process::exit(1);
            }
            Ok(_) => print!("{reply}"),
            Err(e) => {
                eprintln!("error: reading reply: {e}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("client") => client(&args[1..]),
        _ => serve(parse_serve_args(&args)),
    }
}
