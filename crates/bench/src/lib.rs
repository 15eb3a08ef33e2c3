//! Shared utilities for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §3 for the experiment index).
//!
//! Every binary accepts:
//!
//! * `--hours N` — simulation horizon in slots (default experiment-specific),
//! * `--seed S` — the master seed (default 2012).
//!
//! A binary accepts the other shared flags only where it honors them (its
//! [`Flag`] list); any other flag is a usage error (exit 2) that names it:
//!
//! * `--csv DIR` ([`Flag::Csv`]: `fig1`–`fig5`, `v_frontier`) — also write
//!   the plotted series as CSV files into `DIR`,
//! * `--faults PLAN` ([`Flag::Faults`]: `fig2`, `fig4`, `baselines`) —
//!   overlay a `grefar_faults::FaultPlan` (inline DSL spec or a path to a
//!   spec file) on the generated inputs before any scheduler runs; without
//!   the flag the inputs are untouched,
//! * the observability plane ([`Flag::Observability`]: `fig2`, `fig4`,
//!   `baselines`) — `--telemetry FILE` streams structured events (JSONL)
//!   to `FILE` and prints an aggregate summary after the regular output
//!   (see [`Telemetry`]); `--metrics-snapshot`, `--metrics-listen`,
//!   `--alerts` and `--profile` stack the metrics layer, alert rules and
//!   span profiler on it (see [`ObsPlane`]). Without these flags the
//!   regular output is byte-identical and the instrumentation is disabled.
//!
//! `grefar_cli` parses its own, wider flag set.
//!
//! Output is plain aligned text: the same rows/series the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use grefar_served::signal;

use grefar_metrics::{shared_handle, MetricsConfig, MetricsLayer, MetricsServer, SnapshotSink};
use grefar_obs::{Event, JsonlSink, MemoryObserver, Observer, SpanClock, SpanProfiler};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// The cost-delay values swept in Fig. 2.
pub const FIG2_V_VALUES: [f64; 4] = [0.1, 2.5, 7.5, 20.0];

/// The paper's default GreFar operating point (Figs. 3–5).
pub const DEFAULT_V: f64 = 7.5;

/// The fairness weight used where the paper uses "β = 100".
///
/// β is *not* unit-invariant: it weighs a fairness score in `[-0.3, 0]`
/// against an energy cost whose scale depends on the (undisclosed)
/// normalization of work, prices and `R(t)` in the paper's simulator. We
/// calibrate instead to the paper's *operating point*: the β at which
/// GreFar's fairness crosses above the Always baseline while the energy
/// increase over β = 0 stays marginal (Figs. 3 and 4). In this workspace's
/// normalization that knee sits at β ≈ 300; see EXPERIMENTS.md.
pub const DEFAULT_BETA: f64 = 300.0;

/// A shared flag group beyond `--hours` and `--seed` that an experiment
/// binary honors; [`ExperimentOpts::from_args`] rejects the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--csv DIR`: the binary writes its plotted series as CSV.
    Csv,
    /// `--faults PLAN`: the binary overlays the fault plan on its inputs.
    Faults,
    /// `--telemetry`, `--metrics-snapshot`, `--metrics-listen`, `--alerts`
    /// and `--profile`: the binary runs under the observability plane.
    Observability,
}

impl Flag {
    /// The group a shared flag belongs to (`None` for `--hours`, `--seed`
    /// and unknown arguments).
    fn of(arg: &str) -> Option<Flag> {
        match arg {
            "--csv" => Some(Flag::Csv),
            "--faults" => Some(Flag::Faults),
            "--telemetry" | "--metrics-snapshot" | "--metrics-listen" | "--alerts"
            | "--profile" => Some(Flag::Observability),
            _ => None,
        }
    }

    fn usage(self) -> &'static str {
        match self {
            Flag::Csv => " [--csv DIR]",
            Flag::Faults => " [--faults PLAN]",
            Flag::Observability => {
                " [--telemetry FILE|-] [--metrics-snapshot FILE|-] [--metrics-listen ADDR] \
                 [--alerts RULES] [--profile logical|wall]"
            }
        }
    }
}

/// Options common to all experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentOpts {
    /// The flag groups this binary honors.
    pub flags: &'static [Flag],
    /// Simulation horizon in hours (slots).
    pub hours: usize,
    /// Master seed for all stochastic processes.
    pub seed: u64,
    /// Optional directory for CSV dumps of the plotted series.
    pub csv_dir: Option<PathBuf>,
    /// Optional JSONL file for structured telemetry events (`-` = stdout).
    pub telemetry: Option<PathBuf>,
    /// Optional fault plan: an inline DSL spec or a path to a spec file.
    pub faults: Option<String>,
    /// Optional Prometheus exposition snapshot file (`-` = one dump to
    /// stdout at the end of the run).
    pub metrics_snapshot: Option<PathBuf>,
    /// Optional `ADDR:PORT` for the blocking `/metrics` + `/healthz`
    /// listener.
    pub metrics_listen: Option<String>,
    /// Optional alert rules: an inline `grefar_metrics::alerts` DSL spec
    /// or a path to a spec file.
    pub alerts: Option<String>,
    /// Optional span-profiler clock (requires `--telemetry`, which carries
    /// the `profile.span` trailer events).
    pub profile: Option<SpanClock>,
}

/// Prints a usage error to stderr and exits with status 2, the
/// conventional "command-line usage error" code.
///
/// Shared by every experiment binary so malformed invocations (a flag
/// missing its value, an unknown flag) produce a clean diagnostic instead
/// of a panic with a backtrace.
pub fn usage_error(message: &str, usage: &str) -> ! {
    eprintln!("error: {message}\nusage: {usage}");
    std::process::exit(2);
}

/// Resolves a `--faults` value into a [`grefar_faults::FaultPlan`]: if the
/// value names a readable file its contents are the spec, otherwise the
/// value itself is parsed as an inline DSL spec
/// (e.g. `"outage:dc=0,start=30,end=40"`).
///
/// Exits with a usage error (status 2) when the spec does not parse.
pub fn load_fault_plan(spec: &str, usage: &str) -> grefar_faults::FaultPlan {
    let text = match std::fs::read_to_string(spec) {
        Ok(contents) => contents.trim().to_string(),
        Err(_) => spec.to_string(),
    };
    match grefar_faults::FaultPlan::parse(&text) {
        // Chaos clauses (actor kills, stalls, socket drops) target the
        // daemon's supervision tree; a batch run has no actors to kill, so
        // silently accepting them would make the plan look exercised when
        // it never was.
        Ok(plan) if plan.has_chaos() => usage_error(
            "--faults: chaos clauses (kill/stall/sockdrop) only apply to grefar-served's --chaos",
            usage,
        ),
        Ok(plan) => plan,
        Err(e) => usage_error(&format!("--faults: {e}"), usage),
    }
}

/// Resolves a `--feeds` value into a [`grefar_ingest::FeedProfile`]: if the
/// value names a readable file its contents are the spec, otherwise the
/// value itself is parsed as an inline DSL spec
/// (e.g. `"drop:feed=price,p=0.25,start=0,end=500;policy:retries=1"`).
///
/// Exits with a usage error (status 2) when the spec does not parse.
pub fn load_feed_profile(spec: &str, usage: &str) -> grefar_ingest::FeedProfile {
    let text = match std::fs::read_to_string(spec) {
        Ok(contents) => contents.trim().to_string(),
        Err(_) => spec.to_string(),
    };
    match grefar_ingest::FeedProfile::parse(&text) {
        Ok(profile) => profile,
        Err(e) => usage_error(&format!("--feeds: {e}"), usage),
    }
}

/// Resolves an `--alerts` value into a rule list: if the value names a
/// readable file its contents are the spec, otherwise the value itself is
/// parsed as an inline `grefar_metrics::alerts` DSL spec
/// (e.g. `"deg:degraded_events>0;occ:occupancy_pct>90,for=3"`).
///
/// Exits with a usage error (status 2) when the spec does not parse.
pub fn load_alert_rules(spec: &str, usage: &str) -> Vec<grefar_metrics::AlertRule> {
    let text = match std::fs::read_to_string(spec) {
        Ok(contents) => contents.trim().to_string(),
        Err(_) => spec.to_string(),
    };
    match grefar_metrics::parse_rules(&text) {
        Ok(rules) => rules,
        Err(e) => usage_error(&format!("--alerts: {e}"), usage),
    }
}

/// Applies the `--faults` plan (when one was given) to freshly generated
/// inputs — the shared wiring for sweep-style experiment binaries, whose
/// faults act through the data path only (solver squeezes need the full
/// runtime path, which only `grefar_cli` drives).
///
/// Exits with a usage error (status 2) when the plan does not parse or
/// references data centers or job classes the scenario does not have.
pub fn apply_fault_plan(
    inputs: grefar_sim::SimulationInputs,
    opts: &ExperimentOpts,
) -> grefar_sim::SimulationInputs {
    match opts.fault_plan() {
        Some(plan) => inputs
            .with_faults(&plan)
            .unwrap_or_else(|e| usage_error(&format!("--faults: {e}"), &opts.usage())),
        None => inputs,
    }
}

impl ExperimentOpts {
    /// Parses `--hours`, `--seed` and the shared flags in `flags` from the
    /// process arguments, with `default_hours` as the horizon default.
    ///
    /// On malformed arguments (unknown flag, a shared flag outside
    /// `flags`, missing or unparsable value) prints a usage message to
    /// stderr and exits with status 2.
    pub fn from_args(default_hours: usize, flags: &'static [Flag]) -> Self {
        let mut opts = Self {
            flags,
            hours: default_hours,
            seed: 2012,
            csv_dir: None,
            telemetry: None,
            faults: None,
            metrics_snapshot: None,
            metrics_listen: None,
            alerts: None,
            profile: None,
        };
        let usage = opts.usage();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let value = |i: usize| -> &str {
                match args.get(i + 1) {
                    Some(v) => v,
                    None => usage_error(&format!("missing value after {}", args[i]), &usage),
                }
            };
            if Flag::of(&args[i]).is_some_and(|f| !flags.contains(&f)) {
                usage_error(
                    &format!("{} is not supported by this binary", args[i]),
                    &usage,
                );
            }
            match args[i].as_str() {
                "--hours" => {
                    opts.hours = value(i)
                        .parse()
                        .unwrap_or_else(|_| usage_error("--hours expects an integer", &usage));
                    i += 2;
                }
                "--seed" => {
                    opts.seed = value(i)
                        .parse()
                        .unwrap_or_else(|_| usage_error("--seed expects an integer", &usage));
                    i += 2;
                }
                "--csv" => {
                    opts.csv_dir = Some(PathBuf::from(value(i)));
                    i += 2;
                }
                "--telemetry" => {
                    opts.telemetry = Some(PathBuf::from(value(i)));
                    i += 2;
                }
                "--faults" => {
                    opts.faults = Some(value(i).to_string());
                    i += 2;
                }
                "--metrics-snapshot" => {
                    opts.metrics_snapshot = Some(PathBuf::from(value(i)));
                    i += 2;
                }
                "--metrics-listen" => {
                    opts.metrics_listen = Some(value(i).to_string());
                    i += 2;
                }
                "--alerts" => {
                    opts.alerts = Some(value(i).to_string());
                    i += 2;
                }
                "--profile" => {
                    opts.profile = Some(SpanClock::parse(value(i)).unwrap_or_else(|| {
                        usage_error("--profile expects 'logical' or 'wall'", &usage)
                    }));
                    i += 2;
                }
                other => usage_error(&format!("unknown argument {other}"), &usage),
            }
        }
        if opts.hours == 0 {
            usage_error("--hours must be positive", &usage);
        }
        validate_obs_flags(
            opts.telemetry.as_deref(),
            opts.metrics_snapshot.as_deref(),
            opts.profile,
            &usage,
        );
        opts
    }

    /// The usage line: `--hours`, `--seed` and the honored flag groups.
    fn usage(&self) -> String {
        let flags: String = self.flags.iter().map(|f| f.usage()).collect();
        format!("[--hours N] [--seed S]{flags}")
    }

    /// The CSV path for `name` if `--csv` was given.
    pub fn csv_path(&self, name: &str) -> Option<PathBuf> {
        self.csv_dir.as_ref().map(|d| d.join(name))
    }

    /// The observability stack for this invocation: telemetry sink,
    /// metrics layer, span profiler and `/metrics` listener, as requested
    /// by the flags. Inactive (a pass-through) when none were given.
    pub fn observability(&self) -> ObsPlane {
        ObsPlane::build(
            self.telemetry.as_deref(),
            false,
            self.metrics_snapshot.as_deref(),
            self.metrics_listen.as_deref(),
            self.alerts.as_deref(),
            self.profile,
            &self.usage(),
        )
    }

    /// The parsed `--faults` plan, if one was given. The experiment
    /// binaries apply its *data* faults to the frozen inputs (see
    /// `grefar_sim::SimulationInputs::with_faults`); solver squeezes act
    /// through the full runtime path, which only `grefar_cli` drives.
    ///
    /// Exits with a usage error (status 2) when the spec does not parse.
    pub fn fault_plan(&self) -> Option<grefar_faults::FaultPlan> {
        self.faults
            .as_deref()
            .map(|spec| load_fault_plan(spec, &self.usage()))
    }
}

/// The telemetry pipeline shared by the experiment binaries: every event is
/// aggregated in memory (for the end-of-run summary table) and, when a path
/// is given, streamed to a JSONL file — one JSON object per line, schema
/// documented at [`grefar_obs`].
///
/// Implements [`Observer`], so it plugs directly into
/// [`grefar_sim::SteppedRun`] (directly or through
/// [`grefar_sim::Simulation::run_with_observer`]) and
/// [`grefar_sim::sweep::run_all_observed_until`]. Call [`Telemetry::finish`] after
/// the regular experiment output to flush the file and print the summary.
pub struct Telemetry {
    memory: MemoryObserver,
    sink: Option<JsonlSink<Box<dyn Write>>>,
    path: Option<PathBuf>,
    to_stdout: bool,
}

impl Telemetry {
    /// In-memory aggregation only (no JSONL file).
    pub fn new() -> Self {
        Self {
            memory: MemoryObserver::new(),
            sink: None,
            path: None,
            to_stdout: false,
        }
    }

    /// Aggregates in memory *and* streams every event to `path` as JSONL.
    ///
    /// # Panics
    /// Panics if the file cannot be created.
    pub fn with_jsonl(path: &Path) -> Self {
        let file = File::create(path)
            .unwrap_or_else(|e| panic!("cannot create telemetry file {}: {e}", path.display()));
        Self {
            memory: MemoryObserver::new(),
            sink: Some(JsonlSink::new(Box::new(BufWriter::new(file)))),
            path: Some(path.to_path_buf()),
            to_stdout: false,
        }
    }

    /// Like [`with_jsonl`](Telemetry::with_jsonl), but *appends* to `path`
    /// instead of truncating it — used when resuming a checkpointed run so
    /// the continued events extend the original stream into one contiguous
    /// JSONL document.
    ///
    /// # Panics
    /// Panics if the file cannot be opened for append.
    pub fn append_jsonl(path: &Path) -> Self {
        let file = File::options()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| {
                panic!(
                    "cannot open telemetry file {} for append: {e}",
                    path.display()
                )
            });
        Self {
            memory: MemoryObserver::new(),
            sink: Some(JsonlSink::new(Box::new(BufWriter::new(file)))),
            path: Some(path.to_path_buf()),
            to_stdout: false,
        }
    }

    /// Streams every event to stdout as JSONL (`--telemetry -`). The
    /// aggregate summary then goes to *stderr*, so stdout stays a pure,
    /// pipeable JSONL document.
    pub fn to_stdout() -> Self {
        Self {
            memory: MemoryObserver::new(),
            sink: Some(JsonlSink::new(Box::new(std::io::stdout().lock()))),
            path: None,
            to_stdout: true,
        }
    }

    /// The in-memory aggregation (counters, gauges, histograms).
    pub fn memory(&self) -> &MemoryObserver {
        &self.memory
    }

    /// Flushes the JSONL output and prints the aggregate summary table —
    /// to stdout normally, to stderr when the events themselves stream to
    /// stdout.
    ///
    /// # Panics
    /// Panics if the JSONL file saw write errors — a truncated event stream
    /// should not pass silently.
    pub fn finish(mut self) {
        let summary = format!(
            "\ntelemetry ({} events)\n{}",
            self.memory.total_events(),
            self.memory.summary()
        );
        if self.to_stdout {
            eprint!("{summary}");
        } else {
            print!("{summary}");
        }
        if let Some(mut sink) = self.sink.take() {
            sink.flush().expect("flush telemetry file");
            assert_eq!(
                sink.io_errors(),
                0,
                "telemetry file had {} write errors",
                sink.io_errors()
            );
        }
        if let Some(path) = &self.path {
            println!("(wrote {})", path.display());
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Observer for Telemetry {
    fn record_event(&mut self, event: Event) {
        if let Some(sink) = &mut self.sink {
            sink.record_event(event.clone());
        }
        self.memory.record_event(event);
    }

    fn add_counter(&mut self, name: &'static str, delta: u64) {
        self.memory.add_counter(name, delta);
    }

    fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.memory.set_gauge(name, value);
    }

    fn record_value(&mut self, name: &'static str, value: f64) {
        self.memory.record_value(name, value);
    }
}

/// Validates the combinations of observability flags shared by every
/// binary; exits with a usage error (status 2) on conflicts.
///
/// * `--profile` needs `--telemetry` — the profiler's `profile.span`
///   trailer events have nowhere to go otherwise.
/// * `--telemetry -` and `--metrics-snapshot -` cannot both claim stdout.
pub fn validate_obs_flags(
    telemetry: Option<&Path>,
    metrics_snapshot: Option<&Path>,
    profile: Option<SpanClock>,
    usage: &str,
) {
    let is_stdout = |p: Option<&Path>| p.is_some_and(|p| p.as_os_str() == "-");
    if profile.is_some() && telemetry.is_none() {
        usage_error("--profile requires --telemetry", usage);
    }
    if is_stdout(telemetry) && is_stdout(metrics_snapshot) {
        usage_error(
            "--telemetry - and --metrics-snapshot - both claim stdout; \
             give at least one of them a file",
            usage,
        );
    }
}

/// The telemetry end of the stack: a [`Telemetry`] pipeline, or nothing.
enum TelemetrySink {
    Null(grefar_obs::NullObserver),
    Telemetry(Telemetry),
}

impl Observer for TelemetrySink {
    fn enabled(&self) -> bool {
        matches!(self, TelemetrySink::Telemetry(_))
    }

    fn record_event(&mut self, event: Event) {
        if let TelemetrySink::Telemetry(tel) = self {
            tel.record_event(event);
        }
    }

    fn add_counter(&mut self, name: &'static str, delta: u64) {
        if let TelemetrySink::Telemetry(tel) = self {
            tel.add_counter(name, delta);
        }
    }

    fn set_gauge(&mut self, name: &'static str, value: f64) {
        if let TelemetrySink::Telemetry(tel) = self {
            tel.set_gauge(name, value);
        }
    }

    fn record_value(&mut self, name: &'static str, value: f64) {
        if let TelemetrySink::Telemetry(tel) = self {
            tel.record_value(name, value);
        }
    }
}

/// The stack below the profiler: the metrics layer wraps the telemetry
/// sink when any metrics surface was requested, otherwise events pass
/// straight through.
enum Stack {
    Plain(TelemetrySink),
    Metrics(Box<MetricsLayer<TelemetrySink>>),
}

impl Stack {
    fn observer(&mut self) -> &mut dyn Observer {
        match self {
            Stack::Plain(sink) => sink,
            Stack::Metrics(layer) => layer.as_mut(),
        }
    }

    fn observer_enabled(&self) -> bool {
        match self {
            Stack::Plain(sink) => sink.enabled(),
            Stack::Metrics(layer) => layer.enabled(),
        }
    }
}

/// The live observability plane of one experiment invocation, composed
/// from the shared flags (see [`ExperimentOpts::observability`]):
///
/// ```text
/// instrumented code
///   └─ ObsPlane                  (this struct, an Observer)
///        ├─ SpanProfiler         (--profile; consumes span_* hooks)
///        └─ MetricsLayer         (--metrics-snapshot / --metrics-listen)
///             └─ Telemetry       (--telemetry; JSONL file or stdout)
/// ```
///
/// Pass `&mut plane` wherever a `&mut dyn Observer` is expected, then call
/// [`finish`](ObsPlane::finish) after the regular experiment output. When
/// no observability flag was given the plane [is
/// inactive](ObsPlane::is_active) and everything is a no-op — callers keep
/// using the unobserved fast path so default output stays byte-identical.
pub struct ObsPlane {
    stack: Stack,
    profiler: Option<SpanProfiler>,
    server: Option<MetricsServer>,
}

impl ObsPlane {
    /// Composes the plane. `telemetry`/`metrics_snapshot` understand `-`
    /// as stdout; `append_telemetry` opens the telemetry file in append
    /// mode (resumed runs) and pre-seeds the metrics fold from the
    /// truncated stream so aggregates rebuild identically.
    ///
    /// Exits with a usage error (status 2) on conflicting flags or an
    /// unbindable `--metrics-listen` address.
    pub fn build(
        telemetry: Option<&Path>,
        append_telemetry: bool,
        metrics_snapshot: Option<&Path>,
        metrics_listen: Option<&str>,
        alerts: Option<&str>,
        profile: Option<SpanClock>,
        usage: &str,
    ) -> Self {
        validate_obs_flags(telemetry, metrics_snapshot, profile, usage);
        let telemetry_is_stdout = telemetry.is_some_and(|p| p.as_os_str() == "-");
        let sink = match telemetry {
            None => TelemetrySink::Null(grefar_obs::NullObserver),
            Some(_) if telemetry_is_stdout => TelemetrySink::Telemetry(Telemetry::to_stdout()),
            Some(path) if append_telemetry => {
                TelemetrySink::Telemetry(Telemetry::append_jsonl(path))
            }
            Some(path) => TelemetrySink::Telemetry(Telemetry::with_jsonl(path)),
        };
        // Alert rules ride on the metrics fold, so --alerts alone still
        // stands the metrics layer up (fired events flow to telemetry).
        let metrics_wanted =
            metrics_snapshot.is_some() || metrics_listen.is_some() || alerts.is_some();
        let (stack, shared) = if metrics_wanted {
            let config = MetricsConfig {
                sink: match metrics_snapshot {
                    None => SnapshotSink::None,
                    Some(p) if p.as_os_str() == "-" => SnapshotSink::Stdout,
                    Some(p) => SnapshotSink::File(p.to_path_buf()),
                },
                rules: alerts.map_or_else(Vec::new, |spec| load_alert_rules(spec, usage)),
                ..MetricsConfig::default()
            };
            let shared = shared_handle();
            let mut layer = MetricsLayer::new(sink, config).with_shared(shared.clone());
            if append_telemetry && !telemetry_is_stdout {
                if let Some(path) = telemetry {
                    match std::fs::read_to_string(path) {
                        Ok(text) => {
                            if let Err(e) = layer.prefold_jsonl(&text) {
                                eprintln!("warning: metrics prefold of {}: {e}", path.display());
                            }
                        }
                        Err(e) => {
                            eprintln!("warning: cannot re-read {}: {e}", path.display());
                        }
                    }
                }
            }
            (Stack::Metrics(Box::new(layer)), Some(shared))
        } else {
            (Stack::Plain(sink), None)
        };
        let server = metrics_listen.map(|addr| {
            let shared = shared.expect("metrics stack present when listening");
            match MetricsServer::spawn(addr, shared) {
                Ok(server) => {
                    eprintln!("metrics listener on http://{}/metrics", server.addr());
                    server
                }
                Err(e) => usage_error(&format!("--metrics-listen {addr}: {e}"), usage),
            }
        });
        ObsPlane {
            stack,
            profiler: profile.map(SpanProfiler::new),
            server,
        }
    }

    /// Whether any observability flag is in play. Callers branch on this
    /// to keep the unobserved fast path byte-identical.
    pub fn is_active(&self) -> bool {
        !matches!(&self.stack, Stack::Plain(TelemetrySink::Null(_))) || self.profiler.is_some()
    }

    /// Tears the plane down in trailer order: the metrics layer's final
    /// `health.snapshot`, then the profiler's `profile.span` events, then
    /// the telemetry summary. Shuts the `/metrics` listener down last.
    /// Snapshot-write failures are reported to stderr but do not fail the
    /// run.
    pub fn finish(self) {
        let mut sink = match self.stack {
            Stack::Plain(sink) => sink,
            Stack::Metrics(layer) => {
                let (sink, outcome) = layer.into_parts();
                if let Err(e) = outcome {
                    eprintln!("warning: {e}");
                }
                sink
            }
        };
        if let Some(mut profiler) = self.profiler {
            profiler.emit_into(&mut sink);
        }
        if let TelemetrySink::Telemetry(tel) = sink {
            tel.finish();
        }
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// Honors a latched termination signal at a safe boundary: when
/// [`signal::triggered`], tears the observability plane down in the usual
/// trailer order — so the telemetry written so far is whole and diffable —
/// and exits with the conventional `128 + signo` status. When no signal
/// has arrived the plane is handed back untouched.
///
/// Binaries call this right after each sweep phase (never mid-run): a
/// cancelled sweep returns only whole runs, so the stream ends cleanly at
/// a run boundary and the partially-filled tables are simply not printed.
pub fn exit_if_signaled(plane: ObsPlane) -> ObsPlane {
    if signal::triggered() {
        let signo = signal::last_signal();
        eprintln!("grefar: caught signal {signo}, flushing partial telemetry and exiting");
        plane.finish();
        std::process::exit(128 + signo);
    }
    plane
}

impl Observer for ObsPlane {
    fn enabled(&self) -> bool {
        self.stack.observer_enabled()
    }

    fn record_event(&mut self, event: Event) {
        self.stack.observer().record_event(event);
    }

    fn add_counter(&mut self, name: &'static str, delta: u64) {
        self.stack.observer().add_counter(name, delta);
    }

    fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.stack.observer().set_gauge(name, value);
    }

    fn record_value(&mut self, name: &'static str, value: f64) {
        self.stack.observer().record_value(name, value);
    }

    fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    fn span_enter(&mut self, name: &'static str) {
        if let Some(profiler) = &mut self.profiler {
            profiler.span_enter(name);
        }
    }

    fn span_exit(&mut self, name: &'static str) {
        if let Some(profiler) = &mut self.profiler {
            profiler.span_exit(name);
        }
    }

    fn span_leaf(&mut self, name: &'static str, count: u64) {
        if let Some(profiler) = &mut self.profiler {
            profiler.span_leaf(name, count);
        }
    }
}

/// Renders an aligned text table (a header row and numeric rows) to a
/// string, one trailing newline per row.
///
/// # Panics
/// Panics if a row's width differs from the header's.
pub fn format_table(headers: &[&str], rows: &[Vec<f64>]) -> String {
    let width = 12usize;
    let mut out = String::new();
    let header_line: Vec<String> = headers.iter().map(|h| format!("{h:>width$}")).collect();
    out.push_str(&header_line.join(" "));
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch");
        let line: Vec<String> = row.iter().map(|v| format!("{v:>width$.4}")).collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
    out
}

/// Prints an aligned text table: a header row and numeric rows.
///
/// # Panics
/// Panics if a row's width differs from the header's.
pub fn print_table(headers: &[&str], rows: &[Vec<f64>]) {
    print!("{}", format_table(headers, rows));
}

/// Writes labeled series (columns) to a CSV file if a path is given.
/// Column 0 is the slot index.
///
/// # Panics
/// Panics if the series lengths differ or the file cannot be written.
pub fn maybe_write_csv(path: Option<PathBuf>, labels: &[&str], columns: &[&[f64]]) {
    let Some(path) = path else { return };
    assert_eq!(labels.len(), columns.len(), "label/column count mismatch");
    let len = columns.first().map_or(0, |c| c.len());
    assert!(
        columns.iter().all(|c| c.len() == len),
        "column length mismatch"
    );
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create csv directory");
    }
    let mut headers = vec!["slot"];
    headers.extend_from_slice(labels);
    let rows = (0..len).map(|t| {
        let mut row = Vec::with_capacity(columns.len() + 1);
        row.push(t as f64);
        row.extend(columns.iter().map(|c| c[t]));
        row
    });
    grefar_trace::csv::write_csv(&path, &headers, rows).expect("write csv");
    println!("(wrote {})", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_path_composition() {
        let opts = ExperimentOpts {
            flags: &[Flag::Csv],
            hours: 10,
            seed: 1,
            csv_dir: Some(PathBuf::from("/tmp/x")),
            telemetry: None,
            faults: None,
            metrics_snapshot: None,
            metrics_listen: None,
            alerts: None,
            profile: None,
        };
        assert_eq!(
            opts.csv_path("a.csv").unwrap(),
            PathBuf::from("/tmp/x/a.csv")
        );
        let no_csv = ExperimentOpts {
            csv_dir: None,
            ..opts
        };
        assert_eq!(no_csv.csv_path("a.csv"), None);
    }

    #[test]
    fn telemetry_fans_out_to_memory() {
        let mut tel = Telemetry::new();
        tel.record_event(Event::new("slot").field("t", 0u64));
        tel.record_value("slot.wall_us", 12.0);
        tel.add_counter("slots", 1);
        assert_eq!(tel.memory().event_count("slot"), 1);
        assert_eq!(tel.memory().counter("slots"), 1);
        assert_eq!(tel.memory().histogram("slot.wall_us").unwrap().count(), 1);
    }
}
