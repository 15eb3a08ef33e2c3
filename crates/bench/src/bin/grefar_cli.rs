//! `grefar_cli` — run any scheduler against the paper scenario or against
//! replayed CSV traces, from the command line.
//!
//! ```text
//! USAGE:
//!   grefar_cli [--scheduler NAME] [--v V] [--beta B] [--hours N] [--seed S]
//!              [--load-scale X] [--prices FILE] [--workload FILE]
//!              [--admission-cap C] [--csv DIR] [--telemetry FILE.jsonl|-]
//!              [--faults PLAN] [--feeds PROFILE] [--checkpoint FILE]
//!              [--checkpoint-every N] [--kill-at SLOT] [--resume]
//!              [--metrics-snapshot FILE|-] [--metrics-listen ADDR]
//!              [--alerts RULES] [--profile logical|wall]
//!
//! SCHEDULERS:
//!   grefar (default) | always | local-only | price-greedy | mpc
//! ```
//!
//! With `--prices`/`--workload`, the CSV traces (see
//! `grefar_trace::import`) replace the synthetic processes; both files must
//! cover the requested horizon or they are cycled.
//!
//! `--faults` overlays a fault plan (inline DSL spec or a path to a spec
//! file) on the run: data faults transform the frozen inputs, solver
//! squeezes throttle the scheduler at run time, and `fault.inject` /
//! `degraded.mode` events appear in the telemetry.
//!
//! `--feeds` interposes the resilient feed layer (inline
//! `grefar_ingest::FeedProfile` DSL spec or a path to a spec file): the
//! scheduler acts on estimated state with retry/backoff/breaker semantics,
//! `feed.*` / `state.stale` events appear in the telemetry, and the
//! emitted `theory.bounds` carries the degraded staleness certificate.
//! Without the flag the run is byte-identical to the plain engine.
//!
//! `--checkpoint FILE` snapshots the full simulation state to `FILE` every
//! `--checkpoint-every N` slots (default 100). `--kill-at SLOT` injects a
//! crash just before `SLOT` (checkpoint written first; exit status 3), and
//! `--resume` continues bit-identically from the checkpoint — rebuild the
//! run with the *same* seed/scheduler/fault flags, and pass the same
//! `--telemetry FILE` to extend the original stream in place.
//!
//! `--metrics-snapshot FILE` folds the event stream into a Prometheus
//! text-format exposition, atomically rewritten on a slot cadence (`-` =
//! one dump to stdout at the end). `--metrics-listen ADDR` serves the same
//! exposition live at `GET /metrics` plus a three-state health verdict at
//! `GET /healthz`. `--alerts RULES` evaluates declarative alert rules
//! (inline `grefar_metrics::alerts` DSL spec or a path to a spec file)
//! against the fold as the run progresses: fired rules appear as
//! `alert.fire`/`alert.resolve` telemetry events, in the health snapshot,
//! and on the listener's `GET /alerts` endpoint. `--profile logical|wall`
//! attributes time across the
//! per-slot span tree and appends `profile.span` events to the telemetry
//! stream (`grefar-report profile` renders them; the logical clock is
//! fully deterministic).
//!
//! `SIGTERM`/`SIGINT` are honored at checkpoint boundaries: with
//! `--checkpoint`, the first signal cuts the run at the next boundary —
//! checkpoint written, telemetry flushed — and exits `128 + signo` with a
//! `--resume` hint. Without `--checkpoint` there is no safe cut point, so
//! the first signal latches and a second one terminates immediately.

use grefar_bench::{
    format_table, load_fault_plan, load_feed_profile, maybe_write_csv, signal, usage_error,
    ObsPlane,
};
use grefar_cluster::AvailabilityProcess;
use grefar_core::{Always, GreFar, GreFarParams, LocalOnly, PriceGreedy, Scheduler};
use grefar_obs::SpanClock;
use grefar_sim::{
    Checkpoint, MpcScheduler, PaperScenario, RunPolicy, SimError, Simulation, SimulationInputs,
    SteppedRun,
};
use grefar_trace::import::{load_price_trace, load_workload_trace};
use grefar_trace::{PriceProcess, ReplayPrice, ReplayWorkload};
use std::path::PathBuf;

/// Exit status when `--kill-at` fired: the run was deliberately cut short
/// after writing its checkpoint (distinct from usage errors, status 2).
const EXIT_KILLED: i32 = 3;

#[derive(Debug)]
struct CliOptions {
    scheduler: String,
    v: f64,
    beta: f64,
    hours: usize,
    seed: u64,
    load_scale: f64,
    prices: Option<PathBuf>,
    workload: Option<PathBuf>,
    admission_cap: Option<f64>,
    csv_dir: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    faults: Option<String>,
    feeds: Option<String>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
    kill_at: Option<u64>,
    resume: bool,
    metrics_snapshot: Option<PathBuf>,
    metrics_listen: Option<String>,
    alerts: Option<String>,
    profile: Option<SpanClock>,
}

const USAGE: &str = "grefar_cli [--scheduler grefar|always|local-only|price-greedy|mpc] \
                     [--v V] [--beta B] [--hours N] [--seed S] [--load-scale X] \
                     [--prices FILE] [--workload FILE] [--admission-cap C] \
                     [--csv DIR] [--telemetry FILE.jsonl|-] [--faults PLAN] [--feeds PROFILE] \
                     [--checkpoint FILE] [--checkpoint-every N] [--kill-at SLOT] [--resume] \
                     [--metrics-snapshot FILE|-] [--metrics-listen ADDR] \
                     [--alerts RULES] [--profile logical|wall]";

fn parse_args() -> CliOptions {
    let mut opts = CliOptions {
        scheduler: "grefar".into(),
        v: 7.5,
        beta: 0.0,
        hours: 24 * 30,
        seed: 2012,
        load_scale: 1.0,
        prices: None,
        workload: None,
        admission_cap: None,
        csv_dir: None,
        telemetry: None,
        faults: None,
        feeds: None,
        checkpoint: None,
        checkpoint_every: 100,
        kill_at: None,
        resume: false,
        metrics_snapshot: None,
        metrics_listen: None,
        alerts: None,
        profile: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            match args.get(i + 1) {
                Some(v) => v,
                None => usage_error(&format!("missing value after {}", args[i]), USAGE),
            }
        };
        let number = |i: usize, what: &str| -> f64 {
            match value(i).parse() {
                Ok(v) => v,
                Err(_) => usage_error(&format!("{what} expects a number"), USAGE),
            }
        };
        match args[i].as_str() {
            "--scheduler" => opts.scheduler = value(i).to_string(),
            "--v" => opts.v = number(i, "--v"),
            "--beta" => opts.beta = number(i, "--beta"),
            "--hours" => {
                opts.hours = match value(i).parse() {
                    Ok(v) => v,
                    Err(_) => usage_error("--hours expects an integer", USAGE),
                }
            }
            "--seed" => {
                opts.seed = match value(i).parse() {
                    Ok(v) => v,
                    Err(_) => usage_error("--seed expects an integer", USAGE),
                }
            }
            "--load-scale" => opts.load_scale = number(i, "--load-scale"),
            "--prices" => opts.prices = Some(PathBuf::from(value(i))),
            "--workload" => opts.workload = Some(PathBuf::from(value(i))),
            "--admission-cap" => opts.admission_cap = Some(number(i, "--admission-cap")),
            "--csv" => opts.csv_dir = Some(PathBuf::from(value(i))),
            "--telemetry" => opts.telemetry = Some(PathBuf::from(value(i))),
            "--faults" => opts.faults = Some(value(i).to_string()),
            "--feeds" => opts.feeds = Some(value(i).to_string()),
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(value(i))),
            "--checkpoint-every" => {
                opts.checkpoint_every = match value(i).parse() {
                    Ok(v) => v,
                    Err(_) => usage_error("--checkpoint-every expects an integer", USAGE),
                }
            }
            "--kill-at" => {
                opts.kill_at = match value(i).parse() {
                    Ok(v) => Some(v),
                    Err(_) => usage_error("--kill-at expects a slot number", USAGE),
                }
            }
            "--resume" => {
                opts.resume = true;
                i -= 1; // flag without a value
            }
            "--metrics-snapshot" => opts.metrics_snapshot = Some(PathBuf::from(value(i))),
            "--metrics-listen" => opts.metrics_listen = Some(value(i).to_string()),
            "--alerts" => opts.alerts = Some(value(i).to_string()),
            "--profile" => {
                opts.profile =
                    Some(SpanClock::parse(value(i)).unwrap_or_else(|| {
                        usage_error("--profile expects 'logical' or 'wall'", USAGE)
                    }))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument {other}"), USAGE),
        }
        i += 2;
    }
    if opts.hours == 0 {
        usage_error("--hours must be positive", USAGE);
    }
    if opts.checkpoint_every == 0 {
        usage_error("--checkpoint-every must be positive", USAGE);
    }
    if opts.checkpoint.is_none() && (opts.kill_at.is_some() || opts.resume) {
        usage_error("--kill-at/--resume require --checkpoint FILE", USAGE);
    }
    opts
}

fn main() {
    signal::install();
    let opts = parse_args();
    let scenario = PaperScenario::default()
        .with_seed(opts.seed)
        .with_load_scale(opts.load_scale);
    let config = scenario.config().clone();

    // Inputs: synthetic scenario, optionally overridden by CSV replays.
    let inputs: SimulationInputs = if opts.prices.is_some() || opts.workload.is_some() {
        let mut price_procs: Vec<Box<dyn PriceProcess + Send>> = match &opts.prices {
            Some(path) => {
                let trace = load_price_trace(path).expect("readable price csv");
                assert_eq!(
                    trace.num_data_centers(),
                    config.num_data_centers(),
                    "price csv must have one column per data center"
                );
                (0..trace.num_data_centers())
                    .map(|i| {
                        Box::new(ReplayPrice::new(trace.rates(i))) as Box<dyn PriceProcess + Send>
                    })
                    .collect()
            }
            None => scenario.price_processes(),
        };
        let mut availability: Vec<Box<dyn AvailabilityProcess + Send>> =
            scenario.availability_processes();
        match &opts.workload {
            Some(path) => {
                let trace = load_workload_trace(path).expect("readable workload csv");
                assert_eq!(
                    trace.num_job_types(),
                    config.num_job_classes(),
                    "workload csv must have one column per job type"
                );
                let rows = (0..trace.num_slots())
                    .map(|t| trace.arrivals(t as u64).to_vec())
                    .collect();
                let mut workload = ReplayWorkload::new(rows);
                SimulationInputs::generate(
                    &config,
                    opts.hours,
                    opts.seed,
                    &mut price_procs,
                    &mut availability,
                    &mut workload,
                )
            }
            None => {
                let mut workload = scenario.workload();
                SimulationInputs::generate(
                    &config,
                    opts.hours,
                    opts.seed,
                    &mut price_procs,
                    &mut availability,
                    &mut workload,
                )
            }
        }
    } else {
        scenario.clone().into_inputs(opts.hours)
    };

    let scheduler: Box<dyn Scheduler> = match opts.scheduler.as_str() {
        "grefar" => Box::new(
            GreFar::new(&config, GreFarParams::new(opts.v, opts.beta)).expect("valid params"),
        ),
        "always" => Box::new(Always::new(&config)),
        "local-only" => Box::new(LocalOnly::new(&config)),
        "price-greedy" => Box::new(PriceGreedy::new(&config)),
        "mpc" => Box::new(MpcScheduler::new(&config, inputs.clone(), 6, 0.02)),
        other => panic!("unknown scheduler {other}; try --help"),
    };

    let mut sim = Simulation::new(config.clone(), inputs, scheduler);
    if let Some(cap) = opts.admission_cap {
        sim = sim.with_admission_cap(cap);
    }
    if let Some(spec) = &opts.faults {
        let plan = load_fault_plan(spec, USAGE);
        sim = match sim.with_fault_plan(plan) {
            Ok(sim) => sim,
            Err(e) => usage_error(&format!("--faults: {e}"), USAGE),
        };
    }
    if let Some(spec) = &opts.feeds {
        let profile = load_feed_profile(spec, USAGE);
        sim = match sim.with_feed_profile(profile) {
            Ok(sim) => sim,
            Err(e) => usage_error(&format!("--feeds: {e}"), USAGE),
        };
    }

    // A resumed run extends the original telemetry stream in place; when
    // metrics are on, the truncated prefix is pre-folded so aggregates
    // rebuild identically.
    let mut plane = ObsPlane::build(
        opts.telemetry.as_deref(),
        opts.resume,
        opts.metrics_snapshot.as_deref(),
        opts.metrics_listen.as_deref(),
        opts.alerts.as_deref(),
        opts.profile,
        USAGE,
    );
    if plane.is_active() {
        // Theorem 1 only speaks about GreFar runs; the label must match
        // run.start's scheduler name for grefar-report. A resumed run's
        // stream already carries its bounds.
        if opts.scheduler == "grefar" && !opts.resume {
            let bounded = vec![(sim.scheduler_name(), opts.v, opts.beta)];
            // Behind an unreliable feed layer the certificate is the
            // degraded one: Theorem 1(a) relaxed by the profile's
            // admissible staleness.
            let stale_slots = sim
                .feed_profile()
                .map_or(0, |p| p.staleness_bound(config.num_data_centers()));
            grefar_sim::theory_obs::emit_theory_bounds_stale(
                &config,
                sim.inputs(),
                &bounded,
                stale_slots,
                &mut plane,
            );
        }
    }

    let report = match &opts.checkpoint {
        None => sim.run_with_observer(&mut plane),
        Some(ck_path) => {
            let mut policy = RunPolicy::new(ck_path.clone(), opts.checkpoint_every)
                .with_kill_when(signal::triggered);
            if let Some(slot) = opts.kill_at {
                policy = policy.with_kill_at(slot);
            }
            let run = if opts.resume {
                match Checkpoint::load(ck_path) {
                    Ok(ck) => SteppedRun::resume(sim, ck),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                Ok(SteppedRun::new(sim))
            };
            match run.and_then(|run| run.complete(&mut plane, Some(&policy))) {
                Ok(report) => report,
                Err(SimError::Killed { slot, checkpoint }) => {
                    // Flush the (deliberately truncated) telemetry stream so
                    // the resumed run can append to a well-formed prefix. A
                    // latched SIGTERM/SIGINT reaches this same arm via the
                    // policy's kill_when predicate; it exits `128 + signo`
                    // instead of the --kill-at status.
                    plane.finish();
                    eprintln!(
                        "run killed before slot {slot}; checkpoint written to {}",
                        checkpoint.display()
                    );
                    if signal::triggered() {
                        eprintln!("re-run with --resume to continue from the checkpoint");
                        std::process::exit(128 + signal::last_signal());
                    }
                    std::process::exit(EXIT_KILLED);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
    };

    let mut summary = String::new();
    summary.push_str(&format!("scheduler        : {}\n", report.scheduler));
    summary.push_str(&format!("hours            : {}\n", report.horizon));
    summary.push_str(&format!(
        "avg energy cost  : {:.3}\n",
        report.average_energy_cost()
    ));
    summary.push_str(&format!(
        "avg fairness     : {:.4}\n",
        report.average_fairness()
    ));
    summary.push_str(&format!(
        "arriving work/h  : {:.2}\n",
        report.arriving_work.mean()
    ));
    summary.push_str(&format!(
        "jobs completed   : {}\n",
        report.completions.completed_total
    ));
    summary.push_str(&format!(
        "mean sojourn     : {:.2} h\n",
        report.completions.mean_sojourn
    ));
    summary.push_str(&format!(
        "max queue        : {:.0}\n",
        report.max_queue_length()
    ));
    if report.dropped_jobs > 0 {
        summary.push_str(&format!("dropped (adm.)   : {}\n", report.dropped_jobs));
    }
    summary.push('\n');
    let rows: Vec<Vec<f64>> = (0..report.num_data_centers())
        .map(|i| {
            vec![
                (i + 1) as f64,
                report.average_work_per_dc(i),
                report.average_dc_delay(i),
                report.dc_delay_quantiles[i].p95,
                report.completions.completed_per_dc[i] as f64,
            ]
        })
        .collect();
    summary.push_str(&format_table(
        &["dc", "avg_work", "avg_delay", "p95_delay", "completed"],
        &rows,
    ));
    // With `--telemetry -`, stdout is a machine-readable JSONL stream; the
    // human summary moves to stderr so the stream stays parseable.
    if opts.telemetry.as_deref() == Some(std::path::Path::new("-")) {
        eprint!("{summary}");
    } else {
        print!("{summary}");
    }

    if opts.csv_dir.is_some() {
        let path = opts.csv_dir.as_ref().map(|d| d.join("run_series.csv"));
        maybe_write_csv(
            path,
            &["energy_avg", "fairness_avg", "queue_total"],
            &[
                &report.energy.running(),
                &report.fairness.running(),
                &report.queue_total,
            ],
        );
    }

    plane.finish();
}
