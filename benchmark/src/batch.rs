//! The batch workloads: the simulator driven slot by slot through
//! `SteppedRun`, as the daemon and the soak drive it.
//!
//! * `paper-fw` — GreFar at β = 100 on the paper scenario for two
//!   simulated years, no observer. Frank–Wolfe does the slot's work, and
//!   the horizon is long enough for memory that grows with it to show.
//! * `ckpt-feeds` — the same scenario at β = 0 (exact greedy, about 1 µs
//!   per decision) behind lossy feeds and a fault plan, with JSONL
//!   telemetry behind a metrics layer and a checkpoint every 24 slots. The
//!   decision is nearly free, so the simulator's other layers dominate;
//!   solver changes should not move it.
//! * `mpc-lp` — the LP-based receding-horizon baseline over one simulated
//!   week, where the simplex solve is nearly the whole slot. It isolates
//!   `grefar-lp`.

use std::fs::File;
use std::hint::black_box;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use grefar_convex::FwOptions;
use grefar_core::theory::{slackness_delta_trace, TheoryBounds};
use grefar_core::{
    GreFar, GreFarParams, QuadraticDeviation, Scheduler, SlotInstance, SolverChoice,
};
use grefar_faults::FaultPlan;
use grefar_ingest::FeedProfile;
use grefar_metrics::{MetricsConfig, MetricsLayer};
use grefar_obs::{JsonlSink, NullObserver};
use grefar_sim::{MpcScheduler, PaperScenario, Simulation, SimulationReport, SteppedRun};
use grefar_types::SystemConfig;

use crate::json::Json;
use crate::report::Report;
use crate::stats::{median, median_tail, percentile, sorted, spread, tail, Tail};
use crate::sys;
use crate::trace::{self, Captured, Close, Recorder, Tally, Traced, TracedScheduler};
use crate::Settings;

/// GreFar's cost-delay parameter on every GreFar workload (the paper's
/// default operating point).
const V: f64 = 7.5;
/// β of `paper-fw`: large enough that Frank–Wolfe runs every slot.
const BETA_FW: f64 = 100.0;
/// Frank–Wolfe options `GreFarParams::new` gives the scheduler; the
/// replay re-solves with the same ones so it repeats the real work.
const FW_OPTIONS: FwOptions = FwOptions {
    max_iters: 200,
    gap_tolerance: 1e-6,
    line_search: grefar_convex::LineSearch::GoldenSection { iters: 40 },
};
/// `mpc-lp`'s lookahead (slots) and backlog holding weight.
const MPC_LOOKAHEAD: usize = 6;
const MPC_HOLDING: f64 = 0.02;
/// `ckpt-feeds` checkpoints after every this many slots.
const CHECKPOINT_EVERY: usize = 24;
/// Slots per block: each repetition's slot loop is cut into blocks of
/// this many slots (the remainder joins the last block). A block is the
/// unit that medians are taken over, so a second-long burst of
/// interference from elsewhere on the machine spoils a block, not a run.
/// It is large enough for a block's p99 to have ten samples beyond it.
const BLOCK_SLOTS: usize = 1_000;
/// Set-ups timed (and dropped) before the measured repetitions: at least
/// this many, and more until [`SETUP_BUDGET_S`] is spent, so a set-up of a
/// fraction of a millisecond still gets a steady median.
const SETUP_SAMPLES: usize = 5;
const SETUP_BUDGET_S: f64 = 0.5;
/// Every this many decisions of the traced `paper-fw` run are re-solved
/// in isolation, each this many times (the median is kept).
const REPLAY_EVERY: u64 = 50;
const REPLAY_REPEATS: usize = 5;
/// A traced run fails when more than this share of its wall time lies
/// outside every layer span.
const RECONCILE_PCT: f64 = 5.0;
/// Relative tolerance of the seed-5 reference outcomes.
const REFERENCE_TOLERANCE: f64 = 1e-3;
/// Where the seed-5 reference outcomes live, relative to the checkout.
const REFERENCE_PATH: &str = "perf/benchmark/reference.json";

/// A batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    PaperFw,
    CkptFeeds,
    MpcLp,
}

impl Batch {
    pub const ALL: [Batch; 3] = [Batch::PaperFw, Batch::CkptFeeds, Batch::MpcLp];

    pub fn name(self) -> &'static str {
        match self {
            Batch::PaperFw => "paper-fw",
            Batch::CkptFeeds => "ckpt-feeds",
            Batch::MpcLp => "mpc-lp",
        }
    }

    fn full_horizon(self) -> usize {
        match self {
            Batch::PaperFw => 17_520,
            Batch::CkptFeeds => 4_000,
            // One simulated week: an LP slot costs ~18 ms, so several
            // repetitions fit in a run.
            Batch::MpcLp => 168,
        }
    }

    fn horizon(self, s: &Settings) -> usize {
        self.full_horizon() / s.scale()
    }

    /// GreFar's β on the GreFar workloads.
    fn beta(self) -> f64 {
        if self == Batch::PaperFw {
            BETA_FW
        } else {
            0.0
        }
    }
}

/// `ckpt-feeds`' data faults, with slot windows divided by `scale`.
fn fault_spec(scale: usize) -> String {
    let w = |slot: usize| slot / scale;
    format!(
        "outage:dc=2,start={},end={};spike:dc=0,factor=3,start={},end={};\
         burst:factor=2,start={},end={}",
        w(600),
        w(640),
        w(1800),
        w(1900),
        w(2200),
        w(2240)
    )
}

/// `ckpt-feeds`' feed disruptions (drops and timeouts that retry, a lag,
/// an outage long enough to open a breaker, corrupt records), windows
/// divided by `scale`; the client's random draws follow the seed.
fn feed_spec(scale: usize, seed: u64) -> String {
    let w = |slot: usize| slot / scale;
    format!(
        "drop:feed=price,p=0.3,start={},end={};timeout:feed=avail,p=0.2,start={},end={};\
         delay:feed=price,slots=2,start={},end={};outage:feed=price,dc=1,start={},end={};\
         corrupt:feed=avail,p=0.05,mode=nan,start={},end={};policy:seed={seed}",
        w(100),
        w(1100),
        w(1500),
        w(2500),
        w(2500),
        w(3000),
        w(3200),
        w(3260),
        w(3300),
        w(3800)
    )
}

/// Which scheduler a build carries.
enum Wrap {
    Bare,
    Traced(Option<(u64, Captured)>),
}

/// The schedule-level outcome of a run: equal outcomes mean equal runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcomes {
    scheduler: String,
    energy: f64,
    fairness: f64,
    completed: u64,
    dropped: u64,
    queue_peak: f64,
    mean_sojourn: f64,
}

impl Outcomes {
    fn of(report: &SimulationReport) -> Self {
        Self {
            scheduler: report.scheduler.clone(),
            energy: report.average_energy_cost(),
            fairness: report.average_fairness(),
            completed: report.completions.completed_total,
            dropped: report.dropped_jobs,
            queue_peak: report.max_queue_length(),
            mean_sojourn: report.completions.mean_sojourn,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("scheduler", self.scheduler.as_str())
            .with("energy", self.energy)
            .with("fairness", self.fairness)
            .with("completed", self.completed)
            .with("dropped", self.dropped)
            .with("queue_peak", self.queue_peak)
            .with("mean_sojourn", self.mean_sojourn)
    }

    fn numbers(&self) -> [f64; 6] {
        [
            self.energy,
            self.fairness,
            self.completed as f64,
            self.dropped as f64,
            self.queue_peak,
            self.mean_sojourn,
        ]
    }

    /// `(within tolerance, bit-exact)` against a reference object.
    fn against(&self, reference: &Json, tolerance: f64) -> (bool, bool) {
        let keys = [
            "energy",
            "fairness",
            "completed",
            "dropped",
            "queue_peak",
            "mean_sojourn",
        ];
        let mut close = reference.get("scheduler").and_then(Json::as_str) == Some(&self.scheduler);
        let mut exact = close;
        for (key, mine) in keys.iter().zip(self.numbers()) {
            match reference.get(key).and_then(Json::as_f64) {
                Some(theirs) => {
                    exact &= theirs.to_bits() == mine.to_bits();
                    close &= (mine - theirs).abs() <= tolerance * theirs.abs().max(1e-12);
                }
                None => {
                    close = false;
                    exact = false;
                }
            }
        }
        (close, exact)
    }
}

/// A set-up run, ready for its first slot.
struct Setup {
    run: SteppedRun,
    telemetry: Option<MetricsLayer<JsonlSink<BufWriter<File>>>>,
}

/// What one pass over the slots produced.
struct Pass {
    wall_s: f64,
    slots: usize,
    ledger_failures: u64,
    /// Seconds spent building and writing checkpoints.
    checkpoint_s: f64,
    /// Resident set after the last slot, before the report is folded.
    rss_mib: f64,
    /// Seconds from the first step to the end of each block.
    block_ends_s: Vec<f64>,
    outcomes: Outcomes,
}

/// One block of a pass: its wall time and its step-time percentiles.
struct Block {
    wall_s: f64,
    p50: Option<f64>,
    tail: Option<Tail>,
}

/// Cuts a pass's step times into blocks.
fn blocks(step_us: &[f64], block_ends_s: &[f64]) -> Vec<Block> {
    let mut from = (0, 0.0);
    block_ends(step_us.len())
        .into_iter()
        .zip(block_ends_s)
        .map(|(end, &end_s)| {
            let steps = sorted(&step_us[from.0..end]);
            let block = Block {
                wall_s: end_s - from.1,
                p50: percentile(&steps, 50.0),
                tail: tail(&steps),
            };
            from = (end, end_s);
            block
        })
        .collect()
}

/// The slot counts at which blocks end, for a pass of `slots` slots.
fn block_ends(slots: usize) -> Vec<usize> {
    let mut ends: Vec<usize> = (1..=slots / BLOCK_SLOTS).map(|k| k * BLOCK_SLOTS).collect();
    match ends.last_mut() {
        Some(last) => *last = slots,
        None => ends.push(slots),
    }
    ends
}

impl Batch {
    /// Builds the simulation: scenario, inputs, plans, scheduler.
    fn build(self, s: &Settings, wrap: Wrap) -> Result<Simulation, String> {
        let scenario = PaperScenario::default().with_seed(s.seed);
        let config = scenario.config().clone();
        let inputs = scenario.into_inputs(self.horizon(s));
        let scheduler: Box<dyn Scheduler> = match self {
            Batch::PaperFw | Batch::CkptFeeds => Box::new(
                GreFar::new(&config, GreFarParams::new(V, self.beta()))
                    .map_err(|e| format!("scheduler: {e}"))?,
            ),
            Batch::MpcLp => Box::new(MpcScheduler::new(
                &config,
                inputs.clone(),
                MPC_LOOKAHEAD,
                MPC_HOLDING,
            )),
        };
        let scheduler = match wrap {
            Wrap::Bare => scheduler,
            Wrap::Traced(capture) => Box::new(TracedScheduler::new(scheduler, capture)),
        };
        let mut sim =
            Simulation::try_new(config, inputs, scheduler).map_err(|e| format!("build: {e}"))?;
        if self == Batch::CkptFeeds {
            let plan = FaultPlan::parse(&fault_spec(s.scale())).map_err(|e| e.to_string())?;
            let feeds =
                FeedProfile::parse(&feed_spec(s.scale(), s.seed)).map_err(|e| e.to_string())?;
            sim = sim
                .with_fault_plan(plan)
                .map_err(|e| format!("faults: {e}"))?
                .with_feed_profile(feeds)
                .map_err(|e| format!("feeds: {e}"))?;
        }
        Ok(sim)
    }

    /// Everything a user sets up before the first slot: the simulation,
    /// wrapped for stepping, and `ckpt-feeds`' telemetry (JSONL behind the
    /// metrics layer).
    fn setup(self, s: &Settings) -> Result<Setup, String> {
        let run = SteppedRun::new(self.build(s, Wrap::Bare)?);
        let telemetry = match self {
            Batch::CkptFeeds => {
                let sink =
                    JsonlSink::create(telemetry_path(s)).map_err(|e| format!("telemetry: {e}"))?;
                Some(MetricsLayer::new(sink, MetricsConfig::default()))
            }
            _ => None,
        };
        Ok(Setup { run, telemetry })
    }

    /// Steps `slots` slots of a fresh set-up, untraced.
    fn pass(
        self,
        setup: Setup,
        s: &Settings,
        slots: usize,
        step_us: &mut Vec<f64>,
    ) -> Result<Pass, String> {
        let checkpoint = self.checkpoint_path(s);
        match setup.telemetry {
            Some(telemetry) => {
                pass_untraced(setup.run, telemetry, slots, checkpoint.as_deref(), step_us)
            }
            None => pass_untraced(setup.run, NullObserver, slots, None, step_us),
        }
    }

    /// Removes the previous repetition's files, so a set-up creates its
    /// files afresh instead of truncating large ones.
    fn clear_files(self, s: &Settings) {
        let _ = std::fs::remove_file(telemetry_path(s));
        if let Some(path) = self.checkpoint_path(s) {
            let _ = std::fs::remove_file(path);
        }
    }

    fn checkpoint_path(self, s: &Settings) -> Option<PathBuf> {
        (self == Batch::CkptFeeds).then(|| s.scratch.join("checkpoint.jsonl"))
    }

    /// The Theorem 1(a) queue bound for a GreFar run, widened for stale
    /// feeds exactly as the soak's occupancy oracle widens it; `None`
    /// when the inputs admit no slackness certificate (or the scheduler
    /// is not GreFar, which the theorem does not cover).
    fn occupancy_bound(self, config: &SystemConfig, s: &Settings) -> Result<Option<f64>, String> {
        if self == Batch::MpcLp {
            return Ok(None);
        }
        let sim = self.build(s, Wrap::Bare)?;
        let inputs = sim.inputs();
        let Some(delta) =
            slackness_delta_trace(config, &inputs.capacities(config), inputs.all_arrivals())
        else {
            return Ok(None);
        };
        let price_max = inputs
            .states()
            .iter()
            .flat_map(|state| (0..config.num_data_centers()).map(|i| state.data_center(i).price()))
            .fold(0.0f64, f64::max);
        let bounds = TheoryBounds::new(config, delta, price_max, self.beta());
        let stale = sim.feed_profile().map_or(0, |p| {
            p.staleness_bound(config.num_data_centers())
                .min(inputs.horizon() as u64)
        });
        let squeezed = sim.fault_plan().map_or(0, |plan| {
            (0..inputs.horizon() as u64)
                .filter(|&t| plan.fw_budget_at(t).is_some())
                .count()
        });
        Ok(Some(
            bounds.stale_queue_bound(V, stale) + bounds.q_max() * squeezed as f64,
        ))
    }
}

fn telemetry_path(s: &Settings) -> PathBuf {
    s.scratch.join("telemetry.jsonl")
}

/// Writes an encoded checkpoint to a fresh file in place of the previous
/// one, without the two fsyncs of `Checkpoint::write`. The untraced runs,
/// whose numbers carry bounds, write checkpoints this way; the traced run
/// calls `Checkpoint::write` itself.
///
/// Runs may only write inside the checkout, which may sit on a disk file
/// system (ext4 over a shared virtual disk, where the baselines were
/// taken). There those fsyncs cost ~17 ms per 1.4 MB checkpoint, and
/// rewriting one file in place (or renaming over it) makes ext4 start
/// writing every checkpoint back; both swung run times far more than any
/// bound. Unlinking the superseded checkpoint drops its pages unwritten,
/// so the untraced workload measures building and encoding checkpoints,
/// as it would on tmpfs.
fn write_checkpoint(text: &str, path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn ledger_balances(run: &SteppedRun) -> bool {
    let ledger = run.ledger();
    ledger.balance(run.queue_total()).abs() <= ledger.tolerance()
}

/// Steps `slots` slots untraced, timing each `step` call into `step_us`.
/// Wall time runs from the first step through `finish`, checkpoints
/// included.
fn pass_untraced<O: Close>(
    mut run: SteppedRun,
    mut obs: O,
    slots: usize,
    checkpoint: Option<&Path>,
    step_us: &mut Vec<f64>,
) -> Result<Pass, String> {
    let ends = block_ends(slots);
    let mut block_ends_s = Vec::with_capacity(ends.len());
    let start = Instant::now();
    let mut ledger_failures = 0;
    let mut checkpoint_s = 0.0;
    for i in 1..=slots {
        let t = Instant::now();
        run.step(&mut obs);
        step_us.push(t.elapsed().as_secs_f64() * 1e6);
        ledger_failures += u64::from(!ledger_balances(&run));
        if let Some(path) = checkpoint {
            if i % CHECKPOINT_EVERY == 0 && !run.is_done() {
                let t = Instant::now();
                write_checkpoint(&run.checkpoint().to_jsonl(), path)?;
                checkpoint_s += t.elapsed().as_secs_f64();
            }
        }
        if ends.get(block_ends_s.len()) == Some(&i) {
            block_ends_s.push(start.elapsed().as_secs_f64());
        }
    }
    let rss_mib = sys::rss_mib(None).unwrap_or(0.0);
    let report = run.finish(&mut obs);
    obs.close()?;
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64(),
        slots,
        ledger_failures,
        checkpoint_s,
        rss_mib,
        block_ends_s,
        outcomes: Outcomes::of(&report),
    })
}

/// The same loop with a span around every public call. Checkpoints go
/// through `Checkpoint::write`, the durable write `grefar_cli` uses (temp
/// file, fsync, rename, directory fsync), so its cost is the one
/// reported; `checkpoint_bytes` gets each one's size on disk.
fn pass_traced<I: Close>(
    mut run: SteppedRun,
    mut obs: Traced<I>,
    slots: usize,
    checkpoint: Option<&Path>,
    checkpoint_bytes: &mut Vec<u64>,
) -> Result<(Pass, Recorder, Tally), String> {
    trace::start();
    let start = Instant::now();
    trace::enter("run");
    let mut ledger_failures = 0;
    let mut checkpoint_s = 0.0;
    for i in 1..=slots {
        trace::set_slot(i as u64 - 1);
        trace::enter("sim.step");
        run.step(&mut obs);
        trace::exit();
        ledger_failures += u64::from(!ledger_balances(&run));
        if let Some(path) = checkpoint {
            if i % CHECKPOINT_EVERY == 0 && !run.is_done() {
                let t = Instant::now();
                trace::enter("sim.checkpoint");
                let ck = run.checkpoint();
                trace::exit();
                trace::enter("sim.checkpoint_write");
                let written = ck.write(path);
                trace::exit();
                written.map_err(|e| format!("checkpoint: {e}"))?;
                checkpoint_s += t.elapsed().as_secs_f64();
                checkpoint_bytes.push(sys::file_size(path));
            }
        }
    }
    let rss_mib = sys::rss_mib(None).unwrap_or(0.0);
    trace::enter("sim.finish");
    let report = run.finish(&mut obs);
    let tally = obs.tally;
    let closed = obs.close();
    trace::exit();
    trace::exit();
    let wall_s = start.elapsed().as_secs_f64();
    let recorder = trace::stop().ok_or("span recorder vanished")?;
    closed?;
    Ok((
        Pass {
            wall_s,
            slots,
            ledger_failures,
            checkpoint_s,
            rss_mib,
            block_ends_s: Vec::new(),
            outcomes: Outcomes::of(&report),
        },
        recorder,
        tally,
    ))
}

/// Runs the workload untraced: timed set-ups, then repetitions of the
/// whole horizon until the time budget is spent.
pub fn measure(batch: Batch, s: &Settings) -> Result<Report, String> {
    let mut report = Report::new(batch.name(), false);
    let horizon = batch.horizon(s);
    let started = Instant::now();
    let config = PaperScenario::default().config().clone();
    let bound = batch.occupancy_bound(&config, s)?;

    let mut setup_s = Vec::new();
    while setup_s.len() < SETUP_SAMPLES || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S {
        batch.clear_files(s);
        let t = Instant::now();
        let setup = batch.setup(s)?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(black_box(setup));
    }

    let mut step_us = Vec::with_capacity(horizon);
    let mut rates = Vec::new();
    // Wall time and step-time p50 of each block position, one entry per
    // repetition.
    let positions = block_ends(horizon).len();
    let mut block_walls: Vec<Vec<f64>> = vec![Vec::new(); positions];
    let mut block_p50: Vec<Vec<f64>> = vec![Vec::new(); positions];
    let mut block_tails = Vec::new();
    let mut ledger_failures = 0;
    let mut first: Option<Outcomes> = None;
    let mut repeatable = true;
    let mut last_rep_s = 0.0;
    while first.is_none() || started.elapsed().as_secs_f64() + last_rep_s <= s.seconds {
        batch.clear_files(s);
        let rep_start = Instant::now();
        let setup = batch.setup(s)?;
        setup_s.push(rep_start.elapsed().as_secs_f64());
        step_us.clear();
        let pass = batch.pass(setup, s, horizon, &mut step_us)?;
        for ((walls, p50s), block) in block_walls
            .iter_mut()
            .zip(&mut block_p50)
            .zip(blocks(&step_us, &pass.block_ends_s))
        {
            walls.push(block.wall_s);
            p50s.extend(block.p50);
            block_tails.extend(block.tail);
        }
        rates.push(pass.slots as f64 / pass.wall_s);
        report.operations(pass.slots as u64, pass.ledger_failures);
        ledger_failures += pass.ledger_failures;
        match &first {
            None => first = Some(pass.outcomes),
            Some(f) => repeatable &= *f == pass.outcomes,
        }
        last_rep_s = rep_start.elapsed().as_secs_f64();
    }
    let outcomes = first.ok_or("no repetition ran")?;
    let reps = rates.len();

    check_ledger(&mut report, ledger_failures, horizon * reps);
    check_occupancy(&mut report, bound, &outcomes);
    report.check(
        "repeatable",
        repeatable,
        format!(
            "{reps} repetitions of seed {} gave identical outcomes",
            s.seed
        ),
    );
    check_reference(batch, s, &outcomes, &mut report);

    // Per block position, the fastest repetition: interference from
    // elsewhere on the machine only ever adds time, so the fastest one is
    // the least disturbed (blocks differ systematically — later
    // checkpoints are larger — so positions are kept apart). Throughput is
    // the horizon over the sum of those wall times; the p50 latency is the
    // median across positions of each position's fastest block p50.
    let fastest = |values: &Vec<f64>| values.iter().copied().fold(f64::NAN, f64::min);
    let fastest_wall: f64 = block_walls.iter().map(fastest).sum();
    let fastest_p50: Vec<f64> = block_p50.iter().map(fastest).collect();
    // Within-run noise of the p50: its spread across repetitions at each
    // position (positions differ by design, repetitions only by noise).
    let p50_spreads: Vec<f64> = block_p50.iter().filter_map(|p50s| spread(p50s)).collect();
    report.set("setup_s", median(&setup_s).unwrap_or(f64::NAN));
    report.set("throughput_per_s", horizon as f64 / fastest_wall);
    report.set("latency_us_p50", median(&fastest_p50).unwrap_or(f64::NAN));
    report.note_tail("latency_us_p99", median_tail(&block_tails));
    report.set(
        "peak_rss_mib",
        sys::peak_rss_mib(None).ok_or("cannot read VmHWM")?,
    );
    report.note(
        "spread",
        Json::obj()
            .with("setup_s", spread(&setup_s))
            .with("throughput_per_s", spread(&rates))
            .with("latency_us_p50", median(&p50_spreads)),
    );
    report.note("repetitions", reps);
    report.note(
        "repetition_rates",
        Json::Arr(rates.iter().map(|&r| Json::from(r)).collect()),
    );
    report.note("blocks", block_p50.iter().map(Vec::len).sum::<usize>());
    report.note("setup_samples", setup_s.len());
    report.note("horizon", horizon);
    report.note("outcomes", outcomes.to_json());
    Ok(report)
}

fn check_ledger(report: &mut Report, failures: u64, slots: usize) {
    report.check(
        "ledger",
        failures == 0,
        format!(
            "JobLedger balanced against queue_total after {} of {slots} slots",
            slots as u64 - failures
        ),
    );
}

fn check_occupancy(report: &mut Report, bound: Option<f64>, outcomes: &Outcomes) {
    match bound {
        Some(bound) => report.check(
            "occupancy",
            outcomes.queue_peak <= bound * (1.0 + 1e-9),
            format!(
                "queue peak {} within the Theorem 1(a) bound {bound}",
                outcomes.queue_peak
            ),
        ),
        None => report.note("occupancy", "not checked: no slackness certificate applies"),
    }
}

/// For seed 5 at full size, compares the outcomes with the committed
/// reference: within 1e-3 relative passes, and bit-exactness is reported
/// on its own so a schedule-changing optimisation is visible but allowed.
fn check_reference(batch: Batch, s: &Settings, outcomes: &Outcomes, report: &mut Report) {
    if s.seed != 5 || s.smoke {
        return;
    }
    let reference = std::fs::read_to_string(REFERENCE_PATH)
        .map_err(|e| format!("{REFERENCE_PATH}: {e}"))
        .and_then(|text| Json::parse(&text));
    match reference {
        Ok(reference) => match reference.get(batch.name()) {
            Some(expected) => {
                let (close, exact) = outcomes.against(expected, REFERENCE_TOLERANCE);
                report.check(
                    "reference",
                    close,
                    format!("seed-5 outcomes within {REFERENCE_TOLERANCE} of {REFERENCE_PATH}"),
                );
                report.note("reference_exact", exact);
            }
            None => report.check("reference", false, format!("{REFERENCE_PATH} has no entry")),
        },
        Err(e) => report.check("reference", false, e),
    }
}

/// Runs the workload twice over the same slots — untraced, then traced —
/// and reports the per-layer metrics of the traced pass.
pub fn trace(batch: Batch, s: &Settings) -> Result<Report, String> {
    let mut report = Report::new(batch.name(), true);
    let slots = batch.horizon(s);
    let checkpoint = batch.checkpoint_path(s);
    let config = PaperScenario::default().config().clone();

    let bound = batch.occupancy_bound(&config, s)?;

    // Untraced twin: the overhead baseline, the identity reference, and
    // the operation latency tail.
    let setup = batch.setup(s)?;
    let rss_setup = sys::rss_mib(None).unwrap_or(0.0);
    let mut step_us = Vec::with_capacity(slots);
    let plain = batch.pass(setup, s, slots, &mut step_us)?;
    let rss_growth = plain.rss_mib - rss_setup;
    let tails: Vec<Tail> = blocks(&step_us, &plain.block_ends_s)
        .into_iter()
        .filter_map(|b| b.tail)
        .collect();
    report.set_tail("latency_us_p99", median_tail(&tails), s.smoke);

    // Traced pass.
    let captured: Captured = Arc::new(Mutex::new(Vec::new()));
    let capture = (batch == Batch::PaperFw).then(|| (REPLAY_EVERY, Arc::clone(&captured)));
    let run = SteppedRun::new(batch.build(s, Wrap::Traced(capture))?);
    let mut checkpoint_bytes = Vec::new();
    let (traced, rec, tally) = if batch == Batch::CkptFeeds {
        let stack = Traced::new(
            MetricsLayer::new(
                Traced::new(
                    JsonlSink::create(telemetry_path(s)).map_err(|e| e.to_string())?,
                    "obs.sink",
                ),
                MetricsConfig::default(),
            ),
            "metrics.layer",
        );
        pass_traced(
            run,
            stack,
            slots,
            checkpoint.as_deref(),
            &mut checkpoint_bytes,
        )?
    } else {
        let stack = Traced::new(NullObserver, "obs.sink");
        pass_traced(run, stack, slots, None, &mut checkpoint_bytes)?
    };
    if let Some(dir) = &s.trace_out {
        let path = dir.join(format!("trace-{}.json", batch.name()));
        rec.write_json(&path, batch.name())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    report.operations(
        (plain.slots + traced.slots) as u64,
        plain.ledger_failures + traced.ledger_failures,
    );
    check_ledger(
        &mut report,
        plain.ledger_failures + traced.ledger_failures,
        plain.slots + traced.slots,
    );
    check_occupancy(&mut report, bound, &traced.outcomes);
    report.check(
        "identity",
        plain.outcomes == traced.outcomes,
        format!(
            "traced and untraced outcomes over {slots} slots are bit-identical (untraced {}, traced {})",
            plain.outcomes.to_json().render(),
            traced.outcomes.to_json().render()
        ),
    );

    let (totals, self_ns) = rec.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let us = |ns: u64| ns as f64 / 1e3;
    let root = get("run");
    let wall_ns = root.total_ns.max(1);
    let unexplained_pct = 100.0 * root.self_ns as f64 / wall_ns as f64;
    let partition = self_ns.iter().sum::<u64>() == root.total_ns && rec.unbalanced() == 0;
    report.check(
        "reconcile",
        partition && unexplained_pct <= RECONCILE_PCT,
        format!(
            "layer self times cover {:.2}% of the traced wall time {:.3} s; the gap outside \
             every layer span (run loop between sim.* spans) is {unexplained_pct:.2}% \
             (limit {RECONCILE_PCT}%), unbalanced spans {}",
            100.0 - unexplained_pct,
            wall_ns as f64 / 1e9,
            rec.unbalanced()
        ),
    );

    let steps = get("sim.step").count.max(1) as f64;
    report.set(
        "sim.step.self_us",
        us(get("sim.step").self_ns + get("slot").self_ns) / steps,
    );
    report.set(
        "sim.queue_update.us",
        us(get("queue.update").total_ns) / steps,
    );
    report.set("sim.rss_growth_mib", rss_growth);
    let checkpoints = get("sim.checkpoint").count;
    report.set("sim.checkpoint.count", checkpoints as f64);
    if checkpoints > 0 {
        report.set(
            "sim.checkpoint.build_us",
            us(get("sim.checkpoint").total_ns) / checkpoints as f64,
        );
        report.set(
            "sim.checkpoint.write_us",
            us(get("sim.checkpoint_write").total_ns) / checkpoints as f64,
        );
    }
    report.set(
        "sim.checkpoint.bytes",
        checkpoint_bytes.iter().sum::<u64>() as f64,
    );
    report.set(
        "sim.checkpoint.bytes_last",
        checkpoint_bytes.last().copied().unwrap_or(0) as f64,
    );

    let decide = get("core.decide");
    let decide_us = sorted(&rec.durations_us("core.decide"));
    report.set("core.decide.calls", decide.count as f64);
    report.set(
        "core.decide.us_p50",
        percentile(&decide_us, 50.0).unwrap_or(0.0),
    );
    report.set(
        "core.decide.us_p99",
        tail(&decide_us).map_or(0.0, |t| t.value),
    );
    report.set("core.decide.us_total", us(decide.total_ns));
    report.set(
        "core.decide.self_us",
        us(decide.self_ns) / decide.count.max(1) as f64,
    );

    let iters_per_decide = rec.children_per("core.decide", "fw.iter");
    let iters_f64: Vec<f64> = iters_per_decide.iter().map(|&n| n as f64).collect();
    let fw = get("fw.iter");
    let iters_sorted = sorted(&iters_f64);
    report.set("convex.fw.iters", fw.count as f64);
    report.set(
        "convex.fw.iters_per_decide_p50",
        percentile(&iters_sorted, 50.0).unwrap_or(0.0),
    );
    report.set(
        "convex.fw.iters_per_decide_p99",
        tail(&iters_sorted).map_or(0.0, |t| t.value),
    );
    if fw.count > 0 {
        report.set("convex.fw.us_per_iter", us(fw.total_ns) / fw.count as f64);
    }
    report.note("fw_iterations_histogram", histogram(&iters_per_decide));

    let lp = get("lp.solve");
    let pivots_per_solve = rec.leaves("simplex.pivot");
    let pivots = pivots_per_solve.iter().sum::<u64>() as f64;
    let pivots_per_solve: Vec<f64> = pivots_per_solve.iter().map(|&n| n as f64).collect();
    report.set("lp.solve.us_total", us(lp.total_ns));
    report.set("lp.simplex.pivots", pivots);
    report.set(
        "lp.pivots_per_solve_p50",
        percentile(&sorted(&pivots_per_solve), 50.0).unwrap_or(0.0),
    );
    if pivots > 0.0 {
        report.set("lp.us_per_pivot", us(lp.total_ns) / pivots);
    }

    report.set("ingest.fetch.us_total", us(get("feed.fetch").total_ns));
    report.set("ingest.fetch.attempts", tally.fetch_attempts as f64);
    report.set("ingest.fetch.retries", tally.retries as f64);
    report.set("ingest.fetch.failed", tally.failed as f64);
    report.set("ingest.breaker.opens", tally.breaker_opens as f64);
    report.set("ingest.stale_slots", tally.stale_slots as f64);

    report.set("obs.sink.us_total", us(get("obs.sink").total_ns));
    report.set("metrics.fold.us_total", us(get("metrics.layer").self_ns));
    if batch == Batch::CkptFeeds {
        let path = telemetry_path(s);
        let text = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        report.set(
            "obs.events",
            text.iter().filter(|&&b| b == b'\n').count() as f64,
        );
        report.set("obs.bytes", text.len() as f64);
    }

    // The traced run writes checkpoints durably and the untraced one does
    // not, so the overhead compares the two loops without their checkpoints.
    report.set(
        "trace.overhead_pct",
        100.0 * ((traced.wall_s - traced.checkpoint_s) / (plain.wall_s - plain.checkpoint_s) - 1.0),
    );
    report.set("trace.unexplained_pct", unexplained_pct);

    if batch == Batch::PaperFw {
        let captured = std::mem::take(&mut *captured.lock().map_err(|_| "capture lock poisoned")?);
        replay(&config, &captured, &iters_per_decide, &mut report);
    }

    report.note(
        "self_us",
        totals.iter().fold(Json::obj(), |o, (name, t)| {
            o.with(
                name,
                Json::obj()
                    .with("count", t.count)
                    .with("total", us(t.total_ns))
                    .with("self", us(t.self_ns)),
            )
        }),
    );
    report.note("traced_slots", slots);
    report.note("untraced_wall_s", plain.wall_s);
    report.note("traced_wall_s", traced.wall_s);
    report.note("outcomes", traced.outcomes.to_json());
    Ok(report)
}

/// Re-times the slot solve on states sampled from the real β = 100 run,
/// in isolation, and checks each replay repeats the decision's FW
/// iteration count.
fn replay(
    config: &SystemConfig,
    captured: &[(u64, grefar_types::SystemState, grefar_core::QueueState)],
    iters_per_decide: &[u64],
    report: &mut Report,
) {
    let mut solve_us = Vec::with_capacity(captured.len());
    let mut mismatches = Vec::new();
    for (call, state, queues) in captured {
        let mut times = Vec::with_capacity(REPLAY_REPEATS);
        let mut iterations = 0;
        for _ in 0..REPLAY_REPEATS {
            let t = Instant::now();
            let solution = SlotInstance::new(config, state, queues, V).solve_with_fairness(
                BETA_FW,
                &QuadraticDeviation,
                FW_OPTIONS,
            );
            times.push(t.elapsed().as_secs_f64() * 1e6);
            if let SolverChoice::FrankWolfe { iterations: n, .. } = black_box(solution).solver {
                iterations = n;
            }
        }
        solve_us.push(median(&times).unwrap_or(f64::NAN));
        let decided = iters_per_decide.get(*call as usize).copied();
        if decided != Some(iterations as u64) {
            mismatches.push(format!(
                "call {call}: replay {iterations}, decide {decided:?}"
            ));
        }
    }
    let solve_sorted = sorted(&solve_us);
    report.set(
        "core.solve_replay.us_p50",
        percentile(&solve_sorted, 50.0).unwrap_or(0.0),
    );
    report.set(
        "core.solve_replay.us_p99",
        tail(&solve_sorted).map_or(0.0, |t| t.value),
    );
    report.note("solve_replay_states", captured.len());
    report.note(
        "solve_replay_tail_quantile",
        tail(&solve_sorted).map_or(Json::Null, |t| Json::from(u64::from(t.quantile))),
    );
    report.check(
        "replay",
        !captured.is_empty() && mismatches.is_empty(),
        format!(
            "{} sampled states re-solved in isolation repeat the decision's FW iterations{}",
            captured.len(),
            if mismatches.is_empty() {
                String::new()
            } else {
                format!(": {}", mismatches.join("; "))
            }
        ),
    );
}

/// Counts of FW iterations per decision, in fixed buckets.
fn histogram(iters: &[u64]) -> Json {
    const EDGES: [(u64, u64, &str); 8] = [
        (0, 0, "0"),
        (1, 1, "1"),
        (2, 5, "2-5"),
        (6, 10, "6-10"),
        (11, 20, "11-20"),
        (21, 50, "21-50"),
        (51, 100, "51-100"),
        (101, u64::MAX, "101+"),
    ];
    EDGES.iter().fold(Json::obj(), |o, (lo, hi, label)| {
        o.with(
            label,
            iters.iter().filter(|&&n| n >= *lo && n <= *hi).count(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings() -> Settings {
        Settings {
            seed: 3,
            seconds: 0.0,
            smoke: true,
            scratch: std::env::temp_dir(),
            trace_out: None,
        }
    }

    fn run_with_budget(wrap: bool, budget: Option<usize>) -> Outcomes {
        let s = settings();
        let w = if wrap { Wrap::Traced(None) } else { Wrap::Bare };
        let mut run = SteppedRun::new(Batch::PaperFw.build(&s, w).unwrap());
        run.set_deadline_budget(budget);
        for _ in 0..48 {
            run.step(&mut NullObserver);
        }
        Outcomes::of(&run.finish(&mut NullObserver))
    }

    #[test]
    fn scheduler_wrapper_forwards_the_solver_budget() {
        // A one-iteration budget changes the β = 100 schedule, and the
        // wrapped scheduler must see it exactly as the bare one does.
        let squeezed = run_with_budget(false, Some(1));
        assert_ne!(squeezed, run_with_budget(false, None));
        assert_eq!(squeezed, run_with_budget(true, Some(1)));
    }

    #[test]
    fn blocks_are_whole_thousands_with_the_remainder_in_the_last() {
        assert_eq!(block_ends(4_000), vec![1_000, 2_000, 3_000, 4_000]);
        assert_eq!(block_ends(2_520), vec![1_000, 2_520]);
        assert_eq!(block_ends(1_000), vec![1_000]);
        assert_eq!(block_ends(50), vec![50]);
    }

    #[test]
    fn smoke_specs_parse_and_scale() {
        for scale in [1, 20] {
            FaultPlan::parse(&fault_spec(scale)).unwrap();
            FeedProfile::parse(&feed_spec(scale, 7)).unwrap();
        }
        assert!(fault_spec(20).contains("start=30,end=32"));
    }

    #[test]
    fn reference_comparison_separates_close_from_exact() {
        let o = Outcomes {
            scheduler: "GreFar(V=7.5, beta=0)".into(),
            energy: 1.0,
            fairness: 2.0,
            completed: 10,
            dropped: 0,
            queue_peak: 5.0,
            mean_sojourn: 3.0,
        };
        let same = o.to_json();
        assert_eq!(o.against(&same, 1e-3), (true, true));
        let near = same.clone().with("energy", 1.0005);
        assert_eq!(o.against(&near, 1e-3), (true, false));
        let far = same.clone().with("energy", 1.01);
        assert_eq!(o.against(&far, 1e-3), (false, false));
        let renamed = same.with("scheduler", "Always");
        assert!(!o.against(&renamed, 1e-3).0);
    }
}
