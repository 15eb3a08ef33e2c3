//! The cost of enabled telemetry on the benchmark's `ckpt-feeds` run:
//! the paper scenario (seed 5) under GreFar at β = 0, behind its fault
//! plan and lossy feeds, one slot at a time under five sinks.
//!
//! * `null`: a `NullObserver`, so no event is built;
//! * `events_dropped`: an enabled sink that drops every event, so events
//!   are built and nothing else;
//! * `fold_dropped`: the metrics layer (`MetricsConfig::default()`, as
//!   `ckpt-feeds` runs it) over a dropping sink, so events are built and
//!   folded;
//! * `jsonl`: a `JsonlSink` writing to `io::sink()`, so events are built
//!   and serialised;
//! * `full_stack`: the metrics layer over that `JsonlSink`, the stack
//!   `ckpt-feeds` runs (minus the file it writes to).
//!
//! A sample is the mean cost of one slot over the run's first 1 000
//! slots; building the run stays outside the timed part. The difference
//! between a case and `null` is what that part of the stack costs a slot.

use std::io;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use grefar_core::{GreFar, GreFarParams};
use grefar_faults::FaultPlan;
use grefar_ingest::FeedProfile;
use grefar_metrics::{MetricsConfig, MetricsLayer};
use grefar_obs::{Event, JsonlSink, NullObserver, Observer};
use grefar_sim::{PaperScenario, Simulation, SteppedRun};

/// The benchmark's `ckpt-feeds` horizon; the first [`SLOTS`] are timed.
const HORIZON: usize = 4_000;
const SLOTS: usize = 1_000;
/// `ckpt-feeds`' fault plan and feed profile at full scale, seed 5.
const FAULTS: &str = "outage:dc=2,start=600,end=640;spike:dc=0,factor=3,start=1800,end=1900;\
                      burst:factor=2,start=2200,end=2240";
const FEEDS: &str = "drop:feed=price,p=0.3,start=100,end=1100;\
                     timeout:feed=avail,p=0.2,start=1500,end=2500;\
                     delay:feed=price,slots=2,start=2500,end=3000;\
                     outage:feed=price,dc=1,start=3200,end=3260;\
                     corrupt:feed=avail,p=0.05,mode=nan,start=3300,end=3800;policy:seed=5";

/// An enabled sink that drops every event it is handed.
struct Dropped;

impl Observer for Dropped {
    fn record_event(&mut self, event: Event) {
        black_box(event);
    }
}

fn fresh_run() -> SteppedRun {
    let scenario = PaperScenario::default().with_seed(5);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(HORIZON);
    let scheduler = GreFar::new(&config, GreFarParams::new(7.5, 0.0)).expect("valid params");
    let sim = Simulation::new(config, inputs, Box::new(scheduler))
        .with_fault_plan(FaultPlan::parse(FAULTS).expect("valid plan"))
        .expect("plan fits the paper scenario")
        .with_feed_profile(FeedProfile::parse(FEEDS).expect("valid profile"))
        .expect("profile fits the paper scenario");
    SteppedRun::new(sim)
}

/// The time of `iters` slots, at the mean cost of one over the first
/// [`SLOTS`] of fresh runs observed by `obs`.
fn per_slot(iters: u64, obs: &mut dyn Observer) -> Duration {
    let mut spent = Duration::ZERO;
    for _ in 0..iters {
        let mut run = fresh_run();
        let t0 = Instant::now();
        for _ in 0..SLOTS {
            run.step(obs);
        }
        spent += t0.elapsed();
    }
    spent / u32::try_from(SLOTS).unwrap_or(u32::MAX)
}

fn bench_telemetry(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(20);
    group.bench_function("null", |b| {
        b.iter_custom(|iters| per_slot(iters, &mut NullObserver))
    });
    group.bench_function("events_dropped", |b| {
        b.iter_custom(|iters| per_slot(iters, &mut Dropped))
    });
    let mut fold = MetricsLayer::new(Dropped, MetricsConfig::default());
    group.bench_function("fold_dropped", |b| {
        b.iter_custom(|iters| per_slot(iters, &mut fold))
    });
    let mut jsonl = JsonlSink::new(io::sink());
    group.bench_function("jsonl", |b| {
        b.iter_custom(|iters| per_slot(iters, &mut jsonl))
    });
    let mut stack = MetricsLayer::new(JsonlSink::new(io::sink()), MetricsConfig::default());
    group.bench_function("full_stack", |b| {
        b.iter_custom(|iters| per_slot(iters, &mut stack))
    });
    group.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
