//! Checkpoint cost on the paper scenario (seed 5) under GreFar at β = 0,
//! the run the benchmark's `ckpt-feeds` workload checkpoints:
//!
//! * `build`, `encode` and `parse` at the cut after 4 000 slots: capturing
//!   the run state once its series are encoded (`SteppedRun::checkpoint`),
//!   writing the JSONL text (`Checkpoint::to_jsonl`) and parsing it back
//!   (`Checkpoint::parse`);
//! * `encode_17520`: `to_jsonl` at the cut after 17 520 slots (two
//!   simulated years);
//! * `cut_every_24`: one cut (`checkpoint` then `to_jsonl`) as `ckpt-feeds`
//!   pays it: a 4 000-slot run cut every 24 slots, its cuts timed and
//!   averaged, its slots not.
//!
//! All other set-up runs outside the timed parts.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use grefar_core::{GreFar, GreFarParams};
use grefar_obs::NullObserver;
use grefar_sim::{Checkpoint, PaperScenario, Simulation, SteppedRun};

const SLOTS: usize = 4_000;
const TWO_YEARS: usize = 17_520;
const CUT_EVERY: usize = 24;

/// A fresh run of `slots` slots.
fn fresh_run(slots: usize) -> SteppedRun {
    let scenario = PaperScenario::default().with_seed(5);
    let config = scenario.config().clone();
    let scheduler = GreFar::new(&config, GreFarParams::new(7.5, 0.0)).expect("valid params");
    SteppedRun::new(Simulation::new(
        config,
        scenario.into_inputs(slots),
        Box::new(scheduler),
    ))
}

/// The run after all `slots` slots, and its cut.
fn cut_after(slots: usize) -> (SteppedRun, Checkpoint) {
    let mut run = fresh_run(slots);
    while run.step(&mut NullObserver) {}
    let checkpoint = run.checkpoint();
    (run, checkpoint)
}

fn bench_checkpoint(c: &mut Criterion) {
    let (mut run, checkpoint) = cut_after(SLOTS);
    // A checkpointing run frees an encoded checkpoint (about 1 MB here)
    // at every cut, after which glibc keeps freed heap pages rather than
    // returning them to the OS on each free. Free one here too, so the
    // timed cases see that allocator state, not page faults a real run
    // does not pay.
    drop(checkpoint.to_jsonl());
    let text = checkpoint.to_jsonl();
    let (_, two_years) = cut_after(TWO_YEARS);

    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(20);
    group.bench_function("build", |b| b.iter(|| run.checkpoint()));
    group.bench_function("encode", |b| b.iter(|| black_box(&checkpoint).to_jsonl()));
    group.bench_function("parse", |b| {
        b.iter(|| Checkpoint::parse(black_box(&text)).expect("the encoding parses"))
    });
    group.bench_function("encode_17520", |b| {
        b.iter(|| black_box(&two_years).to_jsonl())
    });
    group.bench_function("cut_every_24", |b| {
        b.iter_custom(|iters| {
            let mut spent = Duration::ZERO;
            let mut cuts = 0u32;
            for _ in 0..iters {
                let mut run = fresh_run(SLOTS);
                for slot in 1..=SLOTS {
                    run.step(&mut NullObserver);
                    if slot % CUT_EVERY == 0 && !run.is_done() {
                        let t0 = Instant::now();
                        black_box(run.checkpoint().to_jsonl());
                        spent += t0.elapsed();
                        cuts += 1;
                    }
                }
            }
            // The time of `iters` cuts, at the average cost of one.
            spent * u32::try_from(iters).unwrap_or(u32::MAX) / cuts.max(1)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
