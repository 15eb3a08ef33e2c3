//! Checkpoint cost at a long-run cut: capturing the run state
//! (`SteppedRun::checkpoint`), encoding it (`Checkpoint::to_jsonl`) and
//! parsing the text back (`Checkpoint::parse`). The cut is taken after
//! 4 000 slots of the paper scenario (seed 5) under GreFar at β = 0, the
//! run the benchmark's `ckpt-feeds` workload checkpoints; all set-up runs
//! outside the timed closures.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use grefar_core::{GreFar, GreFarParams};
use grefar_obs::NullObserver;
use grefar_sim::{Checkpoint, PaperScenario, Simulation, SteppedRun};

const SLOTS: usize = 4_000;

fn bench_checkpoint(c: &mut Criterion) {
    let scenario = PaperScenario::default().with_seed(5);
    let config = scenario.config().clone();
    let scheduler = GreFar::new(&config, GreFarParams::new(7.5, 0.0)).expect("valid params");
    let sim = Simulation::new(config, scenario.into_inputs(SLOTS), Box::new(scheduler));
    let mut run = SteppedRun::new(sim);
    while run.step(&mut NullObserver) {}
    let checkpoint = run.checkpoint();
    // A checkpointing run frees an encoded checkpoint (about 1 MB here)
    // at every cut, after which glibc keeps freed heap pages rather than
    // returning them to the OS on each free. Free one here too, so the
    // timed cases see that allocator state, not page faults a real run
    // does not pay.
    drop(checkpoint.to_jsonl());
    let text = checkpoint.to_jsonl();

    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(20);
    group.bench_function("build", |b| b.iter(|| run.checkpoint()));
    group.bench_function("encode", |b| b.iter(|| black_box(&checkpoint).to_jsonl()));
    group.bench_function("parse", |b| {
        b.iter(|| Checkpoint::parse(black_box(&text)).expect("the encoding parses"))
    });
    group.finish();
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);
