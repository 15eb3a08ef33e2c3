//! End-to-end simulator throughput: simulated hours per second for the
//! paper scenario under each scheduler.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use grefar_core::{Always, GreFar, GreFarParams, Scheduler};
use grefar_sim::{PaperScenario, Simulation};
use grefar_types::SystemConfig;

/// Builds a fresh scheduler for one run.
type MakeScheduler = fn(&SystemConfig) -> Box<dyn Scheduler>;

fn bench_simulation(c: &mut Criterion) {
    let hours = 24 * 14; // two simulated weeks per iteration
    let scenario = PaperScenario::default().with_seed(5);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(hours);

    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(hours as u64));
    group.sample_size(20);

    let cases: [(&str, MakeScheduler); 3] = [
        ("always", |config| Box::new(Always::new(config))),
        ("grefar_beta0", |config| {
            Box::new(GreFar::new(config, GreFarParams::new(7.5, 0.0)).expect("valid"))
        }),
        ("grefar_beta100", |config| {
            Box::new(GreFar::new(config, GreFarParams::new(7.5, 100.0)).expect("valid"))
        }),
    ];
    for (name, scheduler) in cases {
        group.bench_function(name, |b| {
            // Each run consumes its own copy of the config and inputs; the
            // copies are made outside the timed part.
            b.iter_custom(|iters| {
                let mut spent = Duration::ZERO;
                for _ in 0..iters {
                    let sim = Simulation::new(config.clone(), inputs.clone(), scheduler(&config));
                    let t0 = Instant::now();
                    black_box(sim.run().average_energy_cost());
                    spent += t0.elapsed();
                }
                spent
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
