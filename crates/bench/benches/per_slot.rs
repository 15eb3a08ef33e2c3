//! Per-slot decision latency of the GreFar slot solvers: exact greedy
//! (β = 0) and its scaling in system size, and Frank–Wolfe (β > 0) on
//! real states of the paper run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grefar_convex::FwOptions;
use grefar_core::{
    Always, GreFar, GreFarParams, QuadraticDeviation, QueueState, Scheduler, SlotInstance,
    SolverChoice,
};
use grefar_sim::PaperScenario;
use grefar_types::{
    DataCenterId, DataCenterState, JobClass, ServerClass, SystemConfig, SystemState, Tariff,
};

/// A synthetic system with `n` data centers and `j` job types.
fn synthetic(n: usize, j: usize) -> (SystemConfig, SystemState, QueueState) {
    let mut builder = SystemConfig::builder();
    for k in 0..n {
        builder = builder.server_class(ServerClass::new(
            1.0 + 0.1 * k as f64,
            1.0 + 0.05 * k as f64,
        ));
    }
    for i in 0..n {
        let mut fleet = vec![0.0; n];
        fleet[i] = 100.0;
        builder = builder.data_center(format!("dc{i}"), fleet);
    }
    builder = builder.account("acct", 1.0);
    for jj in 0..j {
        let eligible: Vec<DataCenterId> = (0..n).map(DataCenterId::new).collect();
        builder = builder.job_class(
            JobClass::new(1.0 + (jj % 4) as f64, eligible, 0)
                .with_max_arrivals(10.0)
                .with_max_route(10.0)
                .with_max_process(30.0),
        );
    }
    let config = builder.build().expect("valid synthetic config");

    let state = SystemState::new(
        0,
        (0..n)
            .map(|i| {
                let mut avail = vec![0.0; n];
                avail[i] = 100.0;
                DataCenterState::new(avail, Tariff::flat(0.3 + 0.05 * i as f64))
            })
            .collect(),
    );
    let mut queues = QueueState::new(&config);
    let mut z = config.decision_zeros();
    for jj in 0..j {
        for i in 0..n {
            z.routed[(i, jj)] = ((i * 7 + jj * 3) % 9) as f64;
        }
    }
    queues.apply(&z, &vec![0.0; j]);
    (config, state, queues)
}

fn bench_greedy_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("slot_greedy_scaling");
    for (n, j) in [(3usize, 12usize), (5, 24), (10, 48), (20, 96)] {
        let (config, state, queues) = synthetic(n, j);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("N{n}_J{j}")),
            &(config, state, queues),
            |bench, (config, state, queues)| {
                bench.iter(|| {
                    SlotInstance::new(config, state, queues, 7.5)
                        .solve_greedy()
                        .objective
                })
            },
        );
    }
    group.finish();
}

fn bench_greedy_paper_scenario(c: &mut Criterion) {
    let scenario = PaperScenario::default().with_seed(1);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(48);
    // A mid-run queue state: run a few warm-up slots with Always.
    let mut queues = QueueState::new(&config);
    let mut always = Always::new(&config);
    for t in 0..24 {
        let d = always.decide(inputs.state(t), &queues);
        queues.apply(&d, inputs.arrivals(t));
    }
    let state = inputs.state(24).clone();

    let mut group = c.benchmark_group("slot_paper_scenario");
    group.bench_function("greedy_beta0", |b| {
        b.iter(|| {
            SlotInstance::new(&config, &state, &queues, 7.5)
                .solve_greedy()
                .objective
        })
    });
    group.finish();
}

/// Slots of the seed-5 paper run at `V = 7.5`, `β = 100` (the `paper-fw`
/// benchmark's run) and the Frank–Wolfe iterations each takes: a typical
/// slot (the median decision takes 3) and one that runs into the cap.
const FW_SLOTS: [(usize, usize); 2] = [(50, 3), (450, 200)];

/// Frank–Wolfe at β = 100 on real states of the seed-5 paper run, with
/// the options GreFar runs it with.
fn bench_fw_paper_states(c: &mut Criterion) {
    let scenario = PaperScenario::default().with_seed(5);
    let config = scenario.config().clone();
    let last = FW_SLOTS.iter().map(|&(t, _)| t).max().unwrap_or(0);
    let inputs = scenario.into_inputs(last + 1);
    let mut grefar = GreFar::new(&config, GreFarParams::new(7.5, 100.0)).expect("valid params");
    let mut queues = QueueState::new(&config);
    let mut states = Vec::new();
    for t in 0..=last {
        if let Some(&(_, iterations)) = FW_SLOTS.iter().find(|&&(slot, _)| slot == t) {
            states.push((t, iterations, queues.clone()));
        }
        let d = grefar.decide(inputs.state(t), &queues);
        queues.apply(&d, inputs.arrivals(t));
    }
    let options = FwOptions {
        max_iters: 200,
        gap_tolerance: 1e-6,
        ..FwOptions::default()
    };

    let mut group = c.benchmark_group("slot_paper_fw");
    for (t, iterations, queues) in &states {
        let solve = || {
            SlotInstance::new(&config, inputs.state(*t), queues, 7.5).solve_with_fairness(
                100.0,
                &QuadraticDeviation,
                options,
            )
        };
        assert!(
            matches!(
                solve().solver,
                SolverChoice::FrankWolfe { iterations: n, .. } if n == *iterations
            ),
            "slot {t} no longer takes {iterations} iterations"
        );
        group.bench_function(format!("beta100_slot{t}_{iterations}it"), |b| {
            b.iter(|| solve().objective)
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_greedy_scaling,
    bench_greedy_paper_scenario,
    bench_fw_paper_states
);
criterion_main!(benches);
