//! Simplex solve time vs problem size, lookahead-style frame LPs, and one
//! MPC horizon solve as the `mpc-lp` benchmark workload runs it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grefar_lp::{LpProblem, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random dense covering LP: min c·x s.t. A x ≥ b, 0 ≤ x ≤ 10.
fn covering_lp(vars: usize, rows: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = LpProblem::minimize(vars);
    for j in 0..vars {
        p.set_objective(j, 0.5 + rng.gen_range(0.0..1.0));
        p.set_upper_bound(j, 10.0);
    }
    for _ in 0..rows {
        let coeffs: Vec<(usize, f64)> = (0..vars)
            .map(|j| (j, 0.05 + rng.gen_range(0.0..1.0)))
            .collect();
        p.add_constraint(&coeffs, Relation::Ge, rng.gen_range(1.0..8.0));
    }
    p
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    for (vars, rows) in [(20usize, 10usize), (60, 30), (150, 60), (300, 120)] {
        let p = covering_lp(vars, rows, 42);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{vars}v_{rows}c")),
            &p,
            |b, p| b.iter(|| p.solve().expect("feasible").objective()),
        );
    }
    group.finish();
}

fn bench_frame_lp(c: &mut Criterion) {
    use grefar_core::TStepLookahead;
    use grefar_types::{
        DataCenterId, DataCenterState, JobClass, ServerClass, SystemConfig, SystemState, Tariff,
    };

    let config = SystemConfig::builder()
        .server_class(ServerClass::new(1.0, 1.0))
        .data_center("a", vec![30.0])
        .data_center("b", vec![30.0])
        .account("x", 1.0)
        .job_class(
            JobClass::new(1.0, vec![DataCenterId::new(0), DataCenterId::new(1)], 0)
                .with_max_arrivals(8.0)
                .with_max_route(8.0)
                .with_max_process(20.0),
        )
        .build()
        .expect("valid");

    let mut group = c.benchmark_group("lookahead_frame");
    for frame in [4usize, 12, 24] {
        let states: Vec<SystemState> = (0..frame)
            .map(|t| {
                SystemState::new(
                    t as u64,
                    vec![
                        DataCenterState::new(vec![30.0], Tariff::flat(0.3 + 0.01 * t as f64)),
                        DataCenterState::new(vec![30.0], Tariff::flat(0.5 - 0.01 * t as f64)),
                    ],
                )
            })
            .collect();
        let arrivals: Vec<Vec<f64>> = (0..frame).map(|t| vec![(t % 5) as f64]).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("T{frame}")),
            &(states, arrivals),
            |b, (states, arrivals)| {
                let la = TStepLookahead::new(states.len()).expect("valid frame");
                b.iter(|| {
                    la.plan(&config, states, arrivals)
                        .expect("feasible")
                        .average_cost
                })
            },
        );
    }
    group.finish();
}

/// One `MpcScheduler::decide` (H = 6, w = 0.02) on slot 24 of the seed-5
/// paper scenario, after 24 warm-up slots. Its horizon LP prices far more
/// columns per pivot than the covering LPs above, so it shows the
/// simplex's pricing cost the way the MPC week sees it.
fn bench_mpc_decide(c: &mut Criterion) {
    use grefar_core::{QueueState, Scheduler};
    use grefar_sim::{MpcScheduler, PaperScenario};

    const WARM_UP: usize = 24;
    let scenario = PaperScenario::default().with_seed(5);
    let config = scenario.config().clone();
    let inputs = scenario.into_inputs(168);
    let mut mpc = MpcScheduler::new(&config, inputs.clone(), 6, 0.02);
    let mut queues = QueueState::new(&config);
    for t in 0..WARM_UP {
        let decision = mpc.decide(inputs.state(t), &queues);
        queues.apply(&decision, inputs.arrivals(t));
    }
    let state = inputs.state(WARM_UP);

    let mut group = c.benchmark_group("mpc_decide");
    group.bench_function("H6_slot24", |b| b.iter(|| mpc.decide(state, &queues)));
    group.finish();
}

criterion_group!(benches, bench_simplex, bench_frame_lp, bench_mpc_decide);
criterion_main!(benches);
