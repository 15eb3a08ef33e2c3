//! Cross-checks for the Frank–Wolfe fairness path (`β > 0`) of the slot
//! solver: against a brute-force grid on tiny instances, against projected
//! subgradient descent, and against the exact greedy at `β = 0`.

mod reference;

use grefar_convex::FwOptions;
use grefar_core::{
    drift_penalty_objective, FairnessFunction, QuadraticDeviation, QueueState, SlotInstance,
};
use grefar_types::{
    DataCenterId, DataCenterState, JobClass, ServerClass, SystemConfig, SystemState, Tariff,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One DC, two accounts, one job type each — small enough to brute force.
fn tiny_config(h_max: f64) -> SystemConfig {
    SystemConfig::builder()
        .server_class(ServerClass::new(1.0, 1.0))
        .data_center("dc", vec![20.0])
        .account("x", 0.7)
        .account("y", 0.3)
        .job_class(JobClass::new(1.0, vec![DataCenterId::new(0)], 0).with_max_process(h_max))
        .job_class(JobClass::new(1.0, vec![DataCenterId::new(0)], 1).with_max_process(h_max))
        .build()
        .unwrap()
}

fn queues_with(cfg: &SystemConfig, loads: &[f64]) -> QueueState {
    let mut q = QueueState::new(cfg);
    let mut z = cfg.decision_zeros();
    for (j, &amount) in loads.iter().enumerate() {
        z.routed[(0, j)] = amount;
    }
    q.apply(&z, &vec![0.0; loads.len()]);
    q
}

#[test]
fn fw_matches_brute_force_grid() {
    let cfg = tiny_config(20.0);
    let st = SystemState::new(0, vec![DataCenterState::new(vec![20.0], Tariff::flat(0.8))]);
    let q = queues_with(&cfg, &[9.0, 4.0]);
    let v = 4.0;
    let beta = 120.0;
    let fairness = QuadraticDeviation;

    let inst = SlotInstance::new(&cfg, &st, &q, v);
    let fw = inst.solve_with_fairness(beta, &fairness, FwOptions::default());

    // Brute force over (h0, h1) on a fine grid; b = h0 + h1 (min-power for
    // this single unit-speed class).
    let mut best = f64::INFINITY;
    let steps = 240;
    for a in 0..=steps {
        for b in 0..=steps {
            let h0 = 9.0 * a as f64 / steps as f64;
            let h1 = 4.0 * b as f64 / steps as f64;
            if h0 + h1 > 20.0 {
                continue;
            }
            let mut z = cfg.decision_zeros();
            z.routed = fw.decision.routed.clone();
            z.processed[(0, 0)] = h0;
            z.processed[(0, 1)] = h1;
            z.busy[(0, 0)] = h0 + h1;
            let val = drift_penalty_objective(&cfg, &st, &q, &z, v, beta, &fairness);
            best = best.min(val);
        }
    }
    assert!(
        fw.objective <= best + 0.05 * (1.0 + best.abs()),
        "FW {} vs brute-force {}",
        fw.objective,
        best
    );
}

#[test]
fn fw_matches_projected_subgradient_on_random_instances() {
    use grefar_convex::Objective;
    use reference::projection::project_capped_box;
    use reference::subgradient::{projected_subgradient, SubgradientOptions};

    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = tiny_config(30.0);
        let price: f64 = rng.gen_range(0.05..1.2);
        let st = SystemState::new(
            0,
            vec![DataCenterState::new(vec![20.0], Tariff::flat(price))],
        );
        let q0: f64 = rng.gen_range(0.0f64..12.0).floor();
        let q1: f64 = rng.gen_range(0.0f64..12.0).floor();
        let q = queues_with(&cfg, &[q0, q1]);
        let v: f64 = rng.gen_range(0.5..8.0);
        let beta: f64 = rng.gen_range(0.0..200.0);
        let fairness = QuadraticDeviation;

        let inst = SlotInstance::new(&cfg, &st, &q, v);
        let fw = inst.solve_with_fairness(beta, &fairness, FwOptions::default());

        // Reference: minimize over x = (h0, h1) with b = h0 + h1 folded in.
        struct Folded {
            v: f64,
            beta: f64,
            price: f64,
            q: [f64; 2],
            gammas: [f64; 2],
            total_capacity: f64,
        }
        impl Objective for Folded {
            fn value(&self, x: &[f64]) -> f64 {
                let shares = [x[0] / self.total_capacity, x[1] / self.total_capacity];
                let f =
                    -(shares[0] - self.gammas[0]).powi(2) - (shares[1] - self.gammas[1]).powi(2);
                self.v * (self.price * (x[0] + x[1]) - self.beta * f)
                    - self.q[0] * x[0]
                    - self.q[1] * x[1]
            }
            fn gradient(&self, x: &[f64], g: &mut [f64]) {
                for m in 0..2 {
                    let share = x[m] / self.total_capacity;
                    g[m] = self.v * self.price
                        + self.v * self.beta * 2.0 * (share - self.gammas[m]) / self.total_capacity
                        - self.q[m];
                }
            }
        }
        let folded = Folded {
            v,
            beta,
            price,
            q: [q0, q1],
            gammas: [0.7, 0.3],
            total_capacity: 20.0,
        };
        let caps = [q0.min(30.0), q1.min(30.0)];
        let reference = projected_subgradient(
            &folded,
            |x: &mut [f64]| project_capped_box(x, &caps, &[1.0, 1.0], 20.0),
            vec![0.0, 0.0],
            SubgradientOptions {
                iterations: 30_000,
                step0: 1.0,
            },
        );
        assert!(
            fw.objective <= reference.value + 0.05 * (1.0 + reference.value.abs()),
            "seed {seed}: FW {} vs subgradient {}",
            fw.objective,
            reference.value
        );
    }
}

#[test]
fn beta_zero_fw_equals_greedy_on_random_instances() {
    for seed in 100..130u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = tiny_config(rng.gen_range(1.0..25.0));
        let st = SystemState::new(
            0,
            vec![DataCenterState::new(
                vec![rng.gen_range(1.0f64..20.0).floor()],
                Tariff::flat(rng.gen_range(0.0..1.5)),
            )],
        );
        let q = queues_with(
            &cfg,
            &[
                rng.gen_range(0.0f64..10.0).floor(),
                rng.gen_range(0.0f64..10.0).floor(),
            ],
        );
        let v = rng.gen_range(0.0..8.0);
        let inst = SlotInstance::new(&cfg, &st, &q, v);
        let greedy = inst.solve_greedy();
        let fw = inst.solve_with_fairness(0.0, &QuadraticDeviation, FwOptions::default());
        assert!(
            (greedy.objective - fw.objective).abs() <= 1e-5 * (1.0 + greedy.objective.abs()),
            "seed {seed}: greedy {} vs FW {}",
            greedy.objective,
            fw.objective
        );
    }
}

#[test]
fn increasing_beta_improves_fairness_of_the_slot_decision() {
    let cfg = tiny_config(30.0);
    let st = SystemState::new(0, vec![DataCenterState::new(vec![20.0], Tariff::flat(0.9))]);
    // Asymmetric queues: account y has much more backlog than its γ = 0.3.
    let q = queues_with(&cfg, &[2.0, 12.0]);
    let inst = SlotInstance::new(&cfg, &st, &q, 5.0);
    let fairness = QuadraticDeviation;
    let gammas = cfg.gammas();

    let mut prev_score = f64::NEG_INFINITY;
    for beta in [0.0, 50.0, 500.0] {
        let d = inst
            .solve_with_fairness(beta, &fairness, FwOptions::default())
            .decision;
        let shares = grefar_core::resource_shares(&cfg, &st, &d);
        let score = fairness.score(&shares, &gammas);
        assert!(
            score >= prev_score - 1e-6,
            "beta {beta}: fairness decreased ({score} < {prev_score})"
        );
        prev_score = score;
    }
}
