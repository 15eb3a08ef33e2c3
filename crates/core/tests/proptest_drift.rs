//! Numerical verification of the drift inequality (29) — the backbone of
//! Theorem 1's proof — on random queue states and random bounded actions:
//!
//! ```text
//! L(Θ(t+1)) − L(Θ(t)) ≤ B + Σ_j Q_j·[a_j − Σ_i r_{i,j}] + Σ_{i,j} q_{i,j}·[r_{i,j} − h_{i,j}]
//! ```
//!
//! with `B = ½Σ_j[(Σ_i r^max)² + (a^max)²] + ½Σ_{i,j}[(r^max)² + (h^max)²]`
//! (the standard constant; the paper's (30) drops a square — see
//! `grefar_core::theory`).

use grefar_core::{theory::TheoryBounds, QueueState};
use grefar_types::{DataCenterId, JobClass, ServerClass, SystemConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn system(n: usize, j: usize) -> SystemConfig {
    let mut builder = SystemConfig::builder().server_class(ServerClass::new(1.0, 1.0));
    for i in 0..n {
        builder = builder.data_center(format!("dc{i}"), vec![50.0]);
    }
    builder = builder.account("only", 1.0);
    for _ in 0..j {
        builder = builder.job_class(
            JobClass::new(1.0, (0..n).map(DataCenterId::new).collect(), 0)
                .with_max_arrivals(6.0)
                .with_max_route(5.0)
                .with_max_process(9.0),
        );
    }
    builder.build().expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The one-step Lyapunov drift obeys inequality (29) for arbitrary
    /// bounded actions and arrivals, from arbitrary reachable queue states.
    #[test]
    fn one_step_drift_inequality(seed in any::<u64>(), n in 1usize..3, j in 1usize..3) {
        let config = system(n, j);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queues = QueueState::new(&config);

        // Reach a random state by applying a few random slots.
        for _ in 0..rng.gen_range(0..6) {
            let mut z = config.decision_zeros();
            for jj in 0..j {
                for i in 0..n {
                    z.routed[(i, jj)] = rng.gen_range(0.0f64..5.0).floor();
                    z.processed[(i, jj)] = rng.gen_range(0.0f64..9.0);
                }
            }
            let arrivals: Vec<f64> = (0..j).map(|_| rng.gen_range(0.0f64..6.0).floor()).collect();
            queues.apply(&z, &arrivals);
        }

        // One measured step with fresh random action and arrivals.
        let mut z = config.decision_zeros();
        for jj in 0..j {
            for i in 0..n {
                z.routed[(i, jj)] = rng.gen_range(0.0f64..5.0).floor();
                z.processed[(i, jj)] = rng.gen_range(0.0f64..9.0);
            }
        }
        let arrivals: Vec<f64> = (0..j).map(|_| rng.gen_range(0.0f64..6.0).floor()).collect();

        let l_before = queues.lyapunov();
        // Right-hand side of (29) uses the *pre-update* queues.
        let bounds = TheoryBounds::new(&config, 1.0, 1.0, 0.0);
        let mut rhs = bounds.b_const();
        for (jj, &arrived) in arrivals.iter().enumerate() {
            let routed: f64 = (0..n).map(|i| z.routed[(i, jj)]).sum();
            rhs += queues.central(jj) * (arrived - routed);
            for i in 0..n {
                rhs += queues.local(i, jj) * (z.routed[(i, jj)] - z.processed[(i, jj)]);
            }
        }
        let mut after = queues.clone();
        after.apply(&z, &arrivals);
        let drift = after.lyapunov() - l_before;
        prop_assert!(
            drift <= rhs + 1e-9,
            "drift {drift} exceeds the (29) bound {rhs}"
        );
    }

    /// Queue lengths never exceed (previous + max change) and never go
    /// negative — the `q^max` constant really bounds one-slot changes.
    #[test]
    fn one_slot_queue_change_is_bounded(seed in any::<u64>()) {
        let config = system(2, 2);
        let bounds = TheoryBounds::new(&config, 1.0, 1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queues = QueueState::new(&config);
        for _ in 0..30 {
            let before_max = queues.max_len();
            let mut z = config.decision_zeros();
            for jj in 0..2 {
                for i in 0..2 {
                    z.routed[(i, jj)] = rng.gen_range(0.0f64..5.0).floor();
                    z.processed[(i, jj)] = rng.gen_range(0.0f64..9.0);
                }
            }
            let arrivals: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0f64..6.0).floor()).collect();
            queues.apply(&z, &arrivals);
            prop_assert!(queues.max_len() <= before_max + bounds.q_max() + 1e-9);
            prop_assert!(queues.central_slice().iter().all(|&v| v >= 0.0));
        }
    }
}
