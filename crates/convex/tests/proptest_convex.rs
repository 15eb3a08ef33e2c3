//! Property tests for the convex toolkit: Frank–Wolfe descent and
//! feasibility over random boxes.

use grefar_convex::{frank_wolfe, FwOptions, Lmo, Objective, Quadratic};
use proptest::prelude::*;

/// LMO of the box `[0, u]^n`.
struct BoxLmo {
    upper: Vec<f64>,
}

impl Lmo for BoxLmo {
    fn minimize(&self, g: &[f64], out: &mut [f64]) {
        for ((o, &gi), &u) in out.iter_mut().zip(g).zip(&self.upper) {
            *o = if gi < 0.0 { u } else { 0.0 };
        }
    }
}

fn spd_quadratic(n: usize, diag: &[f64], c: &[f64]) -> Quadratic {
    // Diagonal PSD quadratic: ½ Σ d_i x_i² + c·x.
    let mut q = vec![0.0; n * n];
    for i in 0..n {
        q[i * n + i] = diag[i];
    }
    Quadratic::new(n, q, c.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Frank–Wolfe with golden-section line search never increases the
    /// objective, stays in the box, and its final gap certifies
    /// near-optimality against a dense grid of random feasible points.
    #[test]
    fn frank_wolfe_descends_and_certifies(
        diag in proptest::collection::vec(0.1f64..4.0, 2..=4),
        c in proptest::collection::vec(-3.0f64..3.0, 4),
        upper in proptest::collection::vec(0.5f64..4.0, 4),
        probes in proptest::collection::vec(0.0f64..1.0, 24),
    ) {
        let n = diag.len();
        let q = spd_quadratic(n, &diag, &c[..n]);
        let lmo = BoxLmo { upper: upper[..n].to_vec() };
        let x0 = vec![0.0; n];
        let f0 = q.value(&x0);
        let result = frank_wolfe(&q, &lmo, x0, FwOptions::default());

        let value = q.value(&result.x);
        prop_assert!(value <= f0 + 1e-12, "FW increased the objective");
        for (xi, &u) in result.x.iter().zip(&upper[..n]) {
            prop_assert!(*xi >= -1e-12 && *xi <= u + 1e-12, "left the box");
        }
        // The duality gap upper-bounds suboptimality vs any feasible probe.
        for chunk in probes.chunks(n) {
            if chunk.len() < n {
                continue;
            }
            let probe: Vec<f64> = chunk.iter().zip(&upper[..n]).map(|(t, u)| t * u).collect();
            prop_assert!(
                value - q.value(&probe) <= result.gap + 1e-7,
                "probe beats FW by more than the certified gap"
            );
        }
    }
}
