//! Exact Euclidean projections used by the projected-subgradient method.

/// Clamps `x` into the box `[lower, upper]` elementwise, in place.
///
/// # Panics
/// Panics if slice lengths differ or any `lower[i] > upper[i]`.
pub fn clamp_box(x: &mut [f64], lower: &[f64], upper: &[f64]) {
    assert_eq!(x.len(), lower.len(), "lower bound length mismatch");
    assert_eq!(x.len(), upper.len(), "upper bound length mismatch");
    for ((xi, &lo), &hi) in x.iter_mut().zip(lower).zip(upper) {
        assert!(lo <= hi, "empty box: lower {lo} > upper {hi}");
        *xi = xi.clamp(lo, hi);
    }
}

/// Projects `x` (in place) onto the capacity-capped box
/// `{y : 0 ≤ y ≤ upper, Σ_i weights_i · y_i ≤ capacity}`
/// in the Euclidean norm.
///
/// This is the feasible region of one data center's processing decision:
/// `y = h_{i,·}`, `weights = d` (work per job), `capacity = Σ_k n_k s_k`.
///
/// Uses the KKT characterization `y_i(λ) = clamp(x_i − λ·w_i, 0, u_i)` and
/// bisects on the multiplier `λ ≥ 0` of the capacity constraint.
///
/// # Panics
/// Panics if lengths differ, any weight is non-positive, any upper bound is
/// negative, or `capacity` is negative.
pub fn project_capped_box(x: &mut [f64], upper: &[f64], weights: &[f64], capacity: f64) {
    assert_eq!(x.len(), upper.len(), "upper bound length mismatch");
    assert_eq!(x.len(), weights.len(), "weight length mismatch");
    assert!(
        capacity >= 0.0 && capacity.is_finite(),
        "capacity must be non-negative and finite"
    );
    for &w in weights {
        assert!(
            w > 0.0 && w.is_finite(),
            "weights must be positive, got {w}"
        );
    }
    for &u in upper {
        assert!(u >= 0.0, "upper bounds must be non-negative, got {u}");
    }

    // First clamp into the box; if the capacity constraint already holds,
    // that is the projection (the constraints are separable).
    let weighted_sum = |lambda: f64, x: &[f64]| -> f64 {
        x.iter()
            .zip(upper)
            .zip(weights)
            .map(|((xi, &u), &w)| (xi - lambda * w).clamp(0.0, u) * w)
            .sum()
    };

    let total: f64 = x
        .iter()
        .zip(upper)
        .zip(weights)
        .map(|((xi, &u), &w)| xi.clamp(0.0, u) * w)
        .sum();
    if total <= capacity + 1e-12 {
        for (xi, &u) in x.iter_mut().zip(upper) {
            *xi = xi.clamp(0.0, u);
        }
        return;
    }

    // Bisection on λ: weighted_sum is non-increasing in λ, hits `capacity`
    // somewhere in (0, λ_hi] where λ_hi pushes everything to 0.
    let mut lo = 0.0f64;
    let mut hi = x
        .iter()
        .zip(weights)
        .map(|(xi, w)| (xi / w).max(0.0))
        .fold(0.0f64, f64::max)
        + 1.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if weighted_sum(mid, x) > capacity {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-14 * (1.0 + hi) {
            break;
        }
    }
    let lambda = 0.5 * (lo + hi);
    for ((xi, &u), &w) in x.iter_mut().zip(upper).zip(weights) {
        *xi = (*xi - lambda * w).clamp(0.0, u);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feasible(y: &[f64], upper: &[f64], weights: &[f64], capacity: f64, tol: f64) -> bool {
        y.iter()
            .zip(upper)
            .all(|(v, &u)| *v >= -tol && *v <= u + tol)
            && y.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() <= capacity + tol
    }

    #[test]
    fn noop_when_already_feasible() {
        let mut x = vec![0.5, 0.25];
        project_capped_box(&mut x, &[1.0, 1.0], &[1.0, 2.0], 2.0);
        assert_eq!(x, vec![0.5, 0.25]);
    }

    #[test]
    fn clamps_into_box_first() {
        let mut x = vec![-2.0, 10.0];
        project_capped_box(&mut x, &[1.0, 1.0], &[1.0, 1.0], 5.0);
        assert_eq!(x, vec![0.0, 1.0]);
    }

    #[test]
    fn symmetric_projection() {
        let mut x = vec![3.0, 3.0, 3.0];
        project_capped_box(&mut x, &[9.0; 3], &[1.0; 3], 3.0);
        for v in &x {
            assert!((*v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn weighted_projection_respects_kkt() {
        // Heavier-weighted coordinates shrink more per unit of λ.
        let mut x = vec![2.0, 2.0];
        let w = [1.0, 4.0];
        project_capped_box(&mut x, &[10.0, 10.0], &w, 4.0);
        assert!(feasible(&x, &[10.0, 10.0], &w, 4.0, 1e-9));
        // y = (2 − λ, 2 − 4λ) with 1·y₀ + 4·y₁ = 4 → 10 − 17λ = 4 → λ = 6/17.
        let lambda: f64 = 6.0 / 17.0;
        assert!((x[0] - (2.0 - lambda)).abs() < 1e-7);
        assert!((x[1] - (2.0 - 4.0 * lambda)).abs() < 1e-7);
    }

    #[test]
    fn zero_capacity_projects_to_origin() {
        let mut x = vec![5.0, 1.0];
        project_capped_box(&mut x, &[10.0, 10.0], &[1.0, 1.0], 0.0);
        assert!(x[0].abs() < 1e-7 && x[1].abs() < 1e-7);
    }

    #[test]
    fn projection_is_idempotent() {
        let mut x = vec![4.0, 1.0, 0.2];
        let u = [2.0, 2.0, 2.0];
        let w = [1.0, 2.0, 0.5];
        project_capped_box(&mut x, &u, &w, 2.5);
        let once = x.clone();
        project_capped_box(&mut x, &u, &w, 2.5);
        for (a, b) in once.iter().zip(&x) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn projection_minimizes_distance_vs_grid() {
        // Brute-force check on a coarse feasible grid.
        let orig = [1.7, 1.3];
        let u = [2.0, 2.0];
        let w = [1.0, 1.0];
        let cap = 2.0;
        let mut x = orig.to_vec();
        project_capped_box(&mut x, &u, &w, cap);
        let d_proj: f64 = orig.iter().zip(&x).map(|(a, b)| (a - b) * (a - b)).sum();
        let steps = 50;
        for i in 0..=steps {
            for j in 0..=steps {
                let y = [2.0 * i as f64 / steps as f64, 2.0 * j as f64 / steps as f64];
                if y[0] + y[1] <= cap {
                    let d: f64 = orig.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
                    assert!(
                        d_proj <= d + 1e-6,
                        "grid point {y:?} closer than projection"
                    );
                }
            }
        }
    }

    #[test]
    fn clamp_box_basic() {
        let mut x = vec![5.0, -5.0];
        clamp_box(&mut x, &[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(x, vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn rejects_zero_weight() {
        let mut x = vec![1.0];
        project_capped_box(&mut x, &[1.0], &[0.0], 1.0);
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// project_capped_box returns a feasible point at least as close to the
    /// input as any random feasible candidate (projection optimality).
    #[test]
    fn projection_is_nearest_feasible(
        x in proptest::collection::vec(-2.0f64..6.0, 3),
        upper in proptest::collection::vec(0.5f64..4.0, 3),
        weights in proptest::collection::vec(0.2f64..2.0, 3),
        cap_frac in 0.1f64..1.0,
        candidates in proptest::collection::vec(0.0f64..1.0, 30),
    ) {
        let max_cap: f64 = upper.iter().zip(&weights).map(|(u, w)| u * w).sum();
        let cap = cap_frac * max_cap;
        let mut proj = x.clone();
        project_capped_box(&mut proj, &upper, &weights, cap);

        // Feasibility.
        let load: f64 = proj.iter().zip(&weights).map(|(p, w)| p * w).sum();
        prop_assert!(load <= cap + 1e-7, "projection violates the cap");
        for (p, &u) in proj.iter().zip(&upper) {
            prop_assert!(*p >= -1e-9 && *p <= u + 1e-9);
        }

        // Optimality vs random feasible candidates.
        let d_proj: f64 = x.iter().zip(&proj).map(|(a, b)| (a - b) * (a - b)).sum();
        for chunk in candidates.chunks(3) {
            if chunk.len() < 3 {
                continue;
            }
            let mut cand: Vec<f64> = chunk.iter().zip(&upper).map(|(t, u)| t * u).collect();
            // Make the candidate feasible by scaling under the cap.
            let cload: f64 = cand.iter().zip(&weights).map(|(p, w)| p * w).sum();
            if cload > cap {
                let scale = cap / cload;
                for v in cand.iter_mut() {
                    *v *= scale;
                }
            }
            let d_cand: f64 = x.iter().zip(&cand).map(|(a, b)| (a - b) * (a - b)).sum();
            prop_assert!(
                d_proj <= d_cand + 1e-6,
                "candidate closer than projection: {d_cand} < {d_proj}"
            );
        }
    }

    /// clamp_box is idempotent and order-insensitive with projection.
    #[test]
    fn clamp_box_idempotent(
        x in proptest::collection::vec(-5.0f64..5.0, 4),
        upper in proptest::collection::vec(0.1f64..3.0, 4),
    ) {
        let lower = vec![0.0; 4];
        let mut once = x.clone();
        clamp_box(&mut once, &lower, &upper);
        let mut twice = once.clone();
        clamp_box(&mut twice, &lower, &upper);
        prop_assert_eq!(once, twice);
    }
}
