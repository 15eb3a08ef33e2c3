//! Projected subgradient descent.
//!
//! A slower but assumption-light method used to cross-check the Frank–Wolfe
//! path of the GreFar per-slot solver (DESIGN.md §4). It requires only a
//! projection onto the feasible region rather than an LMO.

use grefar_convex::Objective;

/// Options for [`projected_subgradient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubgradientOptions {
    /// Number of iterations (the method has no natural stopping test).
    pub iterations: usize,
    /// Initial step size; step at iteration `t` is `step0 / √(t+1)`.
    pub step0: f64,
}

impl Default for SubgradientOptions {
    fn default() -> Self {
        Self {
            iterations: 2_000,
            step0: 1.0,
        }
    }
}

/// Outcome of a projected-subgradient run.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgradientResult {
    /// The best (lowest-objective) feasible iterate seen.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Iterations performed.
    pub iterations: usize,
}

/// Minimizes a convex objective by projected subgradient descent with the
/// diminishing step `step0 / √(t+1)`, returning the best iterate seen.
///
/// `project` must map an arbitrary point to a feasible one (in place);
/// `x0` is projected before use, so it need not be feasible.
///
/// # Panics
/// Panics if `x0` is empty.
pub fn projected_subgradient<P>(
    objective: &dyn Objective,
    mut project: P,
    x0: Vec<f64>,
    options: SubgradientOptions,
) -> SubgradientResult
where
    P: FnMut(&mut [f64]),
{
    assert!(
        !x0.is_empty(),
        "projected_subgradient requires a non-empty start"
    );
    let n = x0.len();
    let mut x = x0;
    project(&mut x);
    let mut grad = vec![0.0; n];
    let mut best = x.clone();
    let mut best_value = objective.value(&x);

    for t in 0..options.iterations {
        objective.gradient(&x, &mut grad);
        let step = options.step0 / ((t + 1) as f64).sqrt();
        for (xi, g) in x.iter_mut().zip(&grad) {
            *xi -= step * g;
        }
        project(&mut x);
        let value = objective.value(&x);
        if value < best_value {
            best_value = value;
            best.copy_from_slice(&x);
        }
    }

    SubgradientResult {
        x: best,
        value: best_value,
        iterations: options.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::projection::{clamp_box, project_capped_box};
    use grefar_convex::Quadratic;

    #[test]
    fn unconstrained_style_quadratic() {
        // min ½‖x − (1, −1)‖² over a huge box: optimum clipped at (1, 0).
        let q = Quadratic::new(2, vec![1.0, 0.0, 0.0, 1.0], vec![-1.0, 1.0]);
        let r = projected_subgradient(
            &q,
            |x: &mut [f64]| clamp_box(x, &[0.0, 0.0], &[10.0, 10.0]),
            vec![5.0, 5.0],
            SubgradientOptions {
                iterations: 5_000,
                step0: 1.0,
            },
        );
        assert!((r.x[0] - 1.0).abs() < 1e-2, "{:?}", r.x);
        assert!(r.x[1].abs() < 1e-2, "{:?}", r.x);
    }

    #[test]
    fn agrees_with_frank_wolfe_on_capped_box() {
        use grefar_convex::{frank_wolfe, FwOptions, Lmo};

        // min ½‖x − (2, 2)‖² s.t. 0 ≤ x ≤ (3,3), x₀ + 2x₁ ≤ 3.
        let q = Quadratic::new(2, vec![1.0, 0.0, 0.0, 1.0], vec![-2.0, -2.0]);
        struct CapLmo;
        impl Lmo for CapLmo {
            fn minimize(&self, g: &[f64], out: &mut [f64]) {
                // Vertices of the region: enumerate the candidates.
                let verts: [[f64; 2]; 4] = [[0.0, 0.0], [3.0, 0.0], [0.0, 1.5], [1.0, 1.0]];
                let mut best = verts[0];
                let mut best_val = f64::INFINITY;
                for v in verts {
                    if v[0] + 2.0 * v[1] <= 3.0 + 1e-9 {
                        let val = g[0] * v[0] + g[1] * v[1];
                        if val < best_val {
                            best_val = val;
                            best = v;
                        }
                    }
                }
                out.copy_from_slice(&best);
            }
        }
        let fw = frank_wolfe(&q, &CapLmo, vec![0.0, 0.0], FwOptions::default());
        let sg = projected_subgradient(
            &q,
            |x: &mut [f64]| project_capped_box(x, &[3.0, 3.0], &[1.0, 2.0], 3.0),
            vec![0.0, 0.0],
            SubgradientOptions {
                iterations: 20_000,
                step0: 1.0,
            },
        );
        let fw_value = q.value(&fw.x);
        assert!(
            (fw_value - sg.value).abs() < 1e-2,
            "FW {fw_value} vs subgradient {}",
            sg.value
        );
    }

    #[test]
    fn start_is_projected() {
        let q = Quadratic::new(1, vec![2.0], vec![0.0]);
        let r = projected_subgradient(
            &q,
            |x: &mut [f64]| clamp_box(x, &[1.0], &[2.0]),
            vec![-50.0],
            SubgradientOptions::default(),
        );
        assert!(r.x[0] >= 1.0 - 1e-12);
    }

    #[test]
    fn best_iterate_never_worse_than_start() {
        let q = Quadratic::new(2, vec![1.0, 0.0, 0.0, 1.0], vec![0.0, 0.0]);
        let start = vec![3.0, 3.0];
        let start_value = {
            let mut s = start.clone();
            clamp_box(&mut s, &[0.0, 0.0], &[4.0, 4.0]);
            q.value(&s)
        };
        let r = projected_subgradient(
            &q,
            |x: &mut [f64]| clamp_box(x, &[0.0, 0.0], &[4.0, 4.0]),
            start,
            SubgradientOptions {
                iterations: 50,
                step0: 0.5,
            },
        );
        assert!(r.value <= start_value);
    }
}
