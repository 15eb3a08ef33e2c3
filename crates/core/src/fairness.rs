//! Fairness functions (§III-C.1).
//!
//! The paper's primary fairness score is the quadratic deviation (3):
//!
//! ```text
//! f(t) = − Σ_m ( r_m(t)/R(t) − γ_m )²
//! ```
//!
//! maximized (at 0) when every account receives exactly its weighted share
//! `r_m = γ_m R`. Footnote 5 notes the analysis applies to other fairness
//! functions too, citing the α-fair family \[12\]; both are provided here
//! behind one trait so every scheduler is generic over the choice.

/// A concave fairness score of the per-account resource *shares*
/// `x_m = r_m(t) / R(t) ∈ [0, 1]`.
///
/// Implementations must be concave in `x` (GreFar's per-slot problem
/// minimizes `−β·f`, which must be convex) and differentiable on `[0, 1]`.
pub trait FairnessFunction: Send + Sync {
    /// The fairness score `f(x; γ)`. Higher is fairer.
    ///
    /// `shares` and `gammas` have length `M`.
    fn score(&self, shares: &[f64], gammas: &[f64]) -> f64;

    /// Writes `∂f/∂x_m` into `grad`.
    fn gradient(&self, shares: &[f64], gammas: &[f64], grad: &mut [f64]);

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// `true` only for [`QuadraticDeviation`]: its score is a quadratic in
    /// the shares, so Frank–Wolfe's line search can model the slot
    /// objective exactly along a segment. Other implementations keep the
    /// default `false`.
    fn is_quadratic_deviation(&self) -> bool {
        false
    }
}

/// The paper's fairness function (3): `f = −Σ_m (x_m − γ_m)²`.
///
/// # Example
/// ```
/// use grefar_core::fairness::{FairnessFunction, QuadraticDeviation};
///
/// let f = QuadraticDeviation;
/// // Ideal allocation scores 0...
/// assert_eq!(f.score(&[0.6, 0.4], &[0.6, 0.4]), 0.0);
/// // ...and any deviation scores negative.
/// assert!(f.score(&[1.0, 0.0], &[0.6, 0.4]) < 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuadraticDeviation;

impl FairnessFunction for QuadraticDeviation {
    fn score(&self, shares: &[f64], gammas: &[f64]) -> f64 {
        assert_eq!(shares.len(), gammas.len(), "share/gamma length mismatch");
        -shares
            .iter()
            .zip(gammas)
            .map(|(x, g)| (x - g) * (x - g))
            .sum::<f64>()
    }

    fn gradient(&self, shares: &[f64], gammas: &[f64], grad: &mut [f64]) {
        assert_eq!(shares.len(), gammas.len(), "share/gamma length mismatch");
        assert_eq!(shares.len(), grad.len(), "gradient length mismatch");
        for ((g, x), gamma) in grad.iter_mut().zip(shares).zip(gammas) {
            *g = -2.0 * (x - gamma);
        }
    }

    fn name(&self) -> &'static str {
        "quadratic-deviation"
    }

    fn is_quadratic_deviation(&self) -> bool {
        true
    }
}

/// The α-fair utility family of \[12\] (footnote 5's alternative), applied to
/// shares with the account weights as multipliers:
///
/// ```text
/// f(x) = Σ_m γ_m · u_α(x_m + ε),     u_α(v) = v^{1−α}/(1−α)  (α ≠ 1)
///                                    u_1(v) = ln v
/// ```
///
/// `α = 1` is proportional fairness; `α → ∞` approaches max–min fairness.
/// The small `ε` keeps the gradient bounded at zero shares (jobs may well
/// receive nothing during expensive-price slots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaFair {
    alpha: f64,
    epsilon: f64,
}

impl AlphaFair {
    /// Creates the utility with fairness parameter `alpha ≥ 0` and
    /// regularizer `epsilon > 0`.
    ///
    /// # Panics
    /// Panics if `alpha < 0` or `epsilon <= 0`.
    pub fn new(alpha: f64, epsilon: f64) -> Self {
        assert!(
            alpha >= 0.0 && alpha.is_finite(),
            "alpha must be non-negative"
        );
        assert!(epsilon > 0.0, "epsilon must be positive");
        Self { alpha, epsilon }
    }

    /// The fairness parameter `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Default for AlphaFair {
    /// Proportional fairness (`α = 1`) with `ε = 10⁻³`.
    fn default() -> Self {
        Self::new(1.0, 1e-3)
    }
}

impl FairnessFunction for AlphaFair {
    fn score(&self, shares: &[f64], gammas: &[f64]) -> f64 {
        assert_eq!(shares.len(), gammas.len(), "share/gamma length mismatch");
        shares
            .iter()
            .zip(gammas)
            .map(|(x, g)| {
                let v = x + self.epsilon;
                let u = if (self.alpha - 1.0).abs() < 1e-12 {
                    v.ln()
                } else {
                    v.powf(1.0 - self.alpha) / (1.0 - self.alpha)
                };
                g * u
            })
            .sum()
    }

    fn gradient(&self, shares: &[f64], gammas: &[f64], grad: &mut [f64]) {
        assert_eq!(shares.len(), gammas.len(), "share/gamma length mismatch");
        assert_eq!(shares.len(), grad.len(), "gradient length mismatch");
        for ((out, x), g) in grad.iter_mut().zip(shares).zip(gammas) {
            let v = x + self.epsilon;
            *out = g * v.powf(-self.alpha);
        }
    }

    fn name(&self) -> &'static str {
        "alpha-fair"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_difference_check(f: &dyn FairnessFunction, shares: &[f64], gammas: &[f64]) {
        let m = shares.len();
        let mut grad = vec![0.0; m];
        f.gradient(shares, gammas, &mut grad);
        let eps = 1e-6;
        for i in 0..m {
            let mut hi = shares.to_vec();
            let mut lo = shares.to_vec();
            hi[i] += eps;
            lo[i] -= eps;
            let fd = (f.score(&hi, gammas) - f.score(&lo, gammas)) / (2.0 * eps);
            assert!(
                (grad[i] - fd).abs() < 1e-5,
                "{}: component {i}: {} vs {fd}",
                f.name(),
                grad[i]
            );
        }
    }

    #[test]
    fn quadratic_maximized_at_gamma() {
        let f = QuadraticDeviation;
        let gammas = [0.4, 0.3, 0.15, 0.15];
        assert_eq!(f.score(&gammas, &gammas), 0.0);
        // Perturbations strictly reduce the score.
        for i in 0..4 {
            let mut s = gammas;
            s[i] += 0.05;
            assert!(f.score(&s, &gammas) < 0.0);
        }
    }

    #[test]
    fn quadratic_idle_system_score_matches_paper_scale() {
        // With the paper's weights and an idle system (all shares 0) the
        // score is −Σγ² = −0.295; the running averages in Fig. 3 live in
        // [−0.22, −0.16], i.e. between idle and ideal.
        let f = QuadraticDeviation;
        let gammas = [0.4, 0.3, 0.15, 0.15];
        let idle = f.score(&[0.0; 4], &gammas);
        assert!((idle + 0.295).abs() < 1e-12);
    }

    #[test]
    fn quadratic_gradient_matches_finite_differences() {
        finite_difference_check(&QuadraticDeviation, &[0.2, 0.5, 0.1], &[0.3, 0.3, 0.4]);
    }

    #[test]
    fn alpha_fair_gradients() {
        for alpha in [0.0, 0.5, 1.0, 2.0] {
            let f = AlphaFair::new(alpha, 1e-2);
            finite_difference_check(&f, &[0.2, 0.5, 0.1], &[0.3, 0.3, 0.4]);
        }
    }

    #[test]
    fn alpha_one_is_logarithmic() {
        let f = AlphaFair::new(1.0, 1e-3);
        let s = f.score(&[0.5], &[1.0]);
        assert!((s - (0.501f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn alpha_fair_prefers_balanced_shares() {
        let f = AlphaFair::new(2.0, 1e-3);
        let g = [0.5, 0.5];
        assert!(f.score(&[0.4, 0.4], &g) > f.score(&[0.79, 0.01], &g));
    }

    #[test]
    fn quadratic_concavity_along_segment() {
        let f = QuadraticDeviation;
        let g = [0.4, 0.6];
        let a = [0.1, 0.2];
        let b = [0.7, 0.5];
        for k in 0..=10 {
            let t = k as f64 / 10.0;
            let mid = [(1.0 - t) * a[0] + t * b[0], (1.0 - t) * a[1] + t * b[1]];
            let lhs = f.score(&mid, &g);
            let rhs = (1.0 - t) * f.score(&a, &g) + t * f.score(&b, &g);
            assert!(lhs >= rhs - 1e-12, "concavity violated at t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_lengths() {
        let _ = QuadraticDeviation.score(&[0.1], &[0.1, 0.2]);
    }
}
