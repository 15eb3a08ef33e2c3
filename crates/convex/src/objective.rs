//! Objective and oracle traits.

use std::cmp::Ordering;

/// A differentiable (or subdifferentiable) convex objective over `ℝⁿ`,
/// evaluated on flat slices.
pub trait Objective {
    /// The objective value `f(x)`.
    fn value(&self, x: &[f64]) -> f64;

    /// Writes a (sub)gradient of `f` at `x` into `grad`.
    ///
    /// Implementations may assume `grad.len() == x.len()`.
    fn gradient(&self, x: &[f64], grad: &mut [f64]);

    /// Called by Frank–Wolfe once per segment, before the line search's
    /// first [`segment_value`](Self::segment_value) on it. An override may
    /// keep whatever its `segment_value` needs for this segment (say, its
    /// support packed), and may return a [`LineModel`] of the segment, from
    /// which the line search decides the probe comparisons it can without
    /// evaluating. The default keeps nothing and returns `None`, so every
    /// comparison evaluates.
    fn begin_segment(&self, _segment: &Segment<'_>) -> Option<LineModel> {
        None
    }

    /// The value `f(x + θ·d)` at one point of a Frank–Wolfe segment; the
    /// line search calls it for the probes it has to evaluate, always
    /// after [`begin_segment`](Self::begin_segment) on the same segment.
    /// `point` is scratch of the segment's length.
    ///
    /// The default writes the point into `point` and calls
    /// [`value`](Self::value). An override may instead read the segment
    /// in place and skip every coordinate off its
    /// [support](Segment::support), which is ±0 for every `θ`; it must
    /// return what the default returns, up to the sign of a zero.
    fn segment_value(&self, segment: &Segment<'_>, theta: f64, point: &mut [f64]) -> f64 {
        for (i, p) in point.iter_mut().enumerate() {
            *p = segment.at(i, theta);
        }
        self.value(point)
    }
}

/// A Frank–Wolfe segment `x + θ·d`, `θ ∈ [0, 1]`, from the iterate `x`
/// towards the oracle's vertex `v`, with `d = v − x`.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    /// The iterate `x`.
    pub x: &'a [f64],
    /// The direction `d = v − x`.
    pub direction: &'a [f64],
    /// The indices, ascending, where `x` or `d` is nonzero (tested
    /// exactly). Every other coordinate is ±0 all along the segment.
    pub support: &'a [usize],
}

impl Segment<'_> {
    /// Coordinate `i` of the point `x + θ·d`.
    #[inline]
    pub fn at(&self, i: usize, theta: f64) -> f64 {
        self.x[i] + theta * self.direction[i]
    }
}

/// What an objective knows in advance about itself along one segment:
/// for every `θ`, `θ′` in `[0, 1]`, the exact difference
/// `segment_value(θ) − segment_value(θ′)` of the two floating-point values
/// lies within `err` of [`difference(θ, θ′)`](Self::difference), the
/// floating-point value of `(θ − θ′)·(slope + curvature·(θ + θ′))`.
///
/// That is the difference of the quadratic `slope·θ + curvature·θ²`, so an
/// objective that is exactly quadratic along the segment can supply one,
/// with `err` a bound on the rounding of its evaluation and of the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineModel {
    /// The coefficient of `θ`.
    pub slope: f64,
    /// The coefficient of `θ²`.
    pub curvature: f64,
    /// The bound on the model's error.
    pub err: f64,
}

impl LineModel {
    /// The model's value of `f(θ) − f(θ′)`.
    #[inline]
    pub fn difference(&self, theta: f64, other: f64) -> f64 {
        (theta - other) * (self.slope + self.curvature * (theta + other))
    }

    /// The order of `f(θ)` and `f(θ′)` when the model is certain of it,
    /// that is when the modelled difference exceeds `err` in magnitude:
    /// then the exact comparison of the two values gives the same order.
    /// `None` when the two may lie within rounding of each other.
    #[inline]
    pub fn certain_order(&self, theta: f64, other: f64) -> Option<Ordering> {
        let difference = self.difference(theta, other);
        if difference > self.err {
            Some(Ordering::Greater)
        } else if difference < -self.err {
            Some(Ordering::Less)
        } else {
            None
        }
    }
}

/// A linear minimization oracle over a compact convex feasible region:
/// given a linear objective `g`, write some
/// `argmin_{v ∈ feasible} ⟨g, v⟩` into `out`.
///
/// This is the only access Frank–Wolfe needs to the feasible region. For
/// GreFar's per-slot polytope the oracle is the exact greedy dispatch.
pub trait Lmo {
    /// Writes a vertex minimizing `⟨gradient, v⟩` into `out`.
    ///
    /// Implementations may assume `out.len() == gradient.len()`.
    fn minimize(&self, gradient: &[f64], out: &mut [f64]);
}

impl<F> Lmo for F
where
    F: Fn(&[f64], &mut [f64]),
{
    fn minimize(&self, gradient: &[f64], out: &mut [f64]) {
        self(gradient, out)
    }
}

/// A convex quadratic `f(x) = ½ xᵀQx + cᵀx` with dense symmetric
/// positive-semidefinite `Q` (row-major). Mostly used in tests and as a
/// building block for penalty terms.
///
/// # Example
/// ```
/// use grefar_convex::{Objective, Quadratic};
///
/// // f(x, y) = ½(x² + y²) − x
/// let q = Quadratic::new(2, vec![1.0, 0.0, 0.0, 1.0], vec![-1.0, 0.0]);
/// assert_eq!(q.value(&[1.0, 0.0]), -0.5);
/// let mut g = vec![0.0; 2];
/// q.gradient(&[1.0, 0.0], &mut g);
/// assert_eq!(g, vec![0.0, 0.0]); // unconstrained minimum at (1, 0)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quadratic {
    n: usize,
    q: Vec<f64>,
    c: Vec<f64>,
}

impl Quadratic {
    /// Creates the quadratic from row-major `q` (`n × n`) and linear term `c`.
    ///
    /// # Panics
    /// Panics if dimensions are inconsistent.
    pub fn new(n: usize, q: Vec<f64>, c: Vec<f64>) -> Self {
        assert_eq!(q.len(), n * n, "Q must be n x n");
        assert_eq!(c.len(), n, "c must have length n");
        Self { n, q, c }
    }
}

impl Objective for Quadratic {
    fn value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n);
        let mut quad = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            let row: f64 = self.q[i * self.n..(i + 1) * self.n]
                .iter()
                .zip(x)
                .map(|(q, xj)| q * xj)
                .sum();
            quad += xi * row;
        }
        0.5 * quad + self.c.iter().zip(x).map(|(a, b)| a * b).sum::<f64>()
    }

    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(grad.len(), self.n);
        for (i, g_out) in grad.iter_mut().enumerate() {
            let mut g = self.c[i];
            for (j, &xj) in x.iter().enumerate() {
                // (Q + Qᵀ)/2 · x, exact for symmetric Q.
                g += 0.5 * (self.q[i * self.n + j] + self.q[j * self.n + i]) * xj;
            }
            *g_out = g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_value_and_gradient() {
        // f(x) = ½ (2x₀² + 2x₁²) + x₀ = x₀² + x₁² + x₀
        let q = Quadratic::new(2, vec![2.0, 0.0, 0.0, 2.0], vec![1.0, 0.0]);
        assert_eq!(q.value(&[1.0, 2.0]), 1.0 + 4.0 + 1.0);
        let mut g = vec![0.0; 2];
        q.gradient(&[1.0, 2.0], &mut g);
        assert_eq!(g, vec![3.0, 4.0]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let q = Quadratic::new(
            3,
            vec![4.0, 1.0, 0.0, 1.0, 3.0, 0.5, 0.0, 0.5, 2.0],
            vec![-1.0, 0.5, 2.0],
        );
        let x = [0.3, -0.7, 1.1];
        let mut g = vec![0.0; 3];
        q.gradient(&x, &mut g);
        let eps = 1e-6;
        for i in 0..3 {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += eps;
            xm[i] -= eps;
            let fd = (q.value(&xp) - q.value(&xm)) / (2.0 * eps);
            assert!((g[i] - fd).abs() < 1e-6, "component {i}: {} vs {fd}", g[i]);
        }
    }

    #[test]
    fn line_models_certify_only_differences_beyond_err() {
        // f(θ) = θ² − θ: f(0) = f(1), minimum at θ = ½.
        let model = LineModel {
            slope: -1.0,
            curvature: 1.0,
            err: 1e-6,
        };
        assert_eq!(model.difference(0.0, 1.0), 0.0);
        assert_eq!(model.certain_order(0.0, 1.0), None);
        assert_eq!(model.certain_order(0.5, 0.25), Some(Ordering::Less));
        assert_eq!(model.certain_order(0.9, 0.5), Some(Ordering::Greater));
        // f(0.4999) − f(0.5002) = −3e-8, within err: undecided.
        assert_eq!(model.certain_order(0.5 - 1e-4, 0.5 + 2e-4), None);
        let unbounded = LineModel {
            err: f64::NAN,
            ..model
        };
        assert_eq!(unbounded.certain_order(0.5, 0.25), None);
    }

    #[test]
    fn closures_are_lmos() {
        let lmo = |g: &[f64], out: &mut [f64]| {
            // Box [0,1]^n vertex: 1 where gradient negative.
            for (o, &gi) in out.iter_mut().zip(g) {
                *o = if gi < 0.0 { 1.0 } else { 0.0 };
            }
        };
        let mut out = vec![0.0; 2];
        Lmo::minimize(&lmo, &[-1.0, 2.0], &mut out);
        assert_eq!(out, vec![1.0, 0.0]);
    }
}
