//! The Frank–Wolfe (conditional gradient) method.

use grefar_obs::{NullObserver, Observer};

use std::cmp::Ordering;

use crate::objective::{LineModel, Lmo, Objective, Segment};

/// Step-size strategy for [`frank_wolfe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LineSearch {
    /// The classic diminishing step `γ_t = 2 / (t + 2)`. Parameter-free and
    /// guaranteed `O(1/t)` convergence for smooth convex objectives.
    Diminishing,
    /// Golden-section search on `θ ∈ [0, 1]` along each FW segment, with the
    /// given number of shrink iterations. Exact up to interval width for
    /// objectives convex along segments, and much faster in practice.
    GoldenSection {
        /// Number of interval-shrinking iterations (~40 gives ~1e-8 width).
        iters: u32,
    },
}

/// Options for [`frank_wolfe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FwOptions {
    /// Maximum number of FW iterations.
    pub max_iters: usize,
    /// Stop when the FW duality gap `⟨∇f(x), x − v⟩` falls below this.
    pub gap_tolerance: f64,
    /// Step-size strategy.
    pub line_search: LineSearch,
}

impl Default for FwOptions {
    fn default() -> Self {
        Self {
            max_iters: 400,
            gap_tolerance: 1e-7,
            line_search: LineSearch::GoldenSection { iters: 40 },
        }
    }
}

/// Outcome of a Frank–Wolfe run. The objective value at `x` is not
/// evaluated; a caller that wants it calls `objective.value(&result.x)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FwResult {
    /// The final (feasible) iterate.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final FW duality gap `⟨∇f(x), x − v⟩` — an upper bound on
    /// `f(x) − f*` for convex `f`.
    pub gap: f64,
    /// Probes the golden-section line searches evaluated. A probe is
    /// evaluated only when a comparison needs its value and the segment's
    /// [`LineModel`], if any, cannot decide that comparison.
    pub evaluations: usize,
}

/// Minimizes a smooth convex objective over a compact convex region
/// accessed only through its linear minimization oracle.
///
/// Starting from the *feasible* point `x0`, each iteration calls the oracle
/// at the current gradient, obtains a vertex `v`, and moves along the
/// segment `x → v`. Every iterate is a convex combination of feasible
/// points, hence feasible.
///
/// # Panics
/// Panics if `x0` is empty or the oracle writes non-finite values.
///
/// # Example
/// See the [crate-level documentation](crate).
pub fn frank_wolfe(
    objective: &dyn Objective,
    oracle: &dyn Lmo,
    x0: Vec<f64>,
    options: FwOptions,
) -> FwResult {
    frank_wolfe_observed(objective, oracle, x0, options, &mut NullObserver)
}

/// [`frank_wolfe`] with per-iteration span attribution: when the sink is
/// [profiling](Observer::profiling), every iteration opens an `fw.iter`
/// span under the caller's current span. Sinks that do not profile pay
/// one virtual call up front and nothing per iteration.
pub fn frank_wolfe_observed<O, L>(
    objective: &O,
    oracle: &L,
    x0: Vec<f64>,
    options: FwOptions,
    obs: &mut dyn Observer,
) -> FwResult
where
    O: Objective + ?Sized,
    L: Lmo + ?Sized,
{
    assert!(!x0.is_empty(), "frank_wolfe requires a non-empty start");
    let profiling = obs.profiling();
    let n = x0.len();
    let mut x = x0;
    let mut grad = vec![0.0; n];
    let mut vertex = vec![0.0; n];
    let mut direction = vec![0.0; n];
    let mut support = Vec::with_capacity(n);
    let mut point = vec![0.0; n];
    let mut gap = f64::INFINITY;
    let mut iterations = 0;
    let mut evaluations = 0;

    for t in 0..options.max_iters {
        iterations = t + 1;
        if profiling {
            obs.span_enter("fw.iter");
        }
        objective.gradient(&x, &mut grad);
        oracle.minimize(&grad, &mut vertex);
        assert!(
            vertex.iter().all(|v| v.is_finite()),
            "LMO produced a non-finite vertex"
        );
        // FW duality gap: ⟨∇f(x), x − v⟩ ≥ f(x) − f*.
        gap = grad
            .iter()
            .zip(x.iter().zip(&vertex))
            .map(|(g, (xi, vi))| g * (xi - vi))
            .sum();
        if gap <= options.gap_tolerance {
            if profiling {
                obs.span_exit("fw.iter");
            }
            break;
        }
        // The segment x → v: its direction, and the coordinates that are
        // nonzero anywhere on it, which are all a line search has to read.
        support.clear();
        for (i, (d, (xi, vi))) in direction.iter_mut().zip(x.iter().zip(&vertex)).enumerate() {
            *d = vi - xi;
            // verify: allow(float-eq): exact-zero test — off the support a coordinate is ±0 for every θ
            if *xi != 0.0 || *d != 0.0 {
                support.push(i);
            }
        }
        let segment = Segment {
            x: &x,
            direction: &direction,
            support: &support,
        };
        let theta = match options.line_search {
            LineSearch::Diminishing => 2.0 / (t as f64 + 2.0),
            LineSearch::GoldenSection { iters } => {
                let mut probes = Probes {
                    model: objective.begin_segment(&segment),
                    objective,
                    segment: &segment,
                    point: &mut point,
                    evaluations: &mut evaluations,
                };
                golden_section(&mut probes, iters)
            }
        };
        for (xi, d) in x.iter_mut().zip(&direction) {
            *xi += theta * d;
        }
        if profiling {
            obs.span_exit("fw.iter");
        }
    }

    FwResult {
        x,
        iterations,
        gap,
        evaluations,
    }
}

/// A point `θ` of the segment whose value is evaluated only when a
/// comparison needs it.
#[derive(Clone, Copy)]
struct Probe {
    theta: f64,
    value: Option<f64>,
}

impl Probe {
    fn at(theta: f64) -> Self {
        Self { theta, value: None }
    }
}

/// The line search's access to the objective along one segment.
struct Probes<'a, O: ?Sized> {
    objective: &'a O,
    segment: &'a Segment<'a>,
    model: Option<LineModel>,
    point: &'a mut [f64],
    evaluations: &'a mut usize,
}

impl<O: Objective + ?Sized> Probes<'_, O> {
    fn value(&mut self, probe: &mut Probe) -> f64 {
        if let Some(value) = probe.value {
            return value;
        }
        *self.evaluations += 1;
        let value = self
            .objective
            .segment_value(self.segment, probe.theta, self.point);
        probe.value = Some(value);
        value
    }

    /// `f(a)` against `f(b)`, as `f64::partial_cmp` of the two values
    /// orders them. The model decides when it is certain and a value is
    /// still unknown; otherwise both are evaluated.
    fn order(&mut self, a: &mut Probe, b: &mut Probe) -> Option<Ordering> {
        if a.value.is_none() || b.value.is_none() {
            if let Some(order) = self
                .model
                .and_then(|model| model.certain_order(a.theta, b.theta))
            {
                #[cfg(feature = "strict-invariants")]
                self.check_certified(a.theta, b.theta, order);
                return Some(order);
            }
        }
        let fa = self.value(a);
        let fb = self.value(b);
        fa.partial_cmp(&fb)
    }

    /// `strict-invariants`: a certified order must be the exact one.
    #[cfg(feature = "strict-invariants")]
    fn check_certified(&mut self, a: f64, b: f64, certified: Ordering) {
        let fa = self.objective.segment_value(self.segment, a, self.point);
        let fb = self.objective.segment_value(self.segment, b, self.point);
        assert_eq!(
            fa.partial_cmp(&fb),
            Some(certified),
            "line model {:?} certified f({a}) {certified:?} f({b}), but the values are {fa:e} and {fb:e}",
            self.model
        );
    }
}

/// Golden-section search for `argmin_{θ ∈ [0,1]} f(x + θ·d)` along the
/// probes' segment. Every comparison returns what comparing the two
/// evaluated values returns, so the probe sequence and the result do not
/// depend on which comparisons the model decided.
fn golden_section<O: Objective + ?Sized>(probes: &mut Probes<'_, O>, iters: u32) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    let mut p1 = Probe::at(hi - INV_PHI * (hi - lo));
    let mut p2 = Probe::at(lo + INV_PHI * (hi - lo));
    for _ in 0..iters {
        if matches!(
            probes.order(&mut p1, &mut p2),
            Some(Ordering::Less | Ordering::Equal)
        ) {
            hi = p2.theta;
            p2 = p1;
            p1 = Probe::at(hi - INV_PHI * (hi - lo));
        } else {
            lo = p1.theta;
            p1 = p2;
            p2 = Probe::at(lo + INV_PHI * (hi - lo));
        }
    }
    // Prefer an endpoint if it is strictly better (handles linear
    // objectives whose optimum is at θ = 1 exactly).
    let mut best = Probe::at(0.5 * (lo + hi));
    for c in [0.0, 1.0] {
        let mut end = Probe::at(c);
        if probes.order(&mut end, &mut best) == Some(Ordering::Less) {
            best = end;
        }
    }
    best.theta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Quadratic;

    /// LMO for the box `[0, u]^n`.
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

    #[test]
    fn quadratic_over_box_interior_optimum() {
        // min ½‖x − (0.3, 0.7)‖² over [0,1]²; optimum interior at (0.3, 0.7).
        let q = Quadratic::new(2, vec![1.0, 0.0, 0.0, 1.0], vec![-0.3, -0.7]);
        let lmo = BoxLmo {
            upper: vec![1.0, 1.0],
        };
        let r = frank_wolfe(&q, &lmo, vec![0.0, 0.0], FwOptions::default());
        assert!((r.x[0] - 0.3).abs() < 1e-3, "{:?}", r.x);
        assert!((r.x[1] - 0.7).abs() < 1e-3, "{:?}", r.x);
        assert!(r.gap < 1e-2);
    }

    #[test]
    fn boundary_optimum_is_found_quickly() {
        // min −x₀ − x₁ over [0,1]²: optimum at the vertex (1,1); golden
        // section should land there almost immediately.
        let q = Quadratic::new(2, vec![0.0; 4], vec![-1.0, -1.0]);
        let lmo = BoxLmo {
            upper: vec![1.0, 1.0],
        };
        let r = frank_wolfe(&q, &lmo, vec![0.0, 0.0], FwOptions::default());
        assert!((q.value(&r.x) + 2.0).abs() < 1e-9);
        assert!(r.iterations <= 3, "took {} iterations", r.iterations);
    }

    #[test]
    fn diminishing_steps_also_converge() {
        let q = Quadratic::new(2, vec![2.0, 0.0, 0.0, 2.0], vec![-1.0, -1.0]);
        let lmo = BoxLmo {
            upper: vec![1.0, 1.0],
        };
        let opts = FwOptions {
            line_search: LineSearch::Diminishing,
            max_iters: 2000,
            gap_tolerance: 1e-8,
        };
        let r = frank_wolfe(&q, &lmo, vec![0.0, 0.0], opts);
        // Optimum at (0.5, 0.5), value −0.5.
        let value = q.value(&r.x);
        assert!((value + 0.5).abs() < 1e-3, "value {value}");
    }

    #[test]
    fn gap_bounds_suboptimality() {
        let q = Quadratic::new(2, vec![1.0, 0.0, 0.0, 1.0], vec![-0.9, -0.9]);
        let lmo = BoxLmo {
            upper: vec![1.0, 1.0],
        };
        let opts = FwOptions {
            max_iters: 25,
            gap_tolerance: 0.0,
            line_search: LineSearch::GoldenSection { iters: 30 },
        };
        let r = frank_wolfe(&q, &lmo, vec![0.0, 0.0], opts);
        let f_star = q.value(&[0.9, 0.9]);
        assert!(q.value(&r.x) - f_star <= r.gap + 1e-9);
    }

    #[test]
    fn stays_feasible() {
        let q = Quadratic::new(3, vec![0.0; 9], vec![-1.0, 1.0, -0.5]);
        let lmo = BoxLmo {
            upper: vec![2.0, 3.0, 1.0],
        };
        let r = frank_wolfe(&q, &lmo, vec![0.0, 0.0, 0.0], FwOptions::default());
        for (xi, u) in r.x.iter().zip([2.0, 3.0, 1.0]) {
            assert!(*xi >= -1e-12 && *xi <= u + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_start() {
        let q = Quadratic::new(1, vec![1.0], vec![0.0]);
        let lmo = BoxLmo { upper: vec![1.0] };
        let _ = frank_wolfe(&q, &lmo, vec![], FwOptions::default());
    }
}
