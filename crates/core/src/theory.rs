//! The performance guarantees of Theorem 1 (§V-B, Appendix).
//!
//! Computes the constants `B` (29)–(30), `D` (36), `q^max` and `C3`
//! (39)–(42) for a concrete system, yielding:
//!
//! * the **queue bound** (23): `Q_j(t), q_{i,j}(t) ≤ V·C3/δ` for all `t`,
//! * the **cost bound** (24): `g* ≤ (1/R)Σ_r G*_r + (B + D(T−1))/V`.
//!
//! The paper's inequality (30) defining `B` drops a square on its first
//! bracket (a typo — the derivation of (29) via the standard
//! `(max[q − b, 0] + a)² ≤ q² + a² + b² + 2q(a − b)` identity requires it);
//! we implement the standard constant.
//!
//! Also provides [`slackness_delta`], which finds the largest slack `δ` for
//! which the conditions (20)–(22) hold with a simple proportional-routing
//! witness, certifying a trace admissible for Theorem 1.

use grefar_types::SystemConfig;

/// The constants of Theorem 1 for one system.
///
/// # Example
/// ```
/// use grefar_core::theory::TheoryBounds;
/// use grefar_types::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let config = SystemConfig::builder()
/// #     .server_class(ServerClass::new(1.0, 1.0))
/// #     .data_center("dc", vec![100.0])
/// #     .account("org", 1.0)
/// #     .job_class(JobClass::new(1.0, vec![DataCenterId::new(0)], 0)
/// #         .with_max_arrivals(5.0).with_max_route(10.0).with_max_process(10.0))
/// #     .build()?;
/// let bounds = TheoryBounds::new(&config, 1.0, 0.8, 0.0);
/// // The queue bound grows linearly in V (Theorem 1a)...
/// assert!(bounds.queue_bound(20.0) > bounds.queue_bound(5.0));
/// // ...and the optimality gap shrinks as O(1/V) (Theorem 1b).
/// assert!(bounds.cost_gap_bound(20.0, 4) < bounds.cost_gap_bound(5.0, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoryBounds {
    b_const: f64,
    d_const: f64,
    q_max: f64,
    g_spread: f64,
    delta: f64,
}

impl TheoryBounds {
    /// Computes the constants for a system, given:
    ///
    /// * `delta` — the slackness of conditions (20)–(22)
    ///   (see [`slackness_delta`]),
    /// * `price_max` — an upper bound on every electricity price,
    /// * `beta` — the energy-fairness parameter (enters `g^max − g^min`
    ///   through the quadratic fairness range).
    ///
    /// # Panics
    /// Panics if `delta <= 0`, `price_max < 0` or `beta < 0`.
    pub fn new(config: &SystemConfig, delta: f64, price_max: f64, beta: f64) -> Self {
        assert!(delta > 0.0 && delta.is_finite(), "delta must be positive");
        assert!(
            price_max >= 0.0 && price_max.is_finite(),
            "price_max must be non-negative"
        );
        assert!(beta >= 0.0 && beta.is_finite(), "beta must be non-negative");

        let mut b_const = 0.0;
        let mut d_const = 0.0;
        let mut q_max = 0.0f64;
        for job in config.job_classes() {
            let sum_rmax = job.eligible().len() as f64 * job.max_route();
            let q_diff_central = job.max_arrivals().max(sum_rmax);
            let q_diff_local = job.max_route().max(job.max_process());
            // B: ½[(Σr)² + a²] per central queue, ½[r² + h²] per local queue.
            b_const += 0.5 * (sum_rmax.powi(2) + job.max_arrivals().powi(2));
            b_const += 0.5
                * job.eligible().len() as f64
                * (job.max_route().powi(2) + job.max_process().powi(2));
            // D (36): ½ Σ Q_diff·max[a, Σr] + ½ Σ q_diff·max[r, h].
            d_const += 0.5 * q_diff_central.powi(2);
            d_const += 0.5 * job.eligible().len() as f64 * q_diff_local.powi(2);
            q_max = q_max.max(q_diff_central).max(q_diff_local);
        }

        // g^max − g^min: all servers busy at max price, plus the fairness
        // range −β·[f_min, 0] for the quadratic score.
        let e_max: f64 = config
            .data_centers()
            .iter()
            .map(|dc| {
                dc.fleet()
                    .iter()
                    .zip(config.server_classes())
                    .map(|(n, c)| n * c.active_power())
                    .sum::<f64>()
            })
            .sum::<f64>()
            * price_max;
        let f_range: f64 = config
            .gammas()
            .iter()
            .map(|&g| g.max(1.0 - g).powi(2))
            .sum();
        let g_spread = e_max + beta * f_range;

        Self {
            b_const,
            d_const,
            q_max,
            g_spread,
            delta,
        }
    }

    /// The drift constant `B` of (29).
    pub fn b_const(&self) -> f64 {
        self.b_const
    }

    /// The frame-coupling constant `D` of (36).
    pub fn d_const(&self) -> f64 {
        self.d_const
    }

    /// The largest one-slot queue change `q^max`.
    pub fn q_max(&self) -> f64 {
        self.q_max
    }

    /// The cost spread `g^max − g^min` used in (34).
    pub fn g_spread(&self) -> f64 {
        self.g_spread
    }

    /// Theorem 1(a): the uniform queue-length bound (23), evaluated through
    /// (38) (the pre-factored form, valid for every `V ≥ 0`):
    ///
    /// ```text
    /// Q_j(t), q_{i,j}(t) ≤ sqrt( (P/δ)² + 2D + 2 q^max P/δ ),  P = B + V·(g^max − g^min)
    /// ```
    ///
    /// which equals `V·C3/δ` with `C3` as in (39)–(42).
    ///
    /// # Panics
    /// Panics if `v` is negative or non-finite.
    pub fn queue_bound(&self, v: f64) -> f64 {
        assert!(v >= 0.0 && v.is_finite(), "V must be non-negative");
        let p = self.b_const + v * self.g_spread;
        ((p / self.delta).powi(2) + 2.0 * self.d_const + 2.0 * self.q_max * p / self.delta).sqrt()
    }

    /// The degraded queue bound under bounded state staleness — an
    /// engineering corollary of Theorem 1(a), **not** a bound from the
    /// paper (which assumes the scheduler observes `x(t)` exactly).
    ///
    /// When the scheduler acts on estimates at most `stale_slots` slots old
    /// (the feed layer's admissible staleness,
    /// `FeedProfile::staleness_bound`), every threshold crossing the exact
    /// algorithm would react to is seen at most `stale_slots` slots late,
    /// and during that blind window each queue moves by at most `q^max`
    /// per slot (the same one-slot bound used inside (38)). The uniform
    /// bound therefore relaxes additively:
    ///
    /// ```text
    /// Q_j(t), q_{i,j}(t) ≤ queue_bound(V) + S · q^max,   S = stale_slots
    /// ```
    ///
    /// With `S = 0` this is exactly [`queue_bound`](TheoryBounds::queue_bound).
    ///
    /// # Panics
    /// Panics if `v` is negative or non-finite.
    pub fn stale_queue_bound(&self, v: f64, stale_slots: u64) -> f64 {
        self.queue_bound(v) + stale_slots as f64 * self.q_max
    }

    /// Theorem 1(b): the optimality-gap bound `(B + D(T−1)) / V` of (24)
    /// against the `T`-step lookahead policy.
    ///
    /// # Panics
    /// Panics if `v <= 0` (the bound is vacuous at `V = 0`) or `t == 0`.
    pub fn cost_gap_bound(&self, v: f64, t: usize) -> f64 {
        assert!(v > 0.0 && v.is_finite(), "V must be positive");
        assert!(t >= 1, "frame length must be positive");
        (self.b_const + self.d_const * (t as f64 - 1.0)) / v
    }
}

/// Finds (by bisection) the largest `δ ∈ (0, δ_hi]` for which the slackness
/// conditions (20)–(22) hold with the capacity-proportional witness
///
/// ```text
/// r'_{i,j} = (a_j^max + δ) · c_i / Σ_{i'∈𝒟_j} c_{i'},   h'_{i,j} = r'_{i,j} + δ,
/// ```
///
/// where `c_i = min_capacity[i]` is a lower bound on every slot's capacity
/// `Σ_k n_{i,k}(t) s_k`. (Any witness suffices for Theorem 1; splitting
/// load proportionally to capacity certifies systems with heterogeneous
/// data-center sizes that an equal split would reject.)
///
/// Returns `None` if even an arbitrarily small `δ` fails (the system is not
/// provably stable under Theorem 1's assumptions).
///
/// # Panics
/// Panics if `min_capacity.len()` differs from the data-center count.
pub fn slackness_delta(config: &SystemConfig, min_capacity: &[f64]) -> Option<f64> {
    assert_eq!(
        min_capacity.len(),
        config.num_data_centers(),
        "capacity vector mismatch"
    );
    // Capacity share of DC i within the eligible set of a job.
    let share = |i: usize, job: &grefar_types::JobClass| -> f64 {
        let total: f64 = job
            .eligible()
            .iter()
            .map(|dc| min_capacity[dc.index()])
            .sum();
        if total <= 0.0 {
            1.0 / job.eligible().len() as f64
        } else {
            min_capacity[i] / total
        }
    };
    let feasible = |delta: f64| -> bool {
        // Per-job bounds on the witness (checked at the largest share).
        for job in config.job_classes() {
            for dc in job.eligible() {
                let r = (job.max_arrivals() + delta) * share(dc.index(), job);
                if r > job.max_route() {
                    return false;
                }
                if r + delta > job.max_process() {
                    return false;
                }
            }
        }
        // Capacity: Σ_{j: i∈𝒟_j} h'_{i,j} d_j ≤ min_cap_i − δ.
        for (i, &cap) in min_capacity.iter().enumerate() {
            let mut load = 0.0;
            for job in config.job_classes() {
                if job.is_eligible(grefar_types::DataCenterId::new(i)) {
                    let r = (job.max_arrivals() + delta) * share(i, job);
                    load += (r + delta) * job.work();
                }
            }
            if load > cap - delta {
                return false;
            }
        }
        true
    };

    let tiny = 1e-9;
    if !feasible(tiny) {
        return None;
    }
    let mut lo = tiny;
    let mut hi = min_capacity.iter().cloned().fold(1.0f64, f64::max) + 1.0;
    // Expand hi is unnecessary: capacity condition fails once delta ≥ cap.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Trace-based slackness certificate: the conditions (20)–(22) quantify
/// over each slot `t` separately, so the witness may adapt to the realized
/// arrivals. Each slot first tries the cheap capacity-proportional split
/// `r'_{i,j}(t) = (a_j(t) + δ)·c_i(t)/Σ_{i'∈𝒟_j} c_{i'}(t)`, `h' = r' + δ`;
/// slots where that heuristic is too coarse (e.g. several locality-
/// restricted bursts landing together) fall back to an *exact* feasibility
/// LP over `r'(t)`. This certifies bursty traces that the worst-case bound
/// of [`slackness_delta`] (built from `a^max` alone) would reject.
///
/// `capacities[t][i]` is `Σ_k n_{i,k}(t)·s_k` and `arrivals[t][j]` is
/// `a_j(t)`. Returns the largest certified `δ`, or `None`.
///
/// # Panics
/// Panics on shape mismatches or an empty trace, and when a
/// `strict-invariants` build of the simplex reports a broken invariant.
pub fn slackness_delta_trace(
    config: &SystemConfig,
    capacities: &[Vec<f64>],
    arrivals: &[Vec<f64>],
) -> Option<f64> {
    assert_eq!(
        capacities.len(),
        arrivals.len(),
        "capacity/arrival trace length mismatch"
    );
    assert!(!capacities.is_empty(), "trace must be non-empty");
    let n = config.num_data_centers();
    for (caps, arr) in capacities.iter().zip(arrivals) {
        assert_eq!(caps.len(), n, "capacity row length mismatch");
        assert_eq!(
            arr.len(),
            config.num_job_classes(),
            "arrival row length mismatch"
        );
    }

    // Exact per-slot witness: does any r' satisfy (20)-(22) at this delta?
    let lp_witness = |caps: &[f64], arr: &[f64], delta: f64| -> bool {
        use grefar_lp::{LpProblem, Relation, SolveError};
        let j_count = config.num_job_classes();
        let var = |i: usize, j: usize| i * j_count + j;
        let mut p = LpProblem::minimize(n * j_count);
        for (j, job) in config.job_classes().iter().enumerate() {
            let ub = job.max_route().min(job.max_process() - delta);
            if ub < 0.0 {
                return false;
            }
            let mut coeffs = Vec::new();
            for i in 0..n {
                if job.is_eligible(grefar_types::DataCenterId::new(i)) {
                    p.set_upper_bound(var(i, j), ub);
                    coeffs.push((var(i, j), 1.0));
                } else {
                    p.set_upper_bound(var(i, j), 0.0);
                }
            }
            p.add_constraint(&coeffs, Relation::Ge, arr[j] + delta);
        }
        for (i, &cap) in caps.iter().enumerate() {
            let mut coeffs = Vec::new();
            let mut fixed = 0.0;
            for (j, job) in config.job_classes().iter().enumerate() {
                if job.is_eligible(grefar_types::DataCenterId::new(i)) {
                    coeffs.push((var(i, j), job.work()));
                    fixed += delta * job.work(); // h' = r' + δ
                }
            }
            p.add_constraint(&coeffs, Relation::Le, cap - delta - fixed);
        }
        match p.solve() {
            Ok(_) => true,
            // Only a `strict-invariants` build of the simplex returns this:
            // the kernel failed its own check, which is not "infeasible".
            Err(SolveError::InvariantViolation(why)) => panic!("slackness LP: {why}"),
            Err(_) => false,
        }
    };

    let feasible = |delta: f64| -> bool {
        for (caps, arr) in capacities.iter().zip(arrivals) {
            let mut load = vec![0.0; n];
            let mut proportional_ok = true;
            'jobs: for (j, job) in config.job_classes().iter().enumerate() {
                let total: f64 = job.eligible().iter().map(|dc| caps[dc.index()]).sum();
                for dc in job.eligible() {
                    let i = dc.index();
                    let share = if total > 0.0 {
                        caps[i] / total
                    } else {
                        1.0 / job.eligible().len() as f64
                    };
                    let r = (arr[j] + delta) * share;
                    if r > job.max_route() || r + delta > job.max_process() {
                        proportional_ok = false;
                        break 'jobs;
                    }
                    load[i] += (r + delta) * job.work();
                }
            }
            if proportional_ok {
                proportional_ok = (0..n).all(|i| load[i] <= caps[i] - delta);
            }
            if !proportional_ok && !lp_witness(caps, arr, delta) {
                return false;
            }
        }
        true
    };

    let tiny = 1e-9;
    if !feasible(tiny) {
        return None;
    }
    let mut lo = tiny;
    let mut hi = capacities
        .iter()
        .flat_map(|c| c.iter().copied())
        .fold(1.0f64, f64::max)
        + 1.0;
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if feasible(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_types::{DataCenterId, JobClass, ServerClass};

    fn config() -> SystemConfig {
        SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![100.0])
            .data_center("b", vec![100.0])
            .account("x", 0.5)
            .account("y", 0.5)
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0), DataCenterId::new(1)], 0)
                    .with_max_arrivals(6.0)
                    .with_max_route(8.0)
                    .with_max_process(16.0),
            )
            .job_class(
                JobClass::new(2.0, vec![DataCenterId::new(1)], 1)
                    .with_max_arrivals(3.0)
                    .with_max_route(5.0)
                    .with_max_process(10.0),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn constants_are_positive_and_finite() {
        let b = TheoryBounds::new(&config(), 1.0, 1.0, 50.0);
        assert!(b.b_const() > 0.0 && b.b_const().is_finite());
        assert!(b.d_const() > 0.0 && b.d_const().is_finite());
        assert!(b.q_max() >= 6.0);
        assert!(b.g_spread() > 0.0);
    }

    #[test]
    fn queue_bound_is_monotone_in_v() {
        let b = TheoryBounds::new(&config(), 2.0, 0.8, 0.0);
        let mut prev = 0.0;
        for v in [0.0, 0.1, 1.0, 10.0, 100.0] {
            let q = b.queue_bound(v);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn queue_bound_scales_linearly_for_large_v() {
        let b = TheoryBounds::new(&config(), 2.0, 0.8, 0.0);
        let q1 = b.queue_bound(1_000.0);
        let q2 = b.queue_bound(2_000.0);
        assert!((q2 / q1 - 2.0).abs() < 0.05, "ratio {}", q2 / q1);
    }

    #[test]
    fn cost_gap_shrinks_as_one_over_v() {
        let b = TheoryBounds::new(&config(), 1.0, 0.8, 0.0);
        let g1 = b.cost_gap_bound(10.0, 4);
        let g2 = b.cost_gap_bound(20.0, 4);
        assert!((g1 / g2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cost_gap_grows_with_frame_length() {
        let b = TheoryBounds::new(&config(), 1.0, 0.8, 0.0);
        assert!(b.cost_gap_bound(10.0, 8) > b.cost_gap_bound(10.0, 2));
        // T = 1 leaves only B/V.
        assert!((b.cost_gap_bound(10.0, 1) - b.b_const() / 10.0).abs() < 1e-12);
    }

    #[test]
    fn slackness_found_for_overprovisioned_system() {
        let cfg = config();
        let delta = slackness_delta(&cfg, &[80.0, 80.0]).expect("system is overprovisioned");
        assert!(delta > 1.0, "delta {delta}");
        // The witness must satisfy all three conditions at the found delta.
        let b = TheoryBounds::new(&cfg, delta, 1.0, 0.0);
        assert!(b.queue_bound(5.0).is_finite());
    }

    #[test]
    fn slackness_none_when_capacity_too_small() {
        let cfg = config();
        assert_eq!(slackness_delta(&cfg, &[0.5, 0.5]), None);
    }

    #[test]
    fn slackness_respects_route_bounds() {
        // a^max = 6 with |D| = 1 and r^max = 3: even δ → 0 fails (6 > 3).
        let cfg = SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![100.0])
            .account("x", 1.0)
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0)], 0)
                    .with_max_arrivals(6.0)
                    .with_max_route(3.0)
                    .with_max_process(10.0),
            )
            .build()
            .unwrap();
        assert_eq!(slackness_delta(&cfg, &[100.0]), None);
    }

    #[test]
    fn beta_widens_g_spread() {
        let cfg = config();
        let b0 = TheoryBounds::new(&cfg, 1.0, 0.8, 0.0);
        let b100 = TheoryBounds::new(&cfg, 1.0, 0.8, 100.0);
        assert!(b100.g_spread() > b0.g_spread());
        assert!(b100.queue_bound(5.0) > b0.queue_bound(5.0));
    }
}
