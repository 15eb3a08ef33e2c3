//! The queue vector `Θ(t)` and its dynamics (12)–(13).

use grefar_types::{Decision, Grid, SystemConfig};

/// The scheduler's queue state
/// `Θ(t) = {Q_j(t), q_{i,j}(t) : i ∈ 𝒟_j, j = 1..J}` (eq. (25)):
/// `Q_j` counts type-`j` jobs waiting at the central scheduler, `q_{i,j}`
/// counts type-`j` jobs waiting in data center `i`.
///
/// Updates follow the paper exactly:
///
/// ```text
/// Q_j(t+1)   = max[Q_j(t) − Σ_i r_{i,j}(t), 0] + a_j(t)        (12)
/// q_{i,j}(t+1) = max[q_{i,j}(t) − h_{i,j}(t), 0] + r_{i,j}(t)  (13)
/// ```
///
/// # Example
/// ```
/// use grefar_core::QueueState;
/// use grefar_types::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let config = SystemConfig::builder()
/// #     .server_class(ServerClass::new(1.0, 1.0))
/// #     .data_center("dc", vec![10.0])
/// #     .account("org", 1.0)
/// #     .job_class(JobClass::new(1.0, vec![DataCenterId::new(0)], 0))
/// #     .build()?;
/// let mut q = QueueState::new(&config);
/// let mut z = config.decision_zeros();
/// q.apply(&z, &[5.0]);            // 5 arrivals
/// assert_eq!(q.central(0), 5.0);
/// z.routed[(0, 0)] = 3.0;
/// q.apply(&z, &[0.0]);            // route 3 to the data center
/// assert_eq!(q.central(0), 2.0);
/// assert_eq!(q.local(0, 0), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueueState {
    /// Q_j(t), length J.
    central: Vec<f64>,
    /// q_{i,j}(t), shape N × J. Entries outside the eligibility set stay 0.
    local: Grid,
}

impl QueueState {
    /// All-empty queues (the initial condition of Theorem 1).
    pub fn new(config: &SystemConfig) -> Self {
        Self {
            central: vec![0.0; config.num_job_classes()],
            local: Grid::zeros(config.num_data_centers(), config.num_job_classes()),
        }
    }

    /// Rebuilds a queue state from explicit values (checkpoint restore).
    ///
    /// # Errors
    /// Returns a message if the shape is inconsistent or any entry is
    /// negative or non-finite.
    pub fn from_parts(central: Vec<f64>, local: Grid) -> Result<Self, String> {
        if local.cols() != central.len() {
            return Err(format!(
                "local grid has {} columns but {} central queues",
                local.cols(),
                central.len()
            ));
        }
        let bad = |v: &f64| !v.is_finite() || *v < 0.0;
        if central.iter().any(bad) || local.as_slice().iter().any(bad) {
            return Err("queue lengths must be finite and non-negative".to_string());
        }
        Ok(Self { central, local })
    }

    /// The central queue length `Q_j(t)`.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    #[inline]
    pub fn central(&self, j: usize) -> f64 {
        self.central[j]
    }

    /// The data-center queue length `q_{i,j}(t)`.
    ///
    /// # Panics
    /// Panics if indices are out of range.
    #[inline]
    pub fn local(&self, i: usize, j: usize) -> f64 {
        self.local[(i, j)]
    }

    /// All central queue lengths.
    #[inline]
    pub fn central_slice(&self) -> &[f64] {
        &self.central
    }

    /// All data-center queue lengths as an `N × J` grid.
    #[inline]
    pub fn local_grid(&self) -> &Grid {
        &self.local
    }

    /// Test-only mutation hook: adds `delta` to central queue `j`,
    /// deliberately desynchronizing the state from the dynamics. Exists so
    /// the `grefar-soak` mutation self-check can prove the conservation
    /// ledger actually detects a corrupted queue update; never call it
    /// from production paths.
    ///
    /// # Panics
    /// Panics if `j` is out of range or the result would be negative or
    /// non-finite.
    #[doc(hidden)]
    pub fn corrupt_central_for_test(&mut self, j: usize, delta: f64) {
        let corrupted = self.central[j] + delta;
        assert!(
            corrupted.is_finite() && corrupted >= 0.0,
            "corruption must leave a valid queue length"
        );
        self.central[j] = corrupted;
    }

    /// Applies one slot of dynamics: first the departures/routings of the
    /// decision `z(t)`, then the arrivals `a(t)` — exactly (12)–(13).
    ///
    /// # Panics
    /// Panics if dimensions mismatch, the decision has negative entries, or
    /// arrivals are negative.
    pub fn apply(&mut self, decision: &Decision, arrivals: &[f64]) {
        let n = self.local.rows();
        let j_count = self.central.len();
        assert_eq!(arrivals.len(), j_count, "arrival vector mismatch");
        assert_eq!(decision.routed.rows(), n, "decision shape mismatch");
        assert_eq!(decision.routed.cols(), j_count, "decision shape mismatch");
        assert!(decision.is_nonnegative(), "decision has negative entries");

        for (j, &arrived) in arrivals.iter().enumerate() {
            assert!(arrived >= 0.0, "negative arrivals for job type {j}");
            let routed_total = decision.routed.col_sum(j);
            self.central[j] = (self.central[j] - routed_total).max(0.0) + arrived;
            for i in 0..n {
                let served = decision.processed[(i, j)];
                let routed = decision.routed[(i, j)];
                self.local[(i, j)] = (self.local[(i, j)] - served).max(0.0) + routed;
            }
        }
    }

    /// Sum of all queue lengths
    /// `Σ_j Q_j + Σ_j Σ_i q_{i,j}` — the quantity bounded by `P/δ` in the
    /// proof of Theorem 1(a).
    pub fn total(&self) -> f64 {
        self.central.iter().sum::<f64>() + self.local.sum()
    }

    /// The largest single queue length — compared against the bound (23).
    pub fn max_len(&self) -> f64 {
        let c = self.central.iter().fold(0.0f64, |m, &v| m.max(v));
        c.max(self.local.max_abs())
    }

    /// The quadratic Lyapunov function
    /// `L(Θ) = ½ Σ_j Q_j² + ½ Σ_j Σ_i q_{i,j}²` (eq. (26)).
    pub fn lyapunov(&self) -> f64 {
        let c: f64 = self.central.iter().map(|v| v * v).sum();
        let l: f64 = self.local.as_slice().iter().map(|v| v * v).sum();
        0.5 * (c + l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_types::{DataCenterId, JobClass, ServerClass};

    fn config() -> SystemConfig {
        SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![10.0])
            .data_center("b", vec![10.0])
            .account("x", 1.0)
            .job_class(JobClass::new(
                1.0,
                vec![DataCenterId::new(0), DataCenterId::new(1)],
                0,
            ))
            .job_class(JobClass::new(2.0, vec![DataCenterId::new(1)], 0))
            .build()
            .unwrap()
    }

    #[test]
    fn starts_empty() {
        let q = QueueState::new(&config());
        assert_eq!(q.total(), 0.0);
        assert_eq!(q.lyapunov(), 0.0);
        assert_eq!(q.max_len(), 0.0);
    }

    #[test]
    fn dynamics_follow_eq_12_13() {
        let cfg = config();
        let mut q = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();

        // Slot 0: 4 arrivals of type 0, 2 of type 1.
        q.apply(&z, &[4.0, 2.0]);
        assert_eq!(q.central(0), 4.0);
        assert_eq!(q.central(1), 2.0);

        // Slot 1: route 3 type-0 to DC 0 and 5 (over-routing) type-1 to DC 1.
        z.routed[(0, 0)] = 3.0;
        z.routed[(1, 1)] = 5.0;
        q.apply(&z, &[0.0, 0.0]);
        assert_eq!(q.central(0), 1.0);
        assert_eq!(q.central(1), 0.0); // max[2−5, 0] = 0
        assert_eq!(q.local(0, 0), 3.0);
        assert_eq!(q.local(1, 1), 5.0); // r enters q even when over-routed

        // Slot 2: serve 1.5 of type-0 in DC 0, over-serve type-1 in DC 1.
        z.routed.clear();
        z.processed[(0, 0)] = 1.5;
        z.processed[(1, 1)] = 99.0;
        q.apply(&z, &[0.0, 0.0]);
        assert_eq!(q.local(0, 0), 1.5);
        assert_eq!(q.local(1, 1), 0.0); // max[5−99, 0]
    }

    #[test]
    fn simultaneous_route_and_serve() {
        let cfg = config();
        let mut q = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();
        q.apply(&z, &[10.0, 0.0]);
        z.routed[(0, 0)] = 4.0;
        q.apply(&z, &[0.0, 0.0]);
        // Now serve 4 while routing 2 more in the same slot.
        z.routed[(0, 0)] = 2.0;
        z.processed[(0, 0)] = 4.0;
        q.apply(&z, &[0.0, 0.0]);
        // q = max[4 − 4, 0] + 2 = 2.
        assert_eq!(q.local(0, 0), 2.0);
        assert_eq!(q.central(0), 4.0);
    }

    #[test]
    fn lyapunov_and_totals() {
        let cfg = config();
        let mut q = QueueState::new(&cfg);
        q.apply(&cfg.decision_zeros(), &[3.0, 4.0]);
        assert_eq!(q.total(), 7.0);
        assert_eq!(q.lyapunov(), 0.5 * (9.0 + 16.0));
        assert_eq!(q.max_len(), 4.0);
    }

    #[test]
    #[should_panic(expected = "negative arrivals")]
    fn rejects_negative_arrivals() {
        let cfg = config();
        let mut q = QueueState::new(&cfg);
        q.apply(&cfg.decision_zeros(), &[-1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "negative entries")]
    fn rejects_negative_decision() {
        let cfg = config();
        let mut q = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = -1.0;
        q.apply(&z, &[0.0, 0.0]);
    }

    #[test]
    fn queues_never_go_negative() {
        let cfg = config();
        let mut q = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 100.0;
        z.processed[(0, 0)] = 100.0;
        for _ in 0..10 {
            q.apply(&z, &[1.0, 0.0]);
            assert!(q.central(0) >= 0.0);
            assert!(q.local(0, 0) >= 0.0);
        }
    }
}
