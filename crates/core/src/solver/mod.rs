//! The per-slot drift-plus-penalty minimization (14).
//!
//! Step 2 of Algorithm 1: given the observed state `x(t)` and queues
//! `Θ(t)`, choose `r_{i,j}(t)`, `h_{i,j}(t)` (and implicitly `b_{i,k}(t)`)
//! minimizing
//!
//! ```text
//! V·g(t) − Σ_j Q_j(t)·Σ_{i∈𝒟_j} r_{i,j}(t)
//!        + Σ_j Σ_{i∈𝒟_j} q_{i,j}(t)·[r_{i,j}(t) − h_{i,j}(t)]
//! ```
//!
//! The minimization decomposes:
//!
//! * **Routing** — the `r` terms have coefficient `(q_{i,j} − Q_j)`, so the
//!   exact minimizer routes `r^max` jobs to every eligible data center whose
//!   local queue is shorter than the central queue. (We additionally never
//!   route more jobs than exist; see DESIGN.md §4 — the `max[·,0]` dynamics
//!   make this equivalent for the queues and strictly better for cost.)
//! * **Processing, `β = 0`** — per data center an LP solved *exactly* by the
//!   greedy fractional matching in [`greedy`], including convex tariffs.
//! * **Processing, `β > 0`** — the fairness quadratic couples data centers;
//!   [`fw`] runs Frank–Wolfe with the greedy as linear-minimization oracle.

pub mod fallback;
mod fw;
mod greedy;

use crate::fairness::FairnessFunction;
use crate::queue::QueueState;
use grefar_cluster::PowerCurve;
use grefar_convex::FwOptions;
use grefar_types::{Decision, Grid, SystemConfig, SystemState};

pub(crate) use greedy::price_aware_dispatch_dc;

/// One slot's drift-plus-penalty instance: everything (14) depends on,
/// with the per-data-center quantities precomputed.
///
/// # Example
/// ```
/// use grefar_core::{QueueState, SlotInstance};
/// use grefar_types::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let config = SystemConfig::builder()
/// #     .server_class(ServerClass::new(1.0, 1.0))
/// #     .data_center("dc", vec![10.0])
/// #     .account("org", 1.0)
/// #     .job_class(JobClass::new(1.0, vec![DataCenterId::new(0)], 0))
/// #     .build()?;
/// let mut queues = QueueState::new(&config);
/// queues.apply(&config.decision_zeros(), &[4.0]);
/// let state = SystemState::new(0, vec![DataCenterState::new(vec![10.0], Tariff::flat(0.01))]);
/// let inst = SlotInstance::new(&config, &state, &queues, 1.0);
/// let solution = inst.solve_greedy();
/// assert!(solution.decision.is_nonnegative());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SlotInstance<'a> {
    pub(crate) config: &'a SystemConfig,
    pub(crate) state: &'a SystemState,
    pub(crate) queues: &'a QueueState,
    pub(crate) v: f64,
    pub(crate) work: Vec<f64>,
    pub(crate) speeds: Vec<f64>,
    pub(crate) powers: Vec<f64>,
    /// Per-(i, j) processing cap: `min(h^max_j, q_{i,j})` for eligible
    /// pairs, 0 otherwise (never bill energy for phantom work).
    pub(crate) h_cap: Grid,
    /// Total available resource `R(t)`.
    pub(crate) total_capacity: f64,
}

/// Which processing solver produced a [`SlotSolution`] — surfaced so
/// telemetry can distinguish the exact greedy path from Frank–Wolfe and
/// report the latter's convergence effort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverChoice {
    /// The exact greedy fractional matching (`β = 0`).
    Greedy,
    /// Frank–Wolfe with the greedy LMO (`β > 0`).
    FrankWolfe {
        /// Iterations actually performed.
        iterations: usize,
        /// Final duality gap (an upper bound on `f(x) − f*`).
        gap: f64,
        /// Probes the golden-section line searches evaluated
        /// ([`FwResult::evaluations`](grefar_convex::FwResult::evaluations)).
        /// Tests read it; telemetry does not carry it.
        evaluations: usize,
    },
}

impl SolverChoice {
    /// A short label for telemetry ("greedy" / "frank_wolfe").
    pub fn label(&self) -> &'static str {
        match self {
            SolverChoice::Greedy => "greedy",
            SolverChoice::FrankWolfe { .. } => "frank_wolfe",
        }
    }
}

/// The minimizer of (14) for one slot, plus its objective value.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSolution {
    /// The chosen action `z(t)`.
    pub decision: Decision,
    /// The drift-plus-penalty value (14) achieved by `decision`.
    pub objective: f64,
    /// Which solver produced the decision (and how hard it worked).
    pub solver: SolverChoice,
}

impl<'a> SlotInstance<'a> {
    /// Builds the instance for one slot.
    ///
    /// # Panics
    /// Panics if `v` is negative/non-finite or the state's shape mismatches
    /// the configuration.
    pub fn new(
        config: &'a SystemConfig,
        state: &'a SystemState,
        queues: &'a QueueState,
        v: f64,
    ) -> Self {
        assert!(
            v.is_finite() && v >= 0.0,
            "cost-delay parameter V must be non-negative and finite"
        );
        assert_eq!(
            state.num_data_centers(),
            config.num_data_centers(),
            "state/config data-center count mismatch"
        );
        let n = config.num_data_centers();
        let j_count = config.num_job_classes();
        let mut h_cap = Grid::zeros(n, j_count);
        for (j, job) in config.job_classes().iter().enumerate() {
            for &dc in job.eligible() {
                let i = dc.index();
                h_cap[(i, j)] = job.max_process().min(queues.local(i, j));
            }
        }
        Self {
            config,
            state,
            queues,
            v,
            work: config.work_vector(),
            speeds: config.speed_vector(),
            powers: config
                .server_classes()
                .iter()
                .map(|c| c.active_power())
                // verify: allow(hot-path-alloc): exact-size collect from a slice iterator, once per slot instance
                .collect(),
            h_cap,
            total_capacity: state.total_capacity(config.server_classes()),
        }
    }

    /// The exact routing decision: for each job type, send up to `r^max`
    /// jobs to every eligible data center with `q_{i,j}(t) < Q_j(t)`,
    /// shortest local queues first, never exceeding the central backlog.
    /// Exact queue-length ties are broken by a slot-rotating preference so
    /// that an idle system spreads load across data centers instead of
    /// always favoring the lowest index. Routing counts are integral (jobs
    /// cannot be split, §III-C.2).
    pub fn solve_routing(&self) -> Grid {
        let n = self.config.num_data_centers();
        let j_count = self.config.num_job_classes();
        let rotation = (self.state.slot() as usize) % n.max(1);
        let mut routed = Grid::zeros(n, j_count);
        for (j, job) in self.config.job_classes().iter().enumerate() {
            let central = self.queues.central(j);
            let mut remaining = central.floor();
            if remaining <= 0.0 {
                continue;
            }
            // Eligible DCs with a strictly shorter local queue, shortest first.
            let mut targets: Vec<usize> = Vec::with_capacity(job.eligible().len());
            targets.extend(
                job.eligible()
                    .iter()
                    .map(|dc| dc.index())
                    .filter(|&i| self.queues.local(i, j) < central),
            );
            targets.sort_by(|&a, &b| {
                let qa = self.queues.local(a, j);
                let qb = self.queues.local(b, j);
                qa.total_cmp(&qb).then_with(|| {
                    let ra = (a + n - rotation) % n;
                    let rb = (b + n - rotation) % n;
                    ra.cmp(&rb)
                })
            });
            for i in targets {
                if remaining <= 0.0 {
                    break;
                }
                let give = job.max_route().min(remaining).floor();
                if give > 0.0 {
                    routed[(i, j)] = give;
                    remaining -= give;
                }
            }
        }
        routed
    }

    /// Solves the full slot problem exactly for `β = 0` (routing + per-DC
    /// greedy processing), returning the decision and its (14) value.
    pub fn solve_greedy(&self) -> SlotSolution {
        let mut decision = self.config.decision_zeros();
        decision.routed = self.solve_routing();
        let j_count = self.config.num_job_classes();
        let k_count = self.config.num_server_classes();
        let mut h_row = vec![0.0; j_count];
        let mut b_row = vec![0.0; k_count];
        let mut values = vec![0.0; j_count];
        for i in 0..self.config.num_data_centers() {
            for (j, value) in values.iter_mut().enumerate() {
                *value = self.queues.local(i, j);
            }
            let dc = self.state.data_center(i);
            price_aware_dispatch_dc(
                &values,
                &self.work,
                &self.speeds,
                &self.powers,
                dc.available_slice(),
                self.h_cap.row(i),
                dc.tariff(),
                self.v,
                &mut h_row,
                &mut b_row,
            );
            decision.processed.row_mut(i).copy_from_slice(&h_row);
            decision.busy.row_mut(i).copy_from_slice(&b_row);
        }
        let objective = self.objective_beta_zero(&decision);
        SlotSolution {
            decision,
            objective,
            solver: SolverChoice::Greedy,
        }
    }

    /// Solves the slot problem with fairness (`β > 0`) via Frank–Wolfe with
    /// the greedy linear-minimization oracle, then re-dispatches the final
    /// work at minimum power (a strict improvement that keeps feasibility).
    ///
    /// # Panics
    /// Panics if `beta` is negative or non-finite.
    pub fn solve_with_fairness(
        &self,
        beta: f64,
        fairness: &dyn FairnessFunction,
        options: FwOptions,
    ) -> SlotSolution {
        self.solve_with_fairness_observed(beta, fairness, options, &mut grefar_obs::NullObserver)
    }

    /// [`solve_with_fairness`](Self::solve_with_fairness) with span
    /// attribution: a profiling observer sees one `fw.iter` span per
    /// Frank–Wolfe iteration under the caller's current span.
    ///
    /// # Panics
    /// Panics if `beta` is negative or non-finite.
    pub fn solve_with_fairness_observed(
        &self,
        beta: f64,
        fairness: &dyn FairnessFunction,
        options: FwOptions,
        obs: &mut dyn grefar_obs::Observer,
    ) -> SlotSolution {
        assert!(
            beta.is_finite() && beta >= 0.0,
            "beta must be non-negative and finite"
        );
        let mut decision = self.config.decision_zeros();
        decision.routed = self.solve_routing();
        let (processed, busy, solver) =
            fw::solve_processing_fw_observed(self, beta, fairness, options, obs);
        decision.processed = processed;
        decision.busy = busy;
        let objective = crate::cost::drift_penalty_objective(
            self.config,
            self.state,
            self.queues,
            &decision,
            self.v,
            beta,
            fairness,
        );
        SlotSolution {
            decision,
            objective,
            solver,
        }
    }

    /// Re-dispatches `work_by_dc[i]` units of work per data center at
    /// minimum power, returning the busy matrix. Used to trim Frank–Wolfe's
    /// interior `b` iterates back to the supply frontier, and by external
    /// schedulers (e.g. the MPC baseline) that decide work first and
    /// dispatch servers second.
    ///
    /// # Panics
    /// Panics if `work_by_dc.len()` differs from the data-center count.
    pub fn min_power_busy(&self, work_by_dc: &[f64]) -> Grid {
        let n = self.config.num_data_centers();
        let k_count = self.config.num_server_classes();
        let mut busy = Grid::zeros(n, k_count);
        for (i, &dc_work) in work_by_dc.iter().enumerate() {
            let curve = PowerCurve::build(
                self.state.data_center(i).available_slice(),
                self.config.server_classes(),
            );
            let w = dc_work.min(curve.total_capacity());
            let b = curve.dispatch(w, self.config.server_classes());
            busy.row_mut(i).copy_from_slice(&b);
        }
        busy
    }

    /// The (14) objective for `β = 0` (energy only).
    fn objective_beta_zero(&self, decision: &Decision) -> f64 {
        crate::cost::drift_penalty_objective(
            self.config,
            self.state,
            self.queues,
            decision,
            self.v,
            0.0,
            &crate::fairness::QuadraticDeviation,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_types::{DataCenterId, DataCenterState, JobClass, ServerClass, Tariff};

    fn config() -> SystemConfig {
        SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![20.0])
            .data_center("b", vec![20.0])
            .account("x", 1.0)
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0), DataCenterId::new(1)], 0)
                    .with_max_arrivals(10.0)
                    .with_max_route(6.0)
                    .with_max_process(20.0),
            )
            .build()
            .unwrap()
    }

    fn state(p0: f64, p1: f64) -> SystemState {
        SystemState::new(
            0,
            vec![
                DataCenterState::new(vec![20.0], Tariff::flat(p0)),
                DataCenterState::new(vec![20.0], Tariff::flat(p1)),
            ],
        )
    }

    #[test]
    fn routing_prefers_shorter_local_queues() {
        let cfg = config();
        let st = state(0.5, 0.5);
        let mut q = QueueState::new(&cfg);
        q.apply(&cfg.decision_zeros(), &[10.0]); // Q = 10
                                                 // Put 3 jobs in DC 0's queue so DC 1 (empty) is preferred.
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 3.0;
        q.apply(&z, &[3.0]); // Q = 10 − 3 + 3 = 10, q(0,0) = 3

        let inst = SlotInstance::new(&cfg, &st, &q, 1.0);
        let routed = inst.solve_routing();
        // r^max = 6 to DC 1 first (q = 0), remaining 4 to DC 0 (q = 3 < 10).
        assert_eq!(routed[(1, 0)], 6.0);
        assert_eq!(routed[(0, 0)], 4.0);
    }

    #[test]
    fn routing_skips_longer_local_queues() {
        let cfg = config();
        let st = state(0.5, 0.5);
        let mut q = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 12.0;
        q.apply(&z, &[2.0]); // q(0,0) = 12, Q = 2
        let inst = SlotInstance::new(&cfg, &st, &q, 1.0);
        let routed = inst.solve_routing();
        assert_eq!(routed[(0, 0)], 0.0); // q(0,0)=12 ≥ Q=2: not a target
        assert_eq!(routed[(1, 0)], 2.0);
    }

    #[test]
    fn routing_never_exceeds_backlog() {
        let cfg = config();
        let st = state(0.5, 0.5);
        let mut q = QueueState::new(&cfg);
        q.apply(&cfg.decision_zeros(), &[3.0]);
        let inst = SlotInstance::new(&cfg, &st, &q, 1.0);
        let routed = inst.solve_routing();
        assert!(routed.sum() <= 3.0);
    }

    #[test]
    fn greedy_processes_when_price_low_enough() {
        let cfg = config();
        let mut q = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 5.0;
        q.apply(&z, &[0.0]); // q(0,0) = 5

        // V=2: threshold value/work = q > V·φ·(p/s) = 2φ. q=5, d=1.
        let cheap = SlotInstance::new(&cfg, &state(0.1, 0.1), &q, 2.0)
            .solve_greedy()
            .decision;
        assert_eq!(cheap.processed[(0, 0)], 5.0); // 5 > 0.2: serve all

        let pricey = SlotInstance::new(&cfg, &state(9.0, 9.0), &q, 2.0)
            .solve_greedy()
            .decision;
        assert_eq!(pricey.processed[(0, 0)], 0.0); // 5 < 18: wait
    }

    #[test]
    fn greedy_objective_matches_cost_module() {
        let cfg = config();
        let st = state(0.3, 0.6);
        let mut q = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 4.0;
        z.routed[(1, 0)] = 2.0;
        q.apply(&z, &[5.0]);
        let inst = SlotInstance::new(&cfg, &st, &q, 1.5);
        let sol = inst.solve_greedy();
        let recomputed = crate::cost::drift_penalty_objective(
            &cfg,
            &st,
            &q,
            &sol.decision,
            1.5,
            0.0,
            &crate::fairness::QuadraticDeviation,
        );
        assert!((sol.objective - recomputed).abs() < 1e-12);
    }

    #[test]
    fn greedy_never_serves_phantom_work() {
        let cfg = config();
        let st = state(0.0, 0.0); // free energy: maximum serving incentive
        let mut q = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 3.0;
        q.apply(&z, &[0.0]);
        let d = SlotInstance::new(&cfg, &st, &q, 1.0)
            .solve_greedy()
            .decision;
        // Only 3 jobs exist in DC 0 even though h^max = 20.
        assert_eq!(d.processed[(0, 0)], 3.0);
        assert_eq!(d.processed[(1, 0)], 0.0);
        // Busy servers sized to actual work only.
        assert!((d.busy[(0, 0)] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn min_power_busy_respects_capacity() {
        let cfg = config();
        let st = state(0.5, 0.5);
        let q = QueueState::new(&cfg);
        let inst = SlotInstance::new(&cfg, &st, &q, 1.0);
        let busy = inst.min_power_busy(&[15.0, 25.0]);
        assert!((busy[(0, 0)] - 15.0).abs() < 1e-9);
        assert!((busy[(1, 0)] - 20.0).abs() < 1e-9); // clamped to availability
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_v() {
        let cfg = config();
        let st = state(0.5, 0.5);
        let q = QueueState::new(&cfg);
        let _ = SlotInstance::new(&cfg, &st, &q, -1.0);
    }
}
