//! The GreFar scheduler (Algorithm 1).

use crate::error::ParamError;
use crate::fairness::{FairnessFunction, QuadraticDeviation};
use crate::queue::QueueState;
use crate::scheduler::Scheduler;
use crate::solver::fallback::{self, Degradation, SolverBudget};
use crate::solver::{SlotInstance, SlotSolution, SolverChoice};
use grefar_convex::FwOptions;
use grefar_obs::{Event, Observer, Timer};
use grefar_types::{Decision, SystemConfig, SystemState};

/// Tunable parameters of GreFar: the cost-delay parameter `V ≥ 0` and the
/// energy-fairness parameter `β ≥ 0` of §IV.
///
/// * Larger `V` waits for lower electricity prices — the energy-fairness
///   cost approaches the `T`-step-lookahead optimum as `O(1/V)` while queues
///   (delays) grow as `O(V)` (Theorem 1).
/// * `β = 0` ignores fairness; `β → ∞` ignores energy (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreFarParams {
    v: f64,
    beta: f64,
    fw_options: FwOptions,
}

impl GreFarParams {
    /// Creates the parameter set. Validation happens at
    /// [`GreFar::new`].
    pub fn new(v: f64, beta: f64) -> Self {
        Self {
            v,
            beta,
            fw_options: FwOptions {
                max_iters: 200,
                gap_tolerance: 1e-6,
                ..FwOptions::default()
            },
        }
    }

    /// Overrides the Frank–Wolfe options used when `β > 0`.
    #[must_use]
    pub fn with_fw_options(mut self, options: FwOptions) -> Self {
        self.fw_options = options;
        self
    }

    /// The cost-delay parameter `V`.
    #[inline]
    pub fn v(&self) -> f64 {
        self.v
    }

    /// The energy-fairness parameter `β`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

/// The GreFar online scheduler (Algorithm 1): each slot, observe
/// `x(t)` and `Θ(t)`, then minimize the drift-plus-penalty expression (14)
/// subject to (4), (5), (11).
///
/// The minimization is exact (greedy) for `β = 0` and Frank–Wolfe with an
/// exact oracle for `β > 0`; see [`SlotInstance`] for the decomposition.
///
/// # Example
/// See the [crate-level documentation](crate).
pub struct GreFar {
    config: SystemConfig,
    params: GreFarParams,
    fairness: Box<dyn FairnessFunction>,
    budget: Option<SolverBudget>,
}

impl core::fmt::Debug for GreFar {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GreFar")
            .field("params", &self.params)
            .field("fairness", &self.fairness.name())
            .finish_non_exhaustive()
    }
}

impl GreFar {
    /// Creates GreFar with the paper's quadratic-deviation fairness
    /// function (3).
    ///
    /// # Errors
    /// [`ParamError`] if `V` or `β` is negative or non-finite.
    pub fn new(config: &SystemConfig, params: GreFarParams) -> Result<Self, ParamError> {
        Self::with_fairness(config, params, Box::new(QuadraticDeviation))
    }

    /// Creates GreFar with a custom fairness function (footnote 5 allows
    /// any concave choice, e.g. [`AlphaFair`](crate::AlphaFair)).
    ///
    /// # Errors
    /// [`ParamError`] if `V` or `β` is negative or non-finite.
    pub fn with_fairness(
        config: &SystemConfig,
        params: GreFarParams,
        fairness: Box<dyn FairnessFunction>,
    ) -> Result<Self, ParamError> {
        if !params.v.is_finite() || params.v < 0.0 {
            return Err(ParamError::InvalidV(params.v));
        }
        if !params.beta.is_finite() || params.beta < 0.0 {
            return Err(ParamError::InvalidBeta(params.beta));
        }
        Ok(Self {
            config: config.clone(),
            params,
            fairness,
            budget: None,
        })
    }

    /// The parameter set.
    pub fn params(&self) -> GreFarParams {
        self.params
    }

    /// The fairness function in use.
    pub fn fairness(&self) -> &dyn FairnessFunction {
        self.fairness.as_ref()
    }

    /// Solves the slot problem (14) with the typed fallback chain
    /// *Frank–Wolfe → greedy → capacity projection* wrapped around it.
    /// Every downgrade taken is returned as a [`Degradation`] (rendered as
    /// `degraded.mode` events by
    /// [`decide_observed`](Scheduler::decide_observed)).
    ///
    /// With no [`SolverBudget`] imposed and a feasible solver output — the
    /// healthy case — this is exactly `solve` and the degradation list is
    /// empty, so default runs are unchanged.
    fn solve_hardened(
        &self,
        state: &SystemState,
        queues: &QueueState,
        obs: &mut dyn Observer,
    ) -> (SlotSolution, Vec<Degradation>) {
        let mut degradations: Vec<Degradation> =
            fallback::offline_dcs_with_backlog(&self.config, state, queues)
                .into_iter()
                .map(Degradation::dc_offline)
                .collect();

        let inst = SlotInstance::new(&self.config, state, queues, self.params.v);
        let beta_zero = grefar_types::approx_zero(self.params.beta, grefar_types::TOL_SENTINEL);
        #[allow(unused_mut)] // reassigned only by the non-strict repair path
        let mut solution = if beta_zero {
            inst.solve_greedy()
        } else {
            match self.budget {
                None => inst.solve_with_fairness_observed(
                    self.params.beta,
                    self.fairness.as_ref(),
                    self.params.fw_options,
                    obs,
                ),
                Some(budget) => {
                    let squeezed = grefar_convex::FwOptions {
                        max_iters: self.params.fw_options.max_iters.min(budget.max_fw_iters()),
                        ..self.params.fw_options
                    };
                    let attempt = inst.solve_with_fairness_observed(
                        self.params.beta,
                        self.fairness.as_ref(),
                        squeezed,
                        obs,
                    );
                    match attempt.solver {
                        SolverChoice::FrankWolfe {
                            iterations, gap, ..
                        } if gap > squeezed.gap_tolerance => {
                            // Budget exhausted without convergence: fall
                            // back to the exact (fairness-blind) greedy,
                            // whose objective is stated at β = 0.
                            degradations.push(Degradation::budget_exhausted(iterations, gap));
                            let greedy = inst.solve_greedy();
                            SlotSolution {
                                objective: self.objective(state, queues, &greedy.decision),
                                ..greedy
                            }
                        }
                        _ => attempt,
                    }
                }
            }
        };

        // Outside `strict-invariants` an infeasible decision is quarantined
        // and repaired by capacity projection rather than aborting the run;
        // the strict build keeps the fatal check in `enforce`.
        #[cfg(not(feature = "strict-invariants"))]
        if let Err(kind) =
            fallback::validate_decision(&self.config, state, queues, &solution.decision)
        {
            let repaired =
                fallback::project_decision(&self.config, state, queues, &solution.decision);
            degradations.push(Degradation::infeasible_repaired(kind));
            solution = SlotSolution {
                objective: self.objective(state, queues, &repaired),
                decision: repaired,
                solver: solution.solver,
            };
        }
        (solution, degradations)
    }

    /// Objective (14) of `decision` at this scheduler's `V` and `β` — the
    /// value `decide_observed` splits into drift and penalty, re-evaluated
    /// whenever a fallback replaces the solver's own decision.
    fn objective(&self, state: &SystemState, queues: &QueueState, decision: &Decision) -> f64 {
        crate::cost::drift_penalty_objective(
            &self.config,
            state,
            queues,
            decision,
            self.params.v,
            self.params.beta,
            self.fairness.as_ref(),
        )
    }

    /// `strict-invariants` enforcement: every decision must satisfy
    /// (4), (5), (11) and GreFar's backlog discipline. Aborts on violation,
    /// emitting an `invariant.violation` event first when an observer is
    /// attached.
    #[cfg(feature = "strict-invariants")]
    fn enforce(
        &self,
        state: &SystemState,
        queues: &QueueState,
        decision: &Decision,
        obs: Option<&mut dyn Observer>,
    ) {
        let result =
            crate::invariant::check_decision(&self.config, state, decision).and_then(|()| {
                crate::invariant::check_backlog_discipline(&self.config, queues, decision)
            });
        if let Err(violation) = result {
            if let Some(obs) = obs {
                if obs.enabled() {
                    obs.record_event(violation.event(state.slot()));
                }
            }
            panic!("strict-invariants: GreFar produced an infeasible decision: {violation}");
        }
    }
}

impl Scheduler for GreFar {
    fn name(&self) -> String {
        format!("GreFar(V={}, beta={})", self.params.v, self.params.beta)
    }

    fn decide(&mut self, state: &SystemState, queues: &QueueState) -> Decision {
        let decision = self
            .solve_hardened(state, queues, &mut grefar_obs::NullObserver)
            .0
            .decision;
        #[cfg(feature = "strict-invariants")]
        self.enforce(state, queues, &decision, None);
        decision
    }

    fn decide_observed(
        &mut self,
        state: &SystemState,
        queues: &QueueState,
        obs: &mut dyn Observer,
    ) -> Decision {
        if !obs.enabled() && !obs.profiling() {
            return self.decide(state, queues);
        }
        let timer = Timer::start();
        let (solution, degradations) = self.solve_hardened(state, queues, obs);
        let elapsed = timer.elapsed();
        if !obs.enabled() {
            // Profiling-only sink: spans are attributed, events skipped.
            #[cfg(feature = "strict-invariants")]
            self.enforce(state, queues, &solution.decision, Some(obs));
            return solution.decision;
        }

        // Decompose (14): penalty = V·g(t), drift = the queue terms.
        let breakdown = crate::cost::cost_breakdown(
            &self.config,
            state,
            &solution.decision,
            self.params.beta,
            self.fairness.as_ref(),
        );
        let penalty = self.params.v * breakdown.combined;
        let drift = solution.objective - penalty;

        let (fw_iterations, fw_gap) = match solution.solver {
            SolverChoice::Greedy => (0usize, 0.0),
            SolverChoice::FrankWolfe {
                iterations, gap, ..
            } => (iterations, gap),
        };
        obs.record_event(
            Event::new("grefar.decide")
                .field("t", state.slot())
                .field("v", self.params.v)
                .field("beta", self.params.beta)
                .field("objective", solution.objective)
                .field("drift", drift)
                .field("penalty", penalty)
                .field("routed", solution.decision.routed.sum())
                .field("processed", solution.decision.processed.sum())
                .field("solver", solution.solver.label())
                .field("fw_iterations", fw_iterations)
                .field("fw_gap", fw_gap)
                .field(
                    "wall_us",
                    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
                ),
        );
        // Decision provenance: one `decision.explain` per DC, attributing
        // the drift/energy split of (14) and the constraint-(11) operating
        // point. The global fairness score and per-account deficit counters
        // Θ(t) ride on the DC-0 event (they are slot-wide, not per-DC); a
        // `reason` field carries the machine label of whichever fallback
        // overrode the solver for that DC (or the whole slot).
        for explain in
            crate::cost::explain_decision(&self.config, state, queues, &solution.decision)
        {
            let mut event = Event::new("decision.explain")
                .field("t", state.slot())
                .field("dc", explain.dc as u64)
                .field("drift", explain.drift)
                .field("energy", explain.energy)
                .field("routed", explain.routed)
                .field("processed", explain.processed)
                .field("backlog", explain.backlog)
                .field("busy", explain.busy)
                .field("capacity", explain.capacity);
            if explain.dc == 0 {
                // `γ_m − x_m` per account, comma-joined, each in `Display`
                // text (what `write_f64` writes).
                let mut deficits = String::with_capacity(24 * breakdown.shares.len());
                for (m, (account, share)) in self
                    .config
                    .accounts()
                    .iter()
                    .zip(&breakdown.shares)
                    .enumerate()
                {
                    if m > 0 {
                        deficits.push(',');
                    }
                    grefar_obs::json::write_f64(&mut deficits, account.gamma() - share);
                }
                event = event
                    .field("fairness", breakdown.fairness)
                    .field("deficits", deficits);
            }
            let reason = degradations
                .iter()
                .find(|d| d.dc == Some(explain.dc))
                .or_else(|| degradations.iter().find(|d| d.dc.is_none()));
            if let Some(degradation) = reason {
                event = event.field("reason", degradation.reason.label());
            }
            obs.record_event(event);
        }
        obs.record_duration("grefar.decide.wall_us", elapsed);
        if let SolverChoice::FrankWolfe { iterations, .. } = solution.solver {
            obs.record_value("grefar.fw_iterations", iterations as f64);
        }
        for degradation in &degradations {
            obs.record_event(degradation.event(state.slot()));
            obs.add_counter("degraded.events", 1);
        }
        #[cfg(feature = "strict-invariants")]
        self.enforce(state, queues, &solution.decision, Some(obs));
        solution.decision
    }

    fn set_solver_budget(&mut self, budget: Option<SolverBudget>) {
        self.budget = budget;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_types::{DataCenterId, DataCenterState, JobClass, ServerClass, Tariff};

    fn config() -> SystemConfig {
        SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![30.0])
            .account("x", 1.0)
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0)], 0)
                    .with_max_arrivals(5.0)
                    .with_max_route(10.0)
                    .with_max_process(30.0),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_bad_params() {
        let cfg = config();
        assert!(matches!(
            GreFar::new(&cfg, GreFarParams::new(-1.0, 0.0)),
            Err(ParamError::InvalidV(_))
        ));
        assert!(matches!(
            GreFar::new(&cfg, GreFarParams::new(1.0, f64::NAN)),
            Err(ParamError::InvalidBeta(_))
        ));
    }

    #[test]
    fn name_mentions_parameters() {
        let g = GreFar::new(&config(), GreFarParams::new(7.5, 100.0)).unwrap();
        assert_eq!(g.name(), "GreFar(V=7.5, beta=100)");
        assert_eq!(g.params().v(), 7.5);
        assert_eq!(g.fairness().name(), "quadratic-deviation");
    }

    #[test]
    fn higher_v_defers_more_work() {
        let cfg = config();
        let mut queues = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 6.0;
        queues.apply(&z, &[0.0]); // q = 6 at the data center
        let state = SystemState::new(0, vec![DataCenterState::new(vec![30.0], Tariff::flat(0.5))]);
        // Threshold: serve while q/d > V·φ·p/s = 0.5 V.
        let mut eager = GreFar::new(&cfg, GreFarParams::new(1.0, 0.0)).unwrap();
        let mut patient = GreFar::new(&cfg, GreFarParams::new(100.0, 0.0)).unwrap();
        assert_eq!(eager.decide(&state, &queues).processed[(0, 0)], 6.0);
        assert_eq!(patient.decide(&state, &queues).processed[(0, 0)], 0.0);
    }

    #[test]
    fn debug_is_nonempty() {
        let g = GreFar::new(&config(), GreFarParams::new(1.0, 1.0)).unwrap();
        assert!(!format!("{g:?}").is_empty());
    }

    #[test]
    fn squeezed_budget_falls_back_to_greedy_and_reports_it() {
        use grefar_obs::MemoryObserver;
        // Two accounts so the fairness quadratic actually couples the
        // problem and Frank–Wolfe needs iterations to converge.
        let cfg = SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![30.0])
            .account("x", 0.5)
            .account("y", 0.5)
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0)], 0)
                    .with_max_arrivals(5.0)
                    .with_max_route(10.0)
                    .with_max_process(30.0),
            )
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0)], 1)
                    .with_max_arrivals(5.0)
                    .with_max_route(10.0)
                    .with_max_process(30.0),
            )
            .build()
            .unwrap();
        let mut queues = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 8.0;
        z.routed[(0, 1)] = 2.0;
        queues.apply(&z, &[0.0, 0.0]);
        let state = SystemState::new(0, vec![DataCenterState::new(vec![30.0], Tariff::flat(0.2))]);

        let mut g = GreFar::new(&cfg, GreFarParams::new(1.0, 500.0)).unwrap();
        let unbudgeted = g.decide(&state, &queues);

        // A one-iteration budget cannot reach the 1e-6 gap tolerance here:
        // the chain must fall back to greedy and say so.
        g.set_solver_budget(Some(SolverBudget::fw_iters(1)));
        let mut obs = MemoryObserver::new();
        let degraded = g.decide_observed(&state, &queues, &mut obs);
        assert_eq!(obs.event_count("degraded.mode"), 1);
        assert!(degraded.is_finite() && degraded.is_nonnegative());
        let greedy_only = {
            let inst = SlotInstance::new(&cfg, &state, &queues, 1.0);
            inst.solve_greedy().decision
        };
        assert_eq!(
            degraded, greedy_only,
            "fallback must be the greedy decision"
        );

        // Lifting the budget restores the original behavior.
        g.set_solver_budget(None);
        let mut obs = MemoryObserver::new();
        let restored = g.decide_observed(&state, &queues, &mut obs);
        assert_eq!(obs.event_count("degraded.mode"), 0);
        assert_eq!(restored, unbudgeted);
    }

    #[test]
    fn offline_dc_with_backlog_is_reported_not_fatal() {
        use grefar_obs::MemoryObserver;
        let cfg = config();
        let mut queues = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 4.0;
        queues.apply(&z, &[0.0]);
        // Full outage: zero servers available.
        let state = SystemState::new(5, vec![DataCenterState::new(vec![0.0], Tariff::flat(0.5))]);
        let mut g = GreFar::new(&cfg, GreFarParams::new(1.0, 0.0)).unwrap();
        let mut obs = MemoryObserver::new();
        let decision = g.decide_observed(&state, &queues, &mut obs);
        assert_eq!(obs.event_count("degraded.mode"), 1);
        assert_eq!(obs.event_count("decision.explain"), 1);
        assert_eq!(decision.processed.sum(), 0.0);
    }

    #[test]
    fn decision_explain_reconciles_with_decide_event() {
        use grefar_obs::JsonlSink;
        let cfg = config();
        let mut queues = QueueState::new(&cfg);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 6.0;
        queues.apply(&z, &[0.0]);
        let state = SystemState::new(0, vec![DataCenterState::new(vec![30.0], Tariff::flat(0.5))]);
        let mut g = GreFar::new(&cfg, GreFarParams::new(1.0, 0.0)).unwrap();
        let mut sink = JsonlSink::new(Vec::new());
        g.decide_observed(&state, &queues, &mut sink);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let events = grefar_obs::json::parse_lines(&text).unwrap();
        let decide = events
            .iter()
            .find(|e| e["event"].as_str() == Some("grefar.decide"))
            .unwrap();
        let explains: Vec<_> = events
            .iter()
            .filter(|e| e["event"].as_str() == Some("decision.explain"))
            .collect();
        assert_eq!(explains.len(), 1); // one per DC
        let drift_sum: f64 = explains.iter().map(|e| e["drift"].as_f64().unwrap()).sum();
        assert!((drift_sum - decide["drift"].as_f64().unwrap()).abs() < 1e-9);
        // Slot-wide fairness/deficit counters ride on the DC-0 event.
        assert!(explains[0]["fairness"].as_f64().is_some());
        assert!(explains[0]["deficits"].as_str().is_some());
        // Healthy slot: no override reason.
        assert!(explains[0].get("reason").is_none());
    }
}
