//! A receding-horizon (MPC) scheduler built on the frame LP.
//!
//! The paper's §II discusses prediction-based approaches (e.g. Guenter et
//! al. [4] predict future demand with a Markov chain) and §I argues that
//! dynamic programming over forecasts "can be time consuming". This module
//! implements that alternative honestly so the trade-off can be measured:
//! every slot, [`MpcScheduler`] solves a linear program over the next `H`
//! slots of *forecast* prices, availability and arrivals — minimizing
//! energy plus a backlog holding cost — and applies the first slot of the
//! plan. With a perfect oracle forecast it upper-bounds what
//! forecast-driven scheduling can achieve; with forecast noise it degrades,
//! while GreFar needs no forecast at all (the `forecast_value` experiment).
//!
//! The LP per slot (variables `x[τ][i][j]` = jobs of type `j` served at DC
//! `i` in relative slot `τ`, `b[τ][i][k]` = busy servers, `B[τ][j]` =
//! backlog):
//!
//! ```text
//! min  Σ_τ Σ_i φ̂_i(t+τ)·Σ_k p_k b[τ][i][k]  +  w·Σ_τ Σ_j d_j B[τ][j]
//!      + φ̄(t)·Σ_j d_j B[H−1][j]                    (terminal backlog value)
//! s.t. B[0][j]  = backlog_j(t)         − Σ_i x[0][i][j]
//!      B[τ][j]  = B[τ−1][j] + â_j(t+τ−1) − Σ_i x[τ][i][j]        (τ ≥ 1)
//!      Σ_j d_j x[τ][i][j] ≤ Σ_k s_k b[τ][i][k],   b ≤ n̂,  x ≤ h^max
//! ```
//!
//! The holding weight `w` plays the role of `1/V`: higher `w` serves
//! sooner, lower `w` waits for cheap slots. The terminal term charges
//! work still unserved at the horizon's end the *current average price*
//! `φ̄(t)`, so the planner cannot cheat by pushing everything past the
//! horizon; it therefore serves now exactly when the current price beats
//! the average minus accrued holding.

use crate::inputs::SimulationInputs;
use grefar_core::{QueueState, Scheduler, SlotInstance};
use grefar_lp::{LpProblem, Relation, SolveError, SolveStats};
use grefar_obs::{Event, Observer, Timer};
use grefar_types::{Decision, SystemConfig, SystemState};

/// Receding-horizon scheduler with an oracle (optionally noisy) forecast.
pub struct MpcScheduler {
    config: SystemConfig,
    forecast: SimulationInputs,
    horizon: usize,
    holding_weight: f64,
    price_noise: f64,
}

impl core::fmt::Debug for MpcScheduler {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MpcScheduler")
            .field("horizon", &self.horizon)
            .field("holding_weight", &self.holding_weight)
            .field("price_noise", &self.price_noise)
            .finish_non_exhaustive()
    }
}

impl MpcScheduler {
    /// Creates the scheduler with lookahead `horizon ≥ 1` slots, backlog
    /// holding weight `holding_weight > 0` (cost per unit of backlog work
    /// per slot) and a perfect forecast taken from `forecast`.
    ///
    /// # Panics
    /// Panics if `horizon == 0` or `holding_weight` is not positive/finite.
    pub fn new(
        config: &SystemConfig,
        forecast: SimulationInputs,
        horizon: usize,
        holding_weight: f64,
    ) -> Self {
        assert!(horizon >= 1, "horizon must be at least one slot");
        assert!(
            holding_weight.is_finite() && holding_weight > 0.0,
            "holding weight must be positive and finite"
        );
        Self {
            config: config.clone(),
            forecast,
            horizon,
            holding_weight,
            price_noise: 0.0,
        }
    }

    /// Degrades the price forecast with deterministic multiplicative error
    /// of relative amplitude `amplitude` (0 = oracle). Arrival and
    /// availability forecasts stay exact, isolating price-forecast value.
    ///
    /// # Panics
    /// Panics if `amplitude` is negative or non-finite.
    #[must_use]
    pub fn with_price_noise(mut self, amplitude: f64) -> Self {
        assert!(
            amplitude.is_finite() && amplitude >= 0.0,
            "noise amplitude must be non-negative"
        );
        self.price_noise = amplitude;
        self
    }

    /// The forecast price of DC `i` at absolute slot `t` (clamped to the
    /// forecast horizon), with deterministic noise if configured.
    fn price_hat(&self, t: usize, i: usize) -> f64 {
        let t = t.min(self.forecast.horizon() - 1);
        let base = self.forecast.state(t).data_center(i).price();
        if grefar_types::approx_zero(self.price_noise, grefar_types::TOL_SENTINEL) {
            return base;
        }
        // Deterministic pseudo-noise: a cheap hash of (t, i) mapped to
        // [−1, 1]. Reproducible across runs without carrying RNG state.
        let mut h = (t as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64 + 1);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (base * (1.0 + self.price_noise * (2.0 * unit - 1.0))).max(0.0)
    }

    fn availability_hat(&self, t: usize, i: usize, k: usize) -> f64 {
        let t = t.min(self.forecast.horizon() - 1);
        self.forecast.state(t).data_center(i).available(k)
    }

    fn arrivals_hat(&self, t: usize, j: usize) -> f64 {
        if t >= self.forecast.horizon() {
            return 0.0;
        }
        self.forecast.arrivals(t)[j]
    }

    /// Builds and solves the horizon LP, maps its first slot onto the
    /// two-tier dynamics, and reports the LP's shape and solve counters
    /// (`None` when the solve failed and the greedy fallback was used).
    /// Panics when a `strict-invariants` build of the simplex reports a
    /// broken invariant.
    fn plan(
        &mut self,
        state: &SystemState,
        queues: &QueueState,
    ) -> (Decision, Option<(usize, usize, SolveStats)>) {
        let now = state.slot() as usize;
        let n = self.config.num_data_centers();
        let j_count = self.config.num_job_classes();
        let k_count = self.config.num_server_classes();
        let hh = self.horizon;

        // Variable layout: x, then b, then B.
        let x_var = |tau: usize, i: usize, j: usize| (tau * n + i) * j_count + j;
        let b_base = hh * n * j_count;
        let b_var = |tau: usize, i: usize, k: usize| b_base + (tau * n + i) * k_count + k;
        let q_base = b_base + hh * n * k_count;
        let q_var = |tau: usize, j: usize| q_base + tau * j_count + j;
        let total_vars = q_base + hh * j_count;

        let mut lp = LpProblem::minimize(total_vars);

        for tau in 0..hh {
            let t_abs = now + tau;
            for i in 0..n {
                // Energy objective and availability bounds for b.
                let price = if tau == 0 {
                    state.data_center(i).price()
                } else {
                    self.price_hat(t_abs, i)
                };
                for (k, class) in self.config.server_classes().iter().enumerate() {
                    lp.set_objective(b_var(tau, i, k), price * class.active_power());
                    let avail = if tau == 0 {
                        state.data_center(i).available(k)
                    } else {
                        self.availability_hat(t_abs, i, k)
                    };
                    lp.set_upper_bound(b_var(tau, i, k), avail);
                }
                // Per-pair service bounds (0 for ineligible pairs).
                for (j, job) in self.config.job_classes().iter().enumerate() {
                    let ub = if job.is_eligible(grefar_types::DataCenterId::new(i)) {
                        job.max_process()
                    } else {
                        0.0
                    };
                    lp.set_upper_bound(x_var(tau, i, j), ub);
                }
                // Capacity: Σ_j d_j x ≤ Σ_k s_k b.
                let mut coeffs = Vec::with_capacity(j_count + k_count);
                for (j, job) in self.config.job_classes().iter().enumerate() {
                    coeffs.push((x_var(tau, i, j), job.work()));
                }
                for (k, class) in self.config.server_classes().iter().enumerate() {
                    coeffs.push((b_var(tau, i, k), -class.speed()));
                }
                lp.add_constraint(&coeffs, Relation::Le, 0.0);
            }
            // Backlog dynamics, holding cost and terminal backlog value.
            for (j, job) in self.config.job_classes().iter().enumerate() {
                let mut weight = self.holding_weight * job.work();
                if tau == hh - 1 {
                    // Unserved work at the horizon end will be served later
                    // at (approximately) today's average price per work.
                    let avg_cost_per_work: f64 = (0..n)
                        .map(|i| {
                            let dc = state.data_center(i);
                            dc.price()
                                * self
                                    .config
                                    .server_classes()
                                    .iter()
                                    .map(|c| c.power_per_work())
                                    .fold(f64::INFINITY, f64::min)
                        })
                        .sum::<f64>()
                        / n as f64;
                    weight += avg_cost_per_work * job.work();
                }
                lp.set_objective(q_var(tau, j), weight);
                let mut coeffs = vec![(q_var(tau, j), 1.0)];
                for i in 0..n {
                    coeffs.push((x_var(tau, i, j), 1.0));
                }
                let rhs = if tau == 0 {
                    // Current total backlog of the type (central + local).
                    let mut backlog = queues.central(j);
                    for i in 0..n {
                        backlog += queues.local(i, j);
                    }
                    backlog
                } else {
                    coeffs.push((q_var(tau - 1, j), -1.0));
                    self.arrivals_hat(now + tau - 1, j)
                };
                lp.add_constraint(&coeffs, Relation::Eq, rhs);
            }
        }

        let num_rows = lp.num_constraints();
        let solution = match lp.solve() {
            Ok(solution) => solution,
            // Only a `strict-invariants` build of the simplex returns this:
            // the kernel failed its own check, which a fallback would hide.
            Err(SolveError::InvariantViolation(why)) => panic!("MPC horizon LP: {why}"),
            Err(_) => {
                // Defensive fallback (the LP is always feasible: serve nothing).
                let decision = SlotInstance::new(&self.config, state, queues, 0.0)
                    .solve_greedy()
                    .decision;
                return (decision, None);
            }
        };
        let x = solution.x();

        // Apply the first slot of the plan: route the planned service and
        // serve it against the *current* local queues (the standard
        // receding-horizon mapping onto the two-tier dynamics (12)–(13)).
        let mut decision = self.config.decision_zeros();
        let mut work_by_dc = vec![0.0; n];
        for (j, job) in self.config.job_classes().iter().enumerate() {
            let mut central_left = queues.central(j).floor();
            for i in 0..n {
                let planned = x[x_var(0, i, j)];
                if planned <= 0.0 {
                    continue;
                }
                // Serve what is already local (up to the plan)...
                let serve = planned.min(queues.local(i, j));
                decision.processed[(i, j)] = serve;
                work_by_dc[i] += serve * job.work();
                // ...and route replacement jobs toward the planned site.
                let route = planned
                    .ceil()
                    .min(job.max_route())
                    .min(central_left)
                    .floor();
                if route > 0.0 {
                    decision.routed[(i, j)] = route;
                    central_left -= route;
                }
            }
        }
        // Minimum-power dispatch for the served work.
        let busy = SlotInstance::new(&self.config, state, queues, 0.0).min_power_busy(&work_by_dc);
        decision.busy = busy;
        (decision, Some((total_vars, num_rows, solution.stats())))
    }
}

impl Scheduler for MpcScheduler {
    fn name(&self) -> String {
        format!(
            "MPC(H={}, w={}{})",
            self.horizon,
            self.holding_weight,
            if self.price_noise > 0.0 {
                format!(", noise={}", self.price_noise)
            } else {
                String::new()
            }
        )
    }

    fn decide(&mut self, state: &SystemState, queues: &QueueState) -> Decision {
        self.plan(state, queues).0
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
        let profiling = obs.profiling();
        if profiling {
            obs.span_enter("lp.solve");
        }
        let timer = Timer::start();
        let (decision, lp_info) = self.plan(state, queues);
        let elapsed = timer.elapsed();
        if let Some((vars, rows, stats)) = lp_info {
            if profiling {
                obs.span_leaf(
                    "simplex.pivot",
                    (stats.pivots_phase1 + stats.pivots_phase2) as u64,
                );
            }
            if obs.enabled() {
                obs.record_event(
                    Event::new("lp.solve")
                        .field("t", state.slot())
                        .field("vars", vars)
                        .field("rows", rows)
                        .field("pivots_phase1", stats.pivots_phase1)
                        .field("pivots_phase2", stats.pivots_phase2)
                        .field("degenerate_pivots", stats.degenerate_pivots)
                        .field("bound_flips", stats.bound_flips)
                        .field("wall_us", stats.wall_us),
                );
                obs.record_value(
                    "lp.pivots",
                    (stats.pivots_phase1 + stats.pivots_phase2) as f64,
                );
                obs.record_duration("lp.solve.wall_us", elapsed);
            }
        } else if obs.enabled() {
            obs.add_counter("lp.fallbacks", 1);
        }
        if profiling {
            obs.span_exit("lp.solve");
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::SimulationInputs;
    use crate::simulation::Simulation;
    use grefar_cluster::{AvailabilityProcess, FullAvailability};
    use grefar_trace::{ConstantWorkload, PriceProcess, ReplayPrice};
    use grefar_types::{DataCenterId, JobClass, ServerClass};

    fn config() -> SystemConfig {
        SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("solo", vec![20.0])
            .account("x", 1.0)
            .job_class(
                JobClass::new(1.0, vec![DataCenterId::new(0)], 0)
                    .with_max_arrivals(4.0)
                    .with_max_route(20.0)
                    .with_max_process(20.0),
            )
            .build()
            .unwrap()
    }

    fn sawtooth_inputs(cfg: &SystemConfig, hours: usize) -> SimulationInputs {
        // Price alternates 0.9, 0.9, 0.1 — an oracle planner should push
        // work into every third slot.
        let rates: Vec<f64> = (0..hours)
            .map(|t| if t % 3 == 2 { 0.1 } else { 0.9 })
            .collect();
        let mut prices: Vec<Box<dyn PriceProcess + Send>> = vec![Box::new(ReplayPrice::new(rates))];
        let mut avail: Vec<Box<dyn AvailabilityProcess + Send>> = vec![Box::new(FullAvailability)];
        let mut workload = ConstantWorkload::new(vec![4.0]);
        SimulationInputs::generate(cfg, hours, 1, &mut prices, &mut avail, &mut workload)
    }

    #[test]
    fn oracle_mpc_concentrates_work_in_cheap_slots() {
        let cfg = config();
        let inputs = sawtooth_inputs(&cfg, 90);
        let mpc = MpcScheduler::new(&cfg, inputs.clone(), 6, 0.05);
        let report = Simulation::new(cfg.clone(), inputs, Box::new(mpc)).run();
        let work = report.work_per_dc[0].instant();
        let cheap: f64 = work.iter().skip(2).step_by(3).sum();
        let total: f64 = work.iter().sum();
        assert!(
            cheap / total > 0.7,
            "oracle MPC should serve mostly in cheap slots: {:.2}",
            cheap / total
        );
        // Long-run throughput keeps up with arrivals.
        assert!(total >= 4.0 * 80.0, "served only {total}");
    }

    #[test]
    fn high_holding_weight_serves_immediately() {
        let cfg = config();
        let inputs = sawtooth_inputs(&cfg, 60);
        let mpc = MpcScheduler::new(&cfg, inputs.clone(), 6, 100.0);
        let report = Simulation::new(cfg.clone(), inputs, Box::new(mpc)).run();
        // With an enormous holding cost MPC behaves like Always: delay ≈ 1.
        assert!(
            report.average_dc_delay(0) < 1.6,
            "delay {}",
            report.average_dc_delay(0)
        );
    }

    #[test]
    fn noisy_forecast_does_not_beat_oracle_materially() {
        // The slot-0 price is always observed (never forecast), so mild
        // noise is partially self-correcting; per-seed the noisy run can
        // even tie the oracle. The robust claim: it cannot be *better* by a
        // material margin, and it still clears the workload.
        let cfg = config();
        let inputs = sawtooth_inputs(&cfg, 120);
        let oracle = MpcScheduler::new(&cfg, inputs.clone(), 6, 0.05);
        let noisy = MpcScheduler::new(&cfg, inputs.clone(), 6, 0.05).with_price_noise(1.5);
        let r_oracle = Simulation::new(cfg.clone(), inputs.clone(), Box::new(oracle)).run();
        let r_noisy = Simulation::new(cfg.clone(), inputs, Box::new(noisy)).run();
        assert!(
            r_noisy.average_energy_cost() >= r_oracle.average_energy_cost() * 0.95,
            "noise should not materially beat the oracle: oracle {} vs noisy {}",
            r_oracle.average_energy_cost(),
            r_noisy.average_energy_cost()
        );
        assert!(r_noisy.completions.completed_total >= 4 * 100);
    }

    #[test]
    fn name_reflects_configuration() {
        let cfg = config();
        let inputs = sawtooth_inputs(&cfg, 6);
        let mpc = MpcScheduler::new(&cfg, inputs, 8, 0.2).with_price_noise(0.3);
        assert_eq!(mpc.name(), "MPC(H=8, w=0.2, noise=0.3)");
    }
}
