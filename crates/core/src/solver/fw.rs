//! The Frank–Wolfe path of the slot solver (`β > 0`).
//!
//! With fairness, the processing part of (14) becomes, over the variables
//! `x = (h, b)`,
//!
//! ```text
//! min  V·Σ_i tariff_i( Σ_k b_{i,k} p_k )  −  V·β·f(shares(h))  −  Σ_{i,j} q_{i,j} h_{i,j}
//! s.t. Σ_j d_j h_{i,j} ≤ Σ_k s_k b_{i,k},  0 ≤ h ≤ h_cap,  0 ≤ b ≤ n     ∀i
//! ```
//!
//! a smooth convex program (exactly smooth for the paper's flat tariffs;
//! for tiered tariffs the energy term is piecewise linear and we use its
//! subgradient — the cross-check tests keep this honest). The feasible set
//! decomposes per data center and its linear minimization oracle is the
//! exact greedy of [`super::greedy`], so Frank–Wolfe applies directly.

use super::greedy::linear_dispatch_dc;
use super::SlotInstance;
use crate::fairness::FairnessFunction;
use grefar_convex::{frank_wolfe_observed, FwOptions, Lmo, Objective, Segment};
use grefar_obs::Observer;
use grefar_types::Grid;
use std::cell::RefCell;

/// Flat layout: `x[0 .. N*J]` is `h` row-major, `x[N*J ..]` is `b` row-major.
#[derive(Clone, Copy)]
struct Layout {
    n: usize,
    j: usize,
    k: usize,
}

impl Layout {
    fn of(inst: &SlotInstance<'_>) -> Self {
        Self {
            n: inst.config.num_data_centers(),
            j: inst.config.num_job_classes(),
            k: inst.config.num_server_classes(),
        }
    }

    #[inline]
    fn h(&self, i: usize, j: usize) -> usize {
        i * self.j + j
    }

    #[inline]
    fn b(&self, i: usize, k: usize) -> usize {
        self.n * self.j + i * self.k + k
    }

    #[inline]
    fn len(&self) -> usize {
        self.n * self.j + self.n * self.k
    }
}

struct ProcessingObjective<'a> {
    inst: &'a SlotInstance<'a>,
    beta: f64,
    fairness: &'a dyn FairnessFunction,
    layout: Layout,
    gammas: Vec<f64>,
    account_of: Vec<usize>,
    /// `j` of every `h` coordinate, so a support index needs no division.
    job_of: Vec<usize>,
    /// Per-account share scratch, reused by every evaluation of the slot.
    shares: RefCell<Vec<f64>>,
}

impl<'a> ProcessingObjective<'a> {
    fn new(inst: &'a SlotInstance<'a>, beta: f64, fairness: &'a dyn FairnessFunction) -> Self {
        let layout = Layout::of(inst);
        let gammas = inst.config.gammas();
        let mut job_of = vec![0; layout.n * layout.j];
        for (at, j) in job_of.iter_mut().enumerate() {
            *j = at % layout.j;
        }
        Self {
            inst,
            beta,
            fairness,
            layout,
            shares: RefCell::new(vec![0.0; gammas.len()]),
            gammas,
            account_of: inst
                .config
                .job_classes()
                .iter()
                .map(|j| j.account().index())
                // verify: allow(hot-path-alloc): exact-size collect from a slice iterator, once per slot instance
                .collect(),
            job_of,
        }
    }

    /// Whether the fairness term is present: `β > 0` and `R(t) > 0`.
    fn fair(&self) -> bool {
        self.beta > 0.0 && self.inst.total_capacity > 0.0
    }

    /// Writes the per-account shares `r_m / R` of `x` into `shares`.
    fn fill_shares(&self, x: &[f64], shares: &mut [f64]) {
        shares.fill(0.0);
        for i in 0..self.layout.n {
            for j in 0..self.layout.j {
                shares[self.account_of[j]] +=
                    x[self.layout.h(i, j)] * self.inst.work[j] / self.inst.total_capacity;
            }
        }
    }

    /// The energy term `V·Σ_i tariff_i(Σ_k b_{i,k} p_k)`, reading `b_{i,k}`
    /// through `b`.
    fn energy(&self, b: impl Fn(usize) -> f64) -> f64 {
        let l = &self.layout;
        let mut value = 0.0;
        for i in 0..l.n {
            let power: f64 = (0..l.k).map(|k| b(l.b(i, k)) * self.inst.powers[k]).sum();
            value += self.inst.v * self.inst.state.data_center(i).tariff().cost(power.max(0.0));
        }
        value
    }
}

impl Objective for ProcessingObjective<'_> {
    fn value(&self, x: &[f64]) -> f64 {
        let l = &self.layout;
        let mut value = self.energy(|at| x[at]);
        if self.fair() {
            let mut shares = self.shares.borrow_mut();
            self.fill_shares(x, &mut shares);
            value -= self.inst.v * self.beta * self.fairness.score(&shares, &self.gammas);
        }
        // Queue-service term.
        for i in 0..l.n {
            for j in 0..l.j {
                value -= self.inst.queues.local(i, j) * x[l.h(i, j)];
            }
        }
        value
    }

    /// [`value`](Objective::value) at `x + θ·d` without building the
    /// point. The share sums and the queue-service term visit only the
    /// support's `h` coordinates, in the same order with the same
    /// operations: any other `h` is ±0 at every `θ`, so its share term
    /// adds ±0 to a sum that starts at +0 and its queue term subtracts
    /// ±0. The result is the full sum up to the sign of a zero, which
    /// the line search's comparisons cannot see.
    fn segment_value(&self, segment: &Segment<'_>, theta: f64, _point: &mut [f64]) -> f64 {
        let l = &self.layout;
        let mut value = self.energy(|at| segment.at(at, theta));
        let h_end = l.n * l.j;
        let jobs = &segment.support[..segment.support.partition_point(|&at| at < h_end)];
        if self.fair() {
            let mut shares = self.shares.borrow_mut();
            shares.fill(0.0);
            for &at in jobs {
                let j = self.job_of[at];
                shares[self.account_of[j]] +=
                    segment.at(at, theta) * self.inst.work[j] / self.inst.total_capacity;
            }
            value -= self.inst.v * self.beta * self.fairness.score(&shares, &self.gammas);
        }
        let queues = self.inst.queues.local_grid().as_slice();
        for &at in jobs {
            value -= queues[at] * segment.at(at, theta);
        }
        value
    }

    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        let l = &self.layout;
        grad.fill(0.0);
        // Energy: ∂/∂b_{i,k} = V · rate_i(power_i) · p_k.
        for i in 0..l.n {
            let power: f64 = (0..l.k).map(|k| x[l.b(i, k)] * self.inst.powers[k]).sum();
            let rate = self
                .inst
                .state
                .data_center(i)
                .tariff()
                .marginal_rate(power.max(0.0));
            for k in 0..l.k {
                grad[l.b(i, k)] = self.inst.v * rate * self.inst.powers[k];
            }
        }
        // Fairness: ∂/∂h_{i,j} = −V·β·f'_{m(j)}(shares) · d_j / R.
        let mut fair_grad = vec![0.0; self.gammas.len()];
        if self.fair() {
            let mut shares = self.shares.borrow_mut();
            self.fill_shares(x, &mut shares);
            self.fairness
                .gradient(&shares, &self.gammas, &mut fair_grad);
        }
        for i in 0..l.n {
            for j in 0..l.j {
                let mut g = -self.inst.queues.local(i, j);
                if self.fair() {
                    g -=
                        self.inst.v * self.beta * fair_grad[self.account_of[j]] * self.inst.work[j]
                            / self.inst.total_capacity;
                }
                grad[l.h(i, j)] = g;
            }
        }
    }
}

/// The per-DC-decomposed LMO: for each data center, run the exact greedy
/// linear dispatch on that block of the gradient.
struct SlotLmo<'a> {
    inst: &'a SlotInstance<'a>,
    layout: Layout,
}

impl Lmo for SlotLmo<'_> {
    fn minimize(&self, gradient: &[f64], out: &mut [f64]) {
        let l = &self.layout;
        out.fill(0.0);
        let mut h_row = vec![0.0; l.j];
        let mut b_row = vec![0.0; l.k];
        for i in 0..l.n {
            let c_h = &gradient[l.h(i, 0)..l.h(i, 0) + l.j];
            let c_b = &gradient[l.b(i, 0)..l.b(i, 0) + l.k];
            linear_dispatch_dc(
                c_h,
                c_b,
                &self.inst.work,
                &self.inst.speeds,
                self.inst.state.data_center(i).available_slice(),
                self.inst.h_cap.row(i),
                &mut h_row,
                &mut b_row,
            );
            out[l.h(i, 0)..l.h(i, 0) + l.j].copy_from_slice(&h_row);
            out[l.b(i, 0)..l.b(i, 0) + l.k].copy_from_slice(&b_row);
        }
    }
}

/// Solves the processing part of (14) with fairness via Frank–Wolfe,
/// returning `(h, b, iterations, gap)`. The final busy matrix is
/// re-dispatched at minimum power for the chosen work (never worse, always
/// feasible); the iteration count and final duality gap are passed through
/// for telemetry. A profiling observer additionally sees one `fw.iter`
/// span per Frank–Wolfe iteration.
pub(crate) fn solve_processing_fw_observed(
    inst: &SlotInstance<'_>,
    beta: f64,
    fairness: &dyn FairnessFunction,
    options: FwOptions,
    obs: &mut dyn Observer,
) -> (Grid, Grid, usize, f64) {
    let objective = ProcessingObjective::new(inst, beta, fairness);
    let lmo = SlotLmo {
        inst,
        layout: objective.layout,
    };
    let x0 = vec![0.0; objective.layout.len()];
    let result = frank_wolfe_observed(&objective, &lmo, x0, options, obs);

    let l = &objective.layout;
    let mut processed = Grid::zeros(l.n, l.j);
    let mut work_by_dc = vec![0.0; l.n];
    for i in 0..l.n {
        for j in 0..l.j {
            let h = result.x[l.h(i, j)].max(0.0);
            processed[(i, j)] = h;
            work_by_dc[i] += h * inst.work[j];
        }
    }
    let busy = inst.min_power_busy(&work_by_dc);
    (processed, busy, result.iterations, result.gap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::{AlphaFair, QuadraticDeviation};
    use crate::queue::QueueState;
    use grefar_types::{
        DataCenterId, DataCenterState, JobClass, ServerClass, SystemConfig, SystemState, Tariff,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_account_config() -> SystemConfig {
        SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![20.0])
            .account("x", 0.5)
            .account("y", 0.5)
            .job_class(JobClass::new(1.0, vec![DataCenterId::new(0)], 0).with_max_process(20.0))
            .job_class(JobClass::new(1.0, vec![DataCenterId::new(0)], 1).with_max_process(20.0))
            .build()
            .unwrap()
    }

    fn queues_with(cfg: &SystemConfig, q0: f64, q1: f64) -> QueueState {
        let mut q = QueueState::new(cfg);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = q0;
        z.routed[(0, 1)] = q1;
        q.apply(&z, &[0.0, 0.0]);
        q
    }

    #[test]
    fn beta_zero_fw_matches_greedy() {
        let cfg = two_account_config();
        let st = SystemState::new(0, vec![DataCenterState::new(vec![20.0], Tariff::flat(0.4))]);
        let q = queues_with(&cfg, 8.0, 2.0);
        let inst = SlotInstance::new(&cfg, &st, &q, 3.0);
        let greedy = inst.solve_greedy();
        let fw = inst.solve_with_fairness(0.0, &QuadraticDeviation, FwOptions::default());
        assert!(
            (greedy.objective - fw.objective).abs() < 1e-6,
            "greedy {} vs FW {}",
            greedy.objective,
            fw.objective
        );
    }

    #[test]
    fn fairness_balances_accounts() {
        let cfg = two_account_config();
        // Expensive power so β=0 would serve nothing.
        let st = SystemState::new(
            0,
            vec![DataCenterState::new(vec![20.0], Tariff::flat(10.0))],
        );
        let q = queues_with(&cfg, 6.0, 6.0);
        let inst = SlotInstance::new(&cfg, &st, &q, 1.0);
        let none = inst.solve_greedy().decision;
        assert_eq!(none.processed.sum(), 0.0);
        // Strong fairness pressure serves work to move shares toward γ.
        let fair = inst
            .solve_with_fairness(1000.0, &QuadraticDeviation, FwOptions::default())
            .decision;
        assert!(fair.processed.sum() > 1.0, "{:?}", fair.processed);
        // Both accounts served roughly equally (γ = 0.5/0.5, symmetric queues).
        let s0 = fair.processed[(0, 0)];
        let s1 = fair.processed[(0, 1)];
        assert!((s0 - s1).abs() < 0.5, "{s0} vs {s1}");
    }

    #[test]
    fn fw_solution_is_feasible() {
        let cfg = two_account_config();
        let st = SystemState::new(0, vec![DataCenterState::new(vec![5.0], Tariff::flat(0.2))]);
        let q = queues_with(&cfg, 10.0, 10.0);
        let inst = SlotInstance::new(&cfg, &st, &q, 2.0);
        let d = inst
            .solve_with_fairness(50.0, &QuadraticDeviation, FwOptions::default())
            .decision;
        // Capacity: Σ d h ≤ Σ s b ≤ availability.
        let served = d.work_processed(0, &[1.0, 1.0]);
        let supply = d.supply(0, &[1.0]);
        assert!(served <= supply + 1e-6, "served {served} supply {supply}");
        assert!(d.busy[(0, 0)] <= 5.0 + 1e-9);
        // h never exceeds queue-capped bound.
        assert!(d.processed[(0, 0)] <= 10.0 + 1e-6);
    }

    #[test]
    fn zero_capacity_is_handled() {
        let cfg = two_account_config();
        let st = SystemState::new(0, vec![DataCenterState::new(vec![0.0], Tariff::flat(0.2))]);
        let q = queues_with(&cfg, 4.0, 4.0);
        let inst = SlotInstance::new(&cfg, &st, &q, 2.0);
        let d = inst
            .solve_with_fairness(100.0, &QuadraticDeviation, FwOptions::default())
            .decision;
        assert_eq!(d.processed.sum(), 0.0);
        assert_eq!(d.busy.sum(), 0.0);
    }

    /// A random system (1–3 data centers, 1–5 job classes, 1–3 server
    /// classes and accounts), its state under flat or tiered tariffs
    /// (sometimes with no server available), and queues that are exactly
    /// zero about half the time.
    fn random_slot(rng: &mut StdRng, tiered: bool) -> (SystemConfig, SystemState, QueueState) {
        let n = rng.gen_range(1usize..=3);
        let j_count = rng.gen_range(1usize..=5);
        let k_count = rng.gen_range(1usize..=3);
        let m_count = rng.gen_range(1usize..=3);
        let mut builder = SystemConfig::builder();
        for _ in 0..k_count {
            builder = builder.server_class(ServerClass::new(
                rng.gen_range(0.5f64..2.0),
                rng.gen_range(0.5f64..2.0),
            ));
        }
        for i in 0..n {
            builder = builder.data_center(format!("dc{i}"), vec![30.0; k_count]);
        }
        for m in 0..m_count {
            builder = builder.account(format!("org{m}"), 1.0 / m_count as f64);
        }
        for _ in 0..j_count {
            let eligible = (0..n).map(DataCenterId::new).collect();
            builder = builder.job_class(JobClass::new(
                rng.gen_range(0.5f64..3.0),
                eligible,
                rng.gen_range(0..m_count),
            ));
        }
        let config = builder.build().unwrap();
        let idle = rng.gen_bool(0.1);
        let state = SystemState::new(
            0,
            (0..n)
                .map(|_| {
                    let available = (0..k_count)
                        .map(|_| {
                            if idle {
                                0.0
                            } else {
                                rng.gen_range(0.0f64..30.0).floor()
                            }
                        })
                        .collect();
                    let base = rng.gen_range(0.05f64..0.8);
                    let tariff = if tiered {
                        Tariff::convex(vec![
                            (rng.gen_range(2.0f64..20.0), base),
                            (f64::INFINITY, base + 0.4),
                        ])
                        .unwrap()
                    } else {
                        Tariff::flat(base)
                    };
                    DataCenterState::new(available, tariff)
                })
                .collect(),
        );
        let mut queues = QueueState::new(&config);
        let mut z = config.decision_zeros();
        for i in 0..n {
            for j in 0..j_count {
                if rng.gen_bool(0.5) {
                    z.routed[(i, j)] = rng.gen_range(0.0f64..20.0).floor();
                }
            }
        }
        queues.apply(&z, &vec![0.0; j_count]);
        (config, state, queues)
    }

    /// A coordinate rich in exact zeros of either sign.
    fn sparse(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..5) {
            0 | 1 => 0.0,
            2 => -0.0,
            _ => rng.gen_range(0.0f64..12.0),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// On segments whose ends are mostly exact zeros, the support-only
        /// segment value equals the default path's (build the point, then
        /// `value`) bit for bit, up to the sign of a zero, under flat and
        /// tiered tariffs and both fairness functions.
        #[test]
        fn segment_value_matches_the_point_path(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let tiered = rng.gen_bool(0.5);
            let (config, state, queues) = random_slot(&mut rng, tiered);
            let inst = SlotInstance::new(&config, &state, &queues, rng.gen_range(0.5f64..15.0));
            let alpha = AlphaFair::new(rng.gen_range(0.0f64..3.0), 1e-3);
            let fairness: [&dyn FairnessFunction; 2] = [&QuadraticDeviation, &alpha];
            let len = Layout::of(&inst).len();
            let x: Vec<f64> = (0..len).map(|_| sparse(&mut rng)).collect();
            let v: Vec<f64> = x
                .iter()
                .map(|&xi| if rng.gen_bool(0.3) { xi } else { sparse(&mut rng) })
                .collect();
            let direction: Vec<f64> = x.iter().zip(&v).map(|(xi, vi)| vi - xi).collect();
            let support: Vec<usize> = (0..len)
                .filter(|&i| x[i] != 0.0 || direction[i] != 0.0)
                .collect();
            let segment = Segment { x: &x, direction: &direction, support: &support };
            let mut point = vec![0.0; len];
            for f in fairness {
                let objective = ProcessingObjective::new(&inst, rng.gen_range(0.5f64..200.0), f);
                for theta in [0.0, 1.0, 0.381_966_011_250_105_1, rng.gen_range(0.0f64..1.0)] {
                    let fast = objective.segment_value(&segment, theta, &mut point);
                    for (i, p) in point.iter_mut().enumerate() {
                        *p = segment.at(i, theta);
                    }
                    let full = objective.value(&point);
                    prop_assert!(
                        fast.to_bits() == full.to_bits() || (fast == 0.0 && full == 0.0),
                        "{} at θ = {theta}: segment {fast:e} vs point {full:e} (tiered {tiered})",
                        f.name()
                    );
                }
            }
        }
    }
}
