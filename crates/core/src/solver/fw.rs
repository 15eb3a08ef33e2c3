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

use super::greedy::{linear_dispatch_dc, DispatchLists};
use super::{SlotInstance, SolverChoice};
use crate::fairness::FairnessFunction;
use grefar_convex::{frank_wolfe_observed, FwOptions, LineModel, Lmo, Objective, Segment};
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

/// Bound on every input magnitude (and on `1/R`) under which a segment
/// gets a [`LineModel`]: it keeps every intermediate of the evaluation
/// far from overflow and bounds how far an underflow can be amplified
/// (DESIGN.md §4, key choice 3).
const LEAF: f64 = 1.267_650_600_228_229_4e30; // 2^100

/// Per-rounding-step allowance for underflow in a [`LineModel`]'s `err`.
const UNDERFLOW: f64 = 1e-98;

/// Whether `v` is a number within [`LEAF`] in magnitude.
fn leaf(v: f64) -> bool {
    v.abs() <= LEAF
}

/// One support coordinate of the current segment, `x + θ·d`, with the
/// coefficient a probe multiplies it by.
#[derive(Clone, Copy, Default)]
struct Term {
    x: f64,
    d: f64,
    coef: f64,
}

impl Term {
    #[inline]
    fn at(&self, theta: f64) -> f64 {
        self.x + theta * self.d
    }
}

/// The current segment's support, packed by `begin_segment` so that a
/// probe streams over contiguous terms and adds each sum in the order the
/// full evaluation does. Sized once per slot.
struct Packed {
    /// Support `b` entries by data center, with their power `p_k`.
    servers: Vec<Term>,
    /// `(i, end)` for each data center with a support `b` entry,
    /// ascending; its terms end at `servers[end]`.
    dcs: Vec<(usize, usize)>,
    dc_count: usize,
    /// Support `h` entries grouped by account, each group in support
    /// order, with their work `d_j`.
    shares: Vec<Term>,
    /// Account `m`'s share terms end at `shares[account_ends[m]]`.
    account_ends: Vec<usize>,
    /// Support `h` entries in support order, with their queue `q_{i,j}`.
    queue: Vec<Term>,
    job_count: usize,
    /// The packed support's length.
    len: usize,
}

/// Scratch reused by every evaluation of one slot.
struct Scratch {
    /// Per-account shares.
    shares: Vec<f64>,
    /// Per-account fairness gradient.
    fair_grad: Vec<f64>,
    packed: Packed,
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
    /// Each data center's flat tariff rate when segments get a
    /// [`LineModel`]: flat tariffs, quadratic-deviation fairness (3) and
    /// every input within [`LEAF`]. Empty otherwise.
    flat_rates: Vec<f64>,
    scratch: RefCell<Scratch>,
}

impl<'a> ProcessingObjective<'a> {
    fn new(inst: &'a SlotInstance<'a>, beta: f64, fairness: &'a dyn FairnessFunction) -> Self {
        let layout = Layout::of(inst);
        let gammas = inst.config.gammas();
        let mut job_of = vec![0; layout.n * layout.j];
        for (at, j) in job_of.iter_mut().enumerate() {
            *j = at % layout.j;
        }
        let jobs = layout.n * layout.j;
        let packed = Packed {
            servers: vec![Term::default(); layout.n * layout.k],
            dcs: vec![(0, 0); layout.n],
            dc_count: 0,
            shares: vec![Term::default(); jobs],
            account_ends: vec![0; gammas.len()],
            queue: vec![Term::default(); jobs],
            job_count: 0,
            len: 0,
        };
        let mut objective = Self {
            inst,
            beta,
            fairness,
            layout,
            scratch: RefCell::new(Scratch {
                shares: vec![0.0; gammas.len()],
                fair_grad: vec![0.0; gammas.len()],
                packed,
            }),
            gammas,
            account_of: inst
                .config
                .job_classes()
                .iter()
                .map(|j| j.account().index())
                // verify: allow(hot-path-alloc): exact-size collect from a slice iterator, once per slot instance
                .collect(),
            job_of,
            flat_rates: vec![0.0; layout.n],
        };
        if !objective.fill_flat_rates() {
            objective.flat_rates.clear();
        }
        objective
    }

    /// Writes each data center's flat rate into `flat_rates`; `false`
    /// when the slot's segments get no [`LineModel`].
    fn fill_flat_rates(&mut self) -> bool {
        let inst = self.inst;
        if !self.fairness.is_quadratic_deviation()
            || self.layout.len() > 1 << 16
            || !(leaf(inst.v) && leaf(self.beta))
            || !(inst.total_capacity <= 0.0 || leaf(1.0 / inst.total_capacity))
            || !inst
                .work
                .iter()
                .chain(&inst.powers)
                .chain(&self.gammas)
                .all(|&v| leaf(v))
            || !inst.queues.local_grid().as_slice().iter().all(|&q| leaf(q))
        {
            return false;
        }
        for (i, rate) in self.flat_rates.iter_mut().enumerate() {
            match inst.state.data_center(i).tariff().flat_rate() {
                Some(r) if leaf(r) => *rate = r,
                _ => return false,
            }
        }
        true
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

    /// The line model of the packed segment (DESIGN.md §4, key choice 3).
    ///
    /// With flat tariffs and fairness (3) the segment value is a quadratic
    /// in `θ`: the energy and queue terms are linear, and account `m`
    /// contributes `V·β·(A_m + θ·B_m − γ_m)²`, where `A_m` and `B_m` are
    /// its share sums over `x` and `d`. `magnitude` is the evaluation with
    /// every input replaced by its absolute value, every subtraction by an
    /// addition and each coordinate by `|x| + |d|`. A probe's rounding is
    /// at most `γ_n·magnitude`, with `n` roundings on its deepest path;
    /// two probes, the slope and curvature sums and the model difference
    /// together stay under `5.02·γ_n·magnitude`, and the factor 6 also
    /// covers the rounding of `magnitude` and of `err` itself.
    fn line_model(&self, packed: &Packed) -> Option<LineModel> {
        if self.flat_rates.is_empty() {
            return None;
        }
        let inst = self.inst;
        let (mut slope, mut curvature, mut magnitude) = (0.0, 0.0, 0.0);
        let mut start = 0;
        for &(i, end) in &packed.dcs[..packed.dc_count] {
            let (mut along, mut size) = (0.0, 0.0);
            for s in &packed.servers[start..end] {
                // The energy's `max(0, ·)` is the identity only while
                // every `b` stays non-negative along the segment.
                let span = s.x.abs() + s.d.abs();
                if !(s.x >= 0.0 && s.x + s.d >= 0.0 && leaf(span)) {
                    return None;
                }
                along += s.d * s.coef;
                size += span * s.coef;
            }
            let rate = inst.v * self.flat_rates[i];
            slope += rate * along;
            magnitude += rate * size;
            start = end;
        }
        let jobs = &packed.queue[..packed.job_count];
        if self.fair() {
            let r = inst.total_capacity;
            let weight = inst.v * self.beta;
            let mut start = 0;
            for (&end, &gamma) in packed.account_ends.iter().zip(&self.gammas) {
                let (mut a, mut b, mut size) = (0.0, 0.0, 0.0);
                for t in &packed.shares[start..end] {
                    a += t.x * t.coef / r;
                    b += t.d * t.coef / r;
                    size += (t.x.abs() + t.d.abs()) * t.coef / r;
                }
                slope += weight * (2.0 * (a - gamma) * b);
                curvature += weight * (b * b);
                let deviation = size + gamma.abs();
                magnitude += weight * (deviation * deviation);
                start = end;
            }
        }
        for t in jobs {
            let span = t.x.abs() + t.d.abs();
            if !leaf(span) {
                return None;
            }
            slope -= t.coef * t.d;
            magnitude += t.coef.abs() * span;
        }
        let l = &self.layout;
        let steps = 20 + l.k + l.n + self.gammas.len() + 3 * packed.len;
        let unit = steps as f64 * (f64::EPSILON / 2.0);
        let err = 6.0 * (unit / (1.0 - unit)) * magnitude + steps as f64 * UNDERFLOW;
        (slope.is_finite() && curvature.is_finite() && err.is_finite()).then_some(LineModel {
            slope,
            curvature,
            err,
        })
    }
}

impl Objective for ProcessingObjective<'_> {
    fn value(&self, x: &[f64]) -> f64 {
        let l = &self.layout;
        let mut value = 0.0;
        for i in 0..l.n {
            let power: f64 = (0..l.k).map(|k| x[l.b(i, k)] * self.inst.powers[k]).sum();
            value += self.inst.v * self.inst.state.data_center(i).tariff().cost(power.max(0.0));
        }
        if self.fair() {
            let mut scratch = self.scratch.borrow_mut();
            self.fill_shares(x, &mut scratch.shares);
            value -= self.inst.v * self.beta * self.fairness.score(&scratch.shares, &self.gammas);
        }
        // Queue-service term.
        for i in 0..l.n {
            for j in 0..l.j {
                value -= self.inst.queues.local(i, j) * x[l.h(i, j)];
            }
        }
        value
    }

    /// Packs the segment's support for [`segment_value`]: the `b` entries
    /// by data center, and the `h` entries twice, grouped by account for
    /// the share sums and in support order for the queue-service term.
    /// Returns the segment's [`LineModel`] when the slot has one.
    ///
    /// [`segment_value`]: Objective::segment_value
    fn begin_segment(&self, segment: &Segment<'_>) -> Option<LineModel> {
        let l = &self.layout;
        let h_end = l.n * l.j;
        let (jobs, servers) = segment
            .support
            .split_at(segment.support.partition_point(|&at| at < h_end));
        let mut scratch = self.scratch.borrow_mut();
        let packed = &mut scratch.packed;
        let queues = self.inst.queues.local_grid().as_slice();
        let term = |at: usize, coef: f64| Term {
            x: segment.x[at],
            d: segment.direction[at],
            coef,
        };
        for (t, &at) in packed.queue.iter_mut().zip(jobs) {
            *t = term(at, queues[at]);
        }
        packed.job_count = jobs.len();
        let mut filled = 0;
        for (m, end) in packed.account_ends.iter_mut().enumerate() {
            for &at in jobs {
                let j = self.job_of[at];
                if self.account_of[j] == m {
                    packed.shares[filled] = term(at, self.inst.work[j]);
                    filled += 1;
                }
            }
            *end = filled;
        }
        packed.dc_count = 0;
        for (filled, (t, &at)) in packed.servers.iter_mut().zip(servers).enumerate() {
            let (i, k) = ((at - h_end) / l.k, (at - h_end) % l.k);
            *t = term(at, self.inst.powers[k]);
            let count = packed.dc_count;
            if count > 0 && packed.dcs[count - 1].0 == i {
                packed.dcs[count - 1].1 = filled + 1;
            } else {
                packed.dcs[count] = (i, filled + 1);
                packed.dc_count = count + 1;
            }
        }
        packed.len = segment.support.len();
        self.line_model(packed)
    }

    /// [`value`](Objective::value) at `x + θ·d`, read from the support
    /// [`begin_segment`](Objective::begin_segment) packed. Every sum runs
    /// over the support's terms only, in the same order with the same
    /// operations: any other entry is ±0 at every `θ`, so its energy,
    /// share or queue term adds ±0 to a sum, and a data center with no
    /// `b` on the support adds `V·cost(0) = +0`. The result is the full
    /// sum up to the sign of a zero, which the line search's comparisons
    /// cannot see.
    fn segment_value(&self, segment: &Segment<'_>, theta: f64, _point: &mut [f64]) -> f64 {
        let mut scratch = self.scratch.borrow_mut();
        let Scratch { shares, packed, .. } = &mut *scratch;
        debug_assert_eq!(packed.len, segment.support.len(), "segment not begun");
        let mut value = 0.0;
        let mut start = 0;
        for &(i, end) in &packed.dcs[..packed.dc_count] {
            let power: f64 = packed.servers[start..end]
                .iter()
                .map(|s| s.at(theta) * s.coef)
                .sum();
            value += self.inst.v * self.inst.state.data_center(i).tariff().cost(power.max(0.0));
            start = end;
        }
        if self.fair() {
            let mut start = 0;
            for (share, &end) in shares.iter_mut().zip(&packed.account_ends) {
                *share = 0.0;
                for t in &packed.shares[start..end] {
                    *share += t.at(theta) * t.coef / self.inst.total_capacity;
                }
                start = end;
            }
            value -= self.inst.v * self.beta * self.fairness.score(shares, &self.gammas);
        }
        for t in &packed.queue[..packed.job_count] {
            value -= t.coef * t.at(theta);
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
        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            shares, fair_grad, ..
        } = &mut *scratch;
        if self.fair() {
            self.fill_shares(x, shares);
            self.fairness.gradient(shares, &self.gammas, fair_grad);
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
/// linear dispatch on that block of the gradient, straight into the
/// vertex.
struct SlotLmo<'a> {
    inst: &'a SlotInstance<'a>,
    layout: Layout,
    lists: RefCell<DispatchLists>,
}

impl Lmo for SlotLmo<'_> {
    fn minimize(&self, gradient: &[f64], out: &mut [f64]) {
        let l = &self.layout;
        let mut lists = self.lists.borrow_mut();
        let (h_out, b_out) = out.split_at_mut(l.n * l.j);
        for (i, (h_row, b_row)) in h_out
            .chunks_exact_mut(l.j)
            .zip(b_out.chunks_exact_mut(l.k))
            .enumerate()
        {
            linear_dispatch_dc(
                &gradient[l.h(i, 0)..l.h(i, 0) + l.j],
                &gradient[l.b(i, 0)..l.b(i, 0) + l.k],
                &self.inst.work,
                &self.inst.speeds,
                self.inst.state.data_center(i).available_slice(),
                self.inst.h_cap.row(i),
                h_row,
                b_row,
                &mut lists,
            );
        }
    }
}

/// Solves the processing part of (14) with fairness via Frank–Wolfe,
/// returning `(h, b)` and the solver's effort. The final busy matrix is
/// re-dispatched at minimum power for the chosen work (never worse, always
/// feasible); the iteration count, final duality gap and line-search
/// evaluations are passed through for telemetry and tests. A profiling
/// observer additionally sees one `fw.iter` span per Frank–Wolfe
/// iteration.
pub(crate) fn solve_processing_fw_observed(
    inst: &SlotInstance<'_>,
    beta: f64,
    fairness: &dyn FairnessFunction,
    options: FwOptions,
    obs: &mut dyn Observer,
) -> (Grid, Grid, SolverChoice) {
    let objective = ProcessingObjective::new(inst, beta, fairness);
    let lmo = SlotLmo {
        inst,
        layout: objective.layout,
        lists: RefCell::new(DispatchLists::with_capacity(
            objective.layout.j,
            objective.layout.k,
        )),
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
    let solver = SolverChoice::FrankWolfe {
        iterations: result.iterations,
        gap: result.gap,
        evaluations: result.evaluations,
    };
    (processed, busy, solver)
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

    /// A segment `x → v` over `len` coordinates rich in exact zeros (all
    /// of them, now and then), with its direction and support as
    /// Frank–Wolfe computes them.
    fn random_segment(rng: &mut StdRng, len: usize) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
        let empty = rng.gen_bool(0.05);
        let x: Vec<f64> = (0..len)
            .map(|_| if empty { 0.0 } else { sparse(rng) })
            .collect();
        let v: Vec<f64> = x
            .iter()
            .map(|&xi| {
                if empty || rng.gen_bool(0.3) {
                    xi
                } else {
                    sparse(rng)
                }
            })
            .collect();
        let direction: Vec<f64> = x.iter().zip(&v).map(|(xi, vi)| vi - xi).collect();
        let support = (0..len)
            .filter(|&i| x[i] != 0.0 || direction[i] != 0.0)
            .collect();
        (x, direction, support)
    }

    /// The objective with its line models withheld: every probe
    /// comparison of the line search evaluates, as before they existed.
    struct Unmodelled<'a>(&'a ProcessingObjective<'a>);

    impl Objective for Unmodelled<'_> {
        fn value(&self, x: &[f64]) -> f64 {
            self.0.value(x)
        }

        fn gradient(&self, x: &[f64], grad: &mut [f64]) {
            self.0.gradient(x, grad)
        }

        fn begin_segment(&self, segment: &Segment<'_>) -> Option<LineModel> {
            self.0.begin_segment(segment);
            None
        }

        fn segment_value(&self, segment: &Segment<'_>, theta: f64, point: &mut [f64]) -> f64 {
            self.0.segment_value(segment, theta, point)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// On segments whose ends are mostly exact zeros, the packed
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
            let (x, direction, support) = random_segment(&mut rng, len);
            let segment = Segment { x: &x, direction: &direction, support: &support };
            let mut point = vec![0.0; len];
            for f in fairness {
                let objective = ProcessingObjective::new(&inst, rng.gen_range(0.5f64..200.0), f);
                objective.begin_segment(&segment);
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

        /// The line model exists exactly for flat tariffs with fairness
        /// (3), its measured error stays under `err` on probe pairs placed
        /// at near-ties around the modelled minimiser (and at random), and
        /// every order it certifies is the order of the evaluated values.
        /// Idle slots (`R = 0`) and all-zero segments are among the cases.
        #[test]
        fn line_model_certifies_only_exact_orders(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let tiered = rng.gen_bool(0.3);
            let (config, state, queues) = random_slot(&mut rng, tiered);
            let inst = SlotInstance::new(&config, &state, &queues, rng.gen_range(0.5f64..15.0));
            let alpha = AlphaFair::new(rng.gen_range(0.0f64..3.0), 1e-3);
            let fairness: [&dyn FairnessFunction; 2] = [&QuadraticDeviation, &alpha];
            let len = Layout::of(&inst).len();
            let (x, direction, support) = random_segment(&mut rng, len);
            let segment = Segment { x: &x, direction: &direction, support: &support };
            let mut point = vec![0.0; len];
            for f in fairness {
                let beta = [0.0, 1.0, 100.0, rng.gen_range(0.5f64..200.0)][rng.gen_range(0usize..4)];
                let objective = ProcessingObjective::new(&inst, beta, f);
                let model = objective.begin_segment(&segment);
                prop_assert_eq!(
                    model.is_some(),
                    !tiered && f.is_quadratic_deviation(),
                    "{} (tiered {}): {:?}", f.name(), tiered, model
                );
                let Some(model) = model else { continue };
                let centre = if model.curvature > 0.0 {
                    (-model.slope / (2.0 * model.curvature)).clamp(0.0, 1.0)
                } else {
                    rng.gen_range(0.0f64..1.0)
                };
                let mut pairs = vec![(0.0, 1.0), (rng.gen_range(0.0f64..1.0), rng.gen_range(0.0f64..1.0))];
                for k in 1..=14 {
                    let half = 10f64.powi(-k);
                    let skew = 1.0 + rng.gen_range(-1e-3f64..1e-3);
                    pairs.push(((centre - half).max(0.0), (centre + half * skew).min(1.0)));
                }
                for (a, b) in pairs {
                    let fa = objective.segment_value(&segment, a, &mut point);
                    let fb = objective.segment_value(&segment, b, &mut point);
                    let error = (model.difference(a, b) - (fa - fb)).abs();
                    prop_assert!(
                        error <= model.err,
                        "f({a}) − f({b}) = {:e}, model {:e}: error {error:e} > err {:e}",
                        fa - fb, model.difference(a, b), model.err
                    );
                    if let Some(order) = model.certain_order(a, b) {
                        prop_assert_eq!(fa.partial_cmp(&fb), Some(order), "f({}) vs f({})", a, b);
                    }
                }
            }
        }

        /// Frank–Wolfe on a random slot returns the same iterates, gap and
        /// value, bit for bit, whether or not the line search may decide
        /// comparisons from the line model, and the model only ever saves
        /// evaluations. Without it a search evaluates the 41 probes its 40
        /// comparisons read, the midpoint and both ends.
        #[test]
        fn line_models_leave_frank_wolfe_bit_identical(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let tiered = rng.gen_bool(0.3);
            let (config, state, queues) = random_slot(&mut rng, tiered);
            let inst = SlotInstance::new(&config, &state, &queues, rng.gen_range(0.5f64..15.0));
            let alpha = AlphaFair::new(rng.gen_range(0.0f64..3.0), 1e-3);
            let fairness: [&dyn FairnessFunction; 2] = [&QuadraticDeviation, &alpha];
            let options = FwOptions {
                max_iters: 60,
                gap_tolerance: 1e-6,
                line_search: grefar_convex::LineSearch::GoldenSection { iters: 40 },
            };
            for f in fairness {
                let objective = ProcessingObjective::new(&inst, rng.gen_range(0.5f64..200.0), f);
                let layout = objective.layout;
                let lmo = SlotLmo {
                    inst: &inst,
                    layout,
                    lists: RefCell::new(DispatchLists::with_capacity(layout.j, layout.k)),
                };
                let x0 = vec![0.0; layout.len()];
                let mut null = grefar_obs::NullObserver;
                let fast = frank_wolfe_observed(&objective, &lmo, x0.clone(), options, &mut null);
                let full = frank_wolfe_observed(&Unmodelled(&objective), &lmo, x0, options, &mut null);
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&fast.x), bits(&full.x), "{}", f.name());
                prop_assert_eq!(fast.iterations, full.iterations);
                prop_assert_eq!(fast.gap.to_bits(), full.gap.to_bits());
                prop_assert_eq!(fast.value.to_bits(), full.value.to_bits());
                let searches = full.iterations - usize::from(full.gap <= options.gap_tolerance);
                prop_assert_eq!(full.evaluations, 44 * searches);
                prop_assert!(fast.evaluations <= full.evaluations);
            }
        }
    }
}
