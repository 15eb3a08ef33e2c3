//! Exact greedy solvers for one data center's processing decision.
//!
//! Both functions solve instances of the same transportation-on-a-line LP:
//! match *demand segments* (jobs, sorted by value per unit work, descending)
//! against *supply segments* (server classes, sorted by cost per unit work,
//! ascending), serving while the marginal value strictly exceeds the
//! marginal cost. An exchange argument shows this is optimal; the LP-based
//! property tests in `tests/greedy_vs_lp.rs` verify it exhaustively.

use grefar_types::Tariff;

/// The supply and demand lists [`linear_dispatch_dc`] sorts, kept across
/// calls so that a Frank–Wolfe solve allocates them once per slot.
pub(crate) struct DispatchLists {
    /// `(k, cost/work, work)` of the paid server classes.
    supply: Vec<(usize, f64, f64)>,
    /// `(j, value/work, work)` of the jobs worth serving.
    demand: Vec<(usize, f64, f64)>,
}

impl DispatchLists {
    /// Lists with room for `jobs` job classes and `servers` server classes.
    pub(crate) fn with_capacity(jobs: usize, servers: usize) -> Self {
        Self {
            supply: Vec::with_capacity(servers),
            demand: Vec::with_capacity(jobs),
        }
    }
}

/// Solves the *linear* per-DC dispatch
///
/// ```text
/// min  Σ_j c_h[j]·h_j + Σ_k c_b[k]·b_k
/// s.t. Σ_j d_j h_j ≤ Σ_k s_k b_k,   0 ≤ h_j ≤ h_cap[j],   0 ≤ b_k ≤ avail[k]
/// ```
///
/// writing the minimizer into `h_out` (jobs) and `b_out` (busy servers).
/// This is the Frank–Wolfe linear-minimization oracle for the fairness
/// (`β > 0`) path of GreFar.
///
/// Server classes with *negative* cost are switched fully on (their
/// capacity is then free to any job). Jobs with non-negative `c_h` are
/// never served.
#[allow(clippy::too_many_arguments)]
pub(crate) fn linear_dispatch_dc(
    c_h: &[f64],
    c_b: &[f64],
    work: &[f64],
    speeds: &[f64],
    avail: &[f64],
    h_cap: &[f64],
    h_out: &mut [f64],
    b_out: &mut [f64],
    lists: &mut DispatchLists,
) {
    let j_count = c_h.len();
    let k_count = c_b.len();
    debug_assert_eq!(work.len(), j_count);
    debug_assert_eq!(h_cap.len(), j_count);
    debug_assert_eq!(speeds.len(), k_count);
    debug_assert_eq!(avail.len(), k_count);
    debug_assert_eq!(h_out.len(), j_count);
    debug_assert_eq!(b_out.len(), k_count);

    h_out.fill(0.0);
    b_out.fill(0.0);

    // Negative-cost classes: switching them on is free profit; their
    // capacity then costs nothing at the margin.
    let mut free_capacity = 0.0;
    let DispatchLists { supply, demand } = lists;
    supply.clear();
    for k in 0..k_count {
        if avail[k] <= 0.0 {
            continue;
        }
        if c_b[k] < 0.0 {
            b_out[k] = avail[k];
            free_capacity += avail[k] * speeds[k];
        } else {
            // verify: allow(hot-path-alloc): the lists are sized once per slot and keep their capacity across calls
            supply.push((k, c_b[k] / speeds[k], avail[k] * speeds[k]));
        }
    }
    supply.sort_by(|a, b| a.1.total_cmp(&b.1));

    // Demand: only jobs whose service improves the objective.
    demand.clear();
    demand.extend(
        (0..j_count)
            .filter(|&j| c_h[j] < 0.0 && h_cap[j] > 0.0 && work[j] > 0.0)
            .map(|j| (j, -c_h[j] / work[j], h_cap[j] * work[j])),
    );
    demand.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut supply_idx = 0usize;
    let mut supply_left = supply.first().map_or(0.0, |s| s.2);

    for &(j, value, mut want) in demand.iter() {
        // Free capacity first: any positive value beats cost 0.
        let from_free = want.min(free_capacity);
        if from_free > 0.0 {
            h_out[j] += from_free / work[j];
            free_capacity -= from_free;
            want -= from_free;
        }
        // Paid capacity while marginal value strictly exceeds marginal cost.
        while want > 0.0 && supply_idx < supply.len() {
            let (k, cost, _) = supply[supply_idx];
            if value <= cost {
                break;
            }
            let served = want.min(supply_left);
            h_out[j] += served / work[j];
            b_out[k] += served / speeds[k];
            want -= served;
            supply_left -= served;
            if supply_left <= 0.0 {
                supply_idx += 1;
                supply_left = supply.get(supply_idx).map_or(0.0, |s| s.2);
            }
        }
    }
}

/// Remaining width and rate of the tariff tier active at energy level `e`.
fn tier_at(tariff: &Tariff, e: f64) -> (f64, f64) {
    let mut level = e;
    for seg in tariff.segments() {
        if level < seg.width {
            return (seg.rate, seg.width - level);
        }
        level -= seg.width;
    }
    match tariff.segments().last() {
        Some(last) => (last.rate, f64::INFINITY),
        // Tariff validates segment lists non-empty; an empty curve bills 0.
        None => (0.0, f64::INFINITY),
    }
}

/// Solves the β = 0 GreFar per-DC processing problem *exactly*, including
/// convex (tiered) tariffs:
///
/// ```text
/// min  V · tariff.cost( Σ_k b_k p_k ) − Σ_j q_j h_j
/// s.t. Σ_j d_j h_j ≤ Σ_k s_k b_k,   0 ≤ h_j ≤ h_cap[j],   0 ≤ b_k ≤ avail[k]
/// ```
///
/// Demand is served in decreasing `q_j / d_j`; supply is consumed in
/// increasing `p_k / s_k`; the effective marginal cost of one unit of work is
/// `V · rate(E) · p_k / s_k` where `rate(E)` is the tariff's marginal price
/// at the current energy level `E`. Because the cost of work is convex and
/// demand values are sorted, the marginal rule is exact. With a flat tariff
/// this reduces to the classic "serve while `q_j/d_j > V φ p_k/s_k`" rule of
/// §IV-B.
#[allow(clippy::too_many_arguments)]
pub(crate) fn price_aware_dispatch_dc(
    queue_values: &[f64],
    work: &[f64],
    speeds: &[f64],
    powers: &[f64],
    avail: &[f64],
    h_cap: &[f64],
    tariff: &Tariff,
    v: f64,
    h_out: &mut [f64],
    b_out: &mut [f64],
) {
    let j_count = queue_values.len();
    let k_count = speeds.len();
    debug_assert_eq!(work.len(), j_count);
    debug_assert_eq!(h_cap.len(), j_count);
    debug_assert_eq!(powers.len(), k_count);
    debug_assert_eq!(avail.len(), k_count);

    h_out.fill(0.0);
    b_out.fill(0.0);

    // Supply: classes by power-per-work ascending (the order is invariant to
    // the shared tariff rate multiplier).
    let mut supply: Vec<(usize, f64, f64)> = Vec::with_capacity(k_count); // (k, p/s, work)
    supply.extend(
        (0..k_count)
            .filter(|&k| avail[k] > 0.0)
            .map(|k| (k, powers[k] / speeds[k], avail[k] * speeds[k])),
    );
    supply.sort_by(|a, b| a.1.total_cmp(&b.1));

    // Demand: positive queues by value-per-work descending.
    let mut demand: Vec<(usize, f64, f64)> = Vec::with_capacity(j_count);
    demand.extend(
        (0..j_count)
            .filter(|&j| queue_values[j] > 0.0 && h_cap[j] > 0.0 && work[j] > 0.0)
            .map(|j| (j, queue_values[j] / work[j], h_cap[j] * work[j])),
    );
    demand.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut energy = 0.0f64;
    let mut supply_idx = 0usize;
    let mut supply_left = supply.first().map_or(0.0, |s| s.2);

    'demand: for (j, value, mut want) in demand {
        while want > 0.0 {
            if supply_idx >= supply.len() {
                break 'demand; // out of capacity
            }
            let (k, ppw, _) = supply[supply_idx];
            let (rate, tier_left) = tier_at(tariff, energy);
            let marginal_cost = v * rate * ppw;
            if value <= marginal_cost {
                // Costs only rise from here and later demand is worth less.
                break 'demand;
            }
            // Work that fits in this (class, tariff-tier) cell.
            let tier_work = if ppw > 0.0 {
                tier_left / ppw
            } else {
                f64::INFINITY
            };
            let served = want.min(supply_left).min(tier_work);
            debug_assert!(served > 0.0);
            h_out[j] += served / work[j];
            b_out[k] += served / speeds[k];
            energy += served * ppw;
            want -= served;
            supply_left -= served;
            if supply_left <= 1e-15 {
                supply_idx += 1;
                supply_left = supply.get(supply_idx).map_or(0.0, |s| s.2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_serves_only_profitable_jobs() {
        // One class: speed 1, cost 2/server → cost 2 per unit work.
        // Job 0 (d=1): value 3 > 2: serve. Job 1: value 1 < 2: skip.
        let mut h = vec![0.0; 2];
        let mut b = vec![0.0; 1];
        linear_dispatch_dc(
            &[-3.0, -1.0],
            &[2.0],
            &[1.0, 1.0],
            &[1.0],
            &[10.0],
            &[4.0, 4.0],
            &mut h,
            &mut b,
            &mut DispatchLists::with_capacity(0, 0),
        );
        assert_eq!(h, vec![4.0, 0.0]);
        assert_eq!(b, vec![4.0]);
    }

    #[test]
    fn linear_respects_capacity_priority() {
        // Capacity for 3 units of work; job 0 (value 5/work) beats job 1 (2).
        let mut h = vec![0.0; 2];
        let mut b = vec![0.0; 1];
        linear_dispatch_dc(
            &[-5.0, -2.0],
            &[0.5],
            &[1.0, 1.0],
            &[1.0],
            &[3.0],
            &[2.0, 9.0],
            &mut h,
            &mut b,
            &mut DispatchLists::with_capacity(0, 0),
        );
        assert_eq!(h, vec![2.0, 1.0]);
        assert_eq!(b, vec![3.0]);
    }

    #[test]
    fn linear_negative_server_cost_turns_fully_on() {
        let mut h = vec![0.0; 1];
        let mut b = vec![0.0; 2];
        // Class 0 has negative cost → fully on; its capacity is free for
        // job 0 even though class 1 would be too expensive.
        linear_dispatch_dc(
            &[-0.1],
            &[-1.0, 100.0],
            &[1.0],
            &[2.0, 1.0],
            &[3.0, 3.0],
            &[4.0],
            &mut h,
            &mut b,
            &mut DispatchLists::with_capacity(0, 0),
        );
        assert_eq!(b[0], 3.0);
        assert_eq!(b[1], 0.0);
        assert_eq!(h, vec![4.0]); // 4 ≤ free capacity 6
    }

    #[test]
    fn linear_zero_value_jobs_not_served() {
        let mut h = vec![0.0; 1];
        let mut b = vec![0.0; 1];
        linear_dispatch_dc(
            &[0.0],
            &[1.0],
            &[1.0],
            &[1.0],
            &[10.0],
            &[5.0],
            &mut h,
            &mut b,
            &mut DispatchLists::with_capacity(0, 0),
        );
        assert_eq!(h, vec![0.0]);
        assert_eq!(b, vec![0.0]);
    }

    #[test]
    fn price_aware_flat_matches_threshold_rule() {
        // V=2, φ=0.5, p/s=1 → threshold q/d > 1. Jobs: q=3,d=1 (serve),
        // q=0.5,d=1 (skip).
        let tariff = Tariff::flat(0.5);
        let mut h = vec![0.0; 2];
        let mut b = vec![0.0; 1];
        price_aware_dispatch_dc(
            &[3.0, 0.5],
            &[1.0, 1.0],
            &[1.0],
            &[1.0],
            &[10.0],
            &[3.0, 3.0],
            &tariff,
            2.0,
            &mut h,
            &mut b,
        );
        assert_eq!(h, vec![3.0, 0.0]);
        assert_eq!(b, vec![3.0]);
    }

    #[test]
    fn price_aware_v_zero_serves_everything_possible() {
        // V=0: cost-free; serve all backlog up to capacity (the "Always"
        // behavior).
        let tariff = Tariff::flat(10.0);
        let mut h = vec![0.0; 2];
        let mut b = vec![0.0; 1];
        price_aware_dispatch_dc(
            &[1.0, 4.0],
            &[1.0, 2.0],
            &[1.0],
            &[1.0],
            &[5.0],
            &[2.0, 2.0],
            &tariff,
            0.0,
            &mut h,
            &mut b,
        );
        // Demand: job 1 first (4/2 = 2 per work, 4 work) then job 0 (1 work);
        // capacity 5 covers both.
        assert_eq!(h, vec![1.0, 2.0]);
        assert_eq!(b, vec![5.0]);
    }

    #[test]
    fn price_aware_prefers_efficient_servers() {
        // Class 1 is more efficient (0.6/0.75 = 0.8 < 1.0).
        let tariff = Tariff::flat(0.1);
        let mut h = vec![0.0; 1];
        let mut b = vec![0.0; 2];
        price_aware_dispatch_dc(
            &[10.0],
            &[1.0],
            &[1.0, 0.75],
            &[1.0, 0.6],
            &[10.0, 4.0],
            &[3.0],
            &tariff,
            1.0,
            &mut h,
            &mut b,
        );
        // 3 units of work all fit on class 1 (capacity 3 = 4 × 0.75).
        assert_eq!(h, vec![3.0]);
        assert!(b[0].abs() < 1e-12);
        assert!((b[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn price_aware_convex_tariff_stops_at_tier_boundary() {
        // Tier 1: 2 units of energy at 0.1; tier 2: rate 10.
        // Value/work = 1; p/s = 1; V = 1. Serving is profitable in tier 1
        // (cost 0.1) but not tier 2 (cost 10) → exactly 2 units served.
        let tariff = Tariff::convex(vec![(2.0, 0.1), (f64::INFINITY, 10.0)]).unwrap();
        let mut h = vec![0.0; 1];
        let mut b = vec![0.0; 1];
        price_aware_dispatch_dc(
            &[1.0],
            &[1.0],
            &[1.0],
            &[1.0],
            &[100.0],
            &[50.0],
            &tariff,
            1.0,
            &mut h,
            &mut b,
        );
        assert!((h[0] - 2.0).abs() < 1e-9, "{h:?}");
        assert!((b[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn price_aware_caps_at_queue() {
        let tariff = Tariff::flat(0.0);
        let mut h = vec![0.0; 1];
        let mut b = vec![0.0; 1];
        price_aware_dispatch_dc(
            &[7.0],
            &[1.0],
            &[1.0],
            &[1.0],
            &[100.0],
            &[7.0],
            &tariff,
            5.0,
            &mut h,
            &mut b,
        );
        assert_eq!(h, vec![7.0]);
    }

    #[test]
    fn tier_tracking() {
        let tariff = Tariff::convex(vec![(5.0, 0.2), (5.0, 0.4), (f64::INFINITY, 0.9)]).unwrap();
        assert_eq!(tier_at(&tariff, 0.0), (0.2, 5.0));
        assert_eq!(tier_at(&tariff, 4.0), (0.2, 1.0));
        assert_eq!(tier_at(&tariff, 7.5), (0.4, 2.5));
        let (rate, left) = tier_at(&tariff, 50.0);
        assert_eq!(rate, 0.9);
        assert!(left.is_infinite());
    }
}
