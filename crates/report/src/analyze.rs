//! Per-run analytics over a parsed telemetry stream: the Lyapunov
//! drift/penalty decomposition, queue trajectories against the Theorem 1(a)
//! bound, time-average cost convergence with the Theorem 1(b) gap, solver
//! mix, and wall-time quantiles.

use crate::stream::{BoundsEvent, Run, TelemetryStream};
use grefar_obs::Quantiles;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The queue/bound verdict for one run (requires a matched `theory.bounds`
/// event in the stream).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCheck {
    /// Theorem 1(a) bound `V·C3/δ`.
    pub queue_bound: f64,
    /// Admissible staleness certified for the run, when it executed behind
    /// an unreliable feed layer.
    pub stale_slots: Option<u64>,
    /// The degraded bound `queue_bound + stale_slots·q^max` (present iff
    /// `stale_slots` is).
    pub stale_queue_bound: Option<f64>,
    /// The bound occupancy is measured against: the degraded stale bound
    /// when certified, the plain Theorem 1(a) bound otherwise.
    pub effective_bound: f64,
    /// `100 · peak_queue / effective_bound`.
    pub occupancy_pct: f64,
    /// Theorem 1(b) gap bound `(B + D(T−1))/V`.
    pub cost_gap_bound: f64,
    /// The certified slackness `δ`.
    pub delta: f64,
    /// The frame `T` of the gap bound.
    pub frame: u64,
}

/// Queue impact of one injected fault window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultImpact {
    /// Fault kind label (`outage`, `collapse`, `spike`, `gap`, `burst`,
    /// `squeeze`).
    pub kind: String,
    /// First slot of the fault window.
    pub start: u64,
    /// One past the window's last slot.
    pub end: u64,
    /// Targeted data center, for DC-scoped faults.
    pub dc: Option<u64>,
    /// `queue_max` in the last slot before the window opened — the level
    /// the disturbance is measured against (0 when the fault opens at
    /// slot 0).
    pub baseline_queue: f64,
    /// Largest `queue_max` over the disturbance: from the window's first
    /// slot until the queue recovered (or the run ended).
    pub peak_queue: f64,
    /// `max(0, peak_queue − baseline_queue)` — backlog attributable to the
    /// fault.
    pub overshoot: f64,
    /// Slots past the window's close until `queue_max` first returned to
    /// the baseline (0 = recovered by the slot the window closed);
    /// `None` when it never recovered within the run.
    pub recovery_slots: Option<u64>,
}

/// Feed-layer health summary of one run: staleness distribution, retry and
/// breaker activity, and estimation error against the realized prices.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedHealth {
    /// Slots scheduled on a not-fully-fresh estimate.
    pub stale_slots: usize,
    /// `100 · stale_slots / slots`.
    pub stale_pct: f64,
    /// Largest estimate age (slots) seen anywhere in the run.
    pub max_age: u64,
    /// Mean of the per-slot maximum estimate age over stale slots.
    pub mean_age: f64,
    /// Mean price MAE (estimate vs realized truth) over stale slots.
    pub mean_price_mae: f64,
    /// Total retry attempts (beyond each poll's first try).
    pub retries: u64,
    /// Polls that failed outright.
    pub failures: usize,
    /// Failure counts per reason, sorted by reason label.
    pub failures_by_reason: Vec<(String, usize)>,
    /// Records rejected by validation.
    pub quarantined: usize,
    /// Circuit-breaker trips (transitions to `open`).
    pub breaker_opens: usize,
    /// Decisions repaired against the truth after a stale estimate made
    /// them infeasible (`degraded.mode` reason `stale_state_repaired`).
    pub stale_repairs: usize,
}

/// Resilience summary of one run: how often the scheduler degraded and how
/// the queues absorbed each injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct Resilience {
    /// Distinct slots with at least one `degraded.mode` event.
    pub degraded_slots: usize,
    /// Total `degraded.mode` events.
    pub degraded_events: usize,
    /// Degradation counts per reason, sorted by reason label.
    pub by_reason: Vec<(String, usize)>,
    /// Per-fault queue impact, in injection order.
    pub faults: Vec<FaultImpact>,
}

/// Everything the analyzer derives from one run.
#[derive(Debug, Clone)]
pub struct RunAnalysis {
    /// Sweep label or scheduler name.
    pub label: String,
    /// Scheduler name from `run.start`.
    pub scheduler: String,
    /// Observed slots.
    pub slots: usize,
    /// GreFar `V`, when the run carries `grefar.decide` events.
    pub v: Option<f64>,
    /// GreFar `β`.
    pub beta: Option<f64>,
    /// Time-average combined cost `e(t) − β·f(t)`.
    pub avg_cost: f64,
    /// Time-average cost over the first half of the run.
    pub first_half_cost: f64,
    /// Time-average cost over the second half of the run.
    pub second_half_cost: f64,
    /// Time-average Lyapunov drift term of objective (14).
    pub avg_drift: Option<f64>,
    /// Time-average penalty term `V·g(t)`.
    pub avg_penalty: Option<f64>,
    /// Largest single queue observed anywhere in the run.
    pub peak_queue: f64,
    /// Queue maximum in the final slot.
    pub final_queue: f64,
    /// Bound verdict, when the stream carries bounds for this run.
    pub bound: Option<BoundCheck>,
    /// Decisions taken by the exact greedy solver.
    pub greedy_decisions: usize,
    /// Decisions taken by Frank–Wolfe.
    pub fw_decisions: usize,
    /// Mean Frank–Wolfe iterations over FW decisions.
    pub fw_iterations_mean: f64,
    /// Largest final FW duality gap seen.
    pub fw_gap_max: f64,
    /// Jobs dropped by admission control.
    pub dropped: f64,
    /// `invariant.violation` events seen.
    pub invariant_violations: usize,
    /// Resilience summary, when the run carries `fault.inject` or
    /// `degraded.mode` events.
    pub resilience: Option<Resilience>,
    /// Feed-layer health, when the run carries `feed.*` or `state.stale`
    /// events.
    pub feed: Option<FeedHealth>,
    /// Wall-time quantiles per phase: `(phase, quantiles)`.
    pub wall: Vec<(&'static str, Quantiles)>,
    /// Sampled trajectory rows: `(t, avg_cost, avg_drift, avg_penalty,
    /// queue_max)` — running averages up to `t`.
    pub trajectory: Vec<(u64, f64, f64, f64, f64)>,
}

/// A full analysis of one telemetry stream.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-run results, in stream order.
    pub runs: Vec<RunAnalysis>,
    /// Total events in the stream.
    pub total_events: usize,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Derives the resilience summary, or `None` for a fault-free, never-
/// degraded run (the section is omitted entirely then).
fn resilience_of(run: &Run) -> Option<Resilience> {
    if run.faults.is_empty() && run.degraded.is_empty() {
        return None;
    }
    let mut by_reason: BTreeMap<&str, usize> = BTreeMap::new();
    let mut degraded_slots: BTreeSet<u64> = BTreeSet::new();
    for d in &run.degraded {
        *by_reason.entry(d.reason.as_str()).or_insert(0) += 1;
        degraded_slots.insert(d.t);
    }
    let faults = run
        .faults
        .iter()
        .map(|f| {
            let baseline_queue = run
                .slots
                .iter()
                .rev()
                .find(|s| s.t < f.start)
                .map_or(0.0, |s| s.queue_max);
            let recovered_at = run
                .slots
                .iter()
                .find(|s| s.t >= f.end && s.queue_max <= baseline_queue + 1e-9)
                .map(|s| s.t);
            let peak_queue = run
                .slots
                .iter()
                .filter(|s| s.t >= f.start && recovered_at.is_none_or(|r| s.t <= r))
                .map(|s| s.queue_max)
                .fold(baseline_queue, f64::max);
            let recovery_slots = recovered_at.map(|t| t - f.end);
            FaultImpact {
                kind: f.kind.clone(),
                start: f.start,
                end: f.end,
                dc: f.dc,
                baseline_queue,
                peak_queue,
                overshoot: (peak_queue - baseline_queue).max(0.0),
                recovery_slots,
            }
        })
        .collect();
    Some(Resilience {
        degraded_slots: degraded_slots.len(),
        degraded_events: run.degraded.len(),
        by_reason: by_reason
            .into_iter()
            .map(|(reason, n)| (reason.to_string(), n))
            .collect(),
        faults,
    })
}

/// Derives the feed-health summary, or `None` for a run without any feed
/// telemetry (the section is omitted entirely then).
fn feed_health_of(run: &Run) -> Option<FeedHealth> {
    if run.feed_fetches.is_empty()
        && run.feed_breakers.is_empty()
        && run.feed_quarantined.is_empty()
        && run.stale.is_empty()
    {
        return None;
    }
    let mut failures_by_reason: BTreeMap<&str, usize> = BTreeMap::new();
    let mut retries = 0u64;
    let mut failures = 0usize;
    for f in &run.feed_fetches {
        retries += f.attempts.saturating_sub(1);
        if f.outcome != "ok" {
            failures += 1;
            let reason = f.reason.as_deref().unwrap_or("unknown");
            *failures_by_reason.entry(reason).or_insert(0) += 1;
        }
    }
    let stale_slots = run.stale.len();
    Some(FeedHealth {
        stale_slots,
        stale_pct: if run.slots.is_empty() {
            0.0
        } else {
            100.0 * stale_slots as f64 / run.slots.len() as f64
        },
        max_age: run.stale.iter().map(|s| s.max_age).max().unwrap_or(0),
        mean_age: mean(run.stale.iter().map(|s| s.max_age as f64)),
        mean_price_mae: mean(run.stale.iter().map(|s| s.price_mae)),
        retries,
        failures,
        failures_by_reason: failures_by_reason
            .into_iter()
            .map(|(reason, n)| (reason.to_string(), n))
            .collect(),
        quarantined: run.feed_quarantined.len(),
        breaker_opens: run.feed_breakers.iter().filter(|b| b.to == "open").count(),
        stale_repairs: run
            .degraded
            .iter()
            .filter(|d| d.reason == "stale_state_repaired")
            .count(),
    })
}

fn analyze_run(run: &Run, bounds: Option<&BoundsEvent>) -> RunAnalysis {
    let slots = run.slots.len();
    let beta = run.decides.first().map(|d| d.beta);
    let v = run.decides.first().map(|d| d.v);
    let b = beta.unwrap_or(0.0);
    let costs: Vec<f64> = run
        .slots
        .iter()
        .map(|s| s.energy - b * s.fairness)
        .collect();
    let avg_cost = mean(costs.iter().copied());
    let half = slots / 2;
    let first_half_cost = mean(costs.iter().take(half.max(1)).copied());
    let second_half_cost = mean(costs.iter().skip(half).copied());

    let peak_queue = run.slots.iter().map(|s| s.queue_max).fold(0.0, f64::max);
    let final_queue = run.slots.last().map_or(0.0, |s| s.queue_max);
    let bound = bounds.map(|be| {
        // A run certified against admissible staleness is judged against
        // the degraded bound; a perfect-feed run against Theorem 1(a)'s.
        let effective_bound = be.stale_queue_bound.unwrap_or(be.queue_bound);
        BoundCheck {
            queue_bound: be.queue_bound,
            stale_slots: be.stale_slots,
            stale_queue_bound: be.stale_queue_bound,
            effective_bound,
            occupancy_pct: if effective_bound > 0.0 {
                100.0 * peak_queue / effective_bound
            } else {
                f64::INFINITY
            },
            cost_gap_bound: be.cost_gap_bound,
            delta: be.delta,
            frame: be.frame,
        }
    });

    let greedy_decisions = run.decides.iter().filter(|d| d.solver == "greedy").count();
    let fw_decisions = run.decides.len() - greedy_decisions;
    let fw_iterations_mean = mean(
        run.decides
            .iter()
            .filter(|d| d.solver != "greedy")
            .map(|d| d.fw_iterations as f64),
    );
    let fw_gap_max = run.decides.iter().map(|d| d.fw_gap).fold(0.0f64, f64::max);

    let slot_wall: Vec<f64> = run.slots.iter().map(|s| s.wall_us).collect();
    let decide_wall: Vec<f64> = run.decides.iter().map(|d| d.wall_us).collect();
    let mut wall = Vec::new();
    for (phase, samples) in [
        ("slot", &slot_wall),
        ("decide", &decide_wall),
        ("lp.solve", &run.lp_wall_us),
    ] {
        if !samples.is_empty() {
            wall.push((phase, Quantiles::from_samples(samples)));
        }
    }

    // Running-average trajectory, sampled at ~6 evenly spaced slots.
    let mut trajectory = Vec::new();
    if slots > 0 {
        let points: Vec<usize> = (1..=6).map(|p| p * (slots - 1) / 6).collect();
        let mut cost_sum = 0.0;
        let mut drift_sum = 0.0;
        let mut penalty_sum = 0.0;
        let mut next = 0usize;
        for (i, slot) in run.slots.iter().enumerate() {
            cost_sum += costs[i];
            if let Some(d) = run.decides.get(i) {
                drift_sum += d.drift;
                penalty_sum += d.penalty;
            }
            while next < points.len() && points[next] == i {
                let n = (i + 1) as f64;
                trajectory.push((
                    slot.t,
                    cost_sum / n,
                    drift_sum / n,
                    penalty_sum / n,
                    slot.queue_max,
                ));
                next += 1;
            }
        }
        trajectory.dedup_by_key(|row| row.0);
    }

    RunAnalysis {
        label: run.display_label().to_string(),
        scheduler: run.scheduler.clone(),
        slots,
        v,
        beta,
        avg_cost,
        first_half_cost,
        second_half_cost,
        avg_drift: (!run.decides.is_empty()).then(|| mean(run.decides.iter().map(|d| d.drift))),
        avg_penalty: (!run.decides.is_empty()).then(|| mean(run.decides.iter().map(|d| d.penalty))),
        peak_queue,
        final_queue,
        bound,
        greedy_decisions,
        fw_decisions,
        fw_iterations_mean,
        fw_gap_max,
        dropped: run.dropped.unwrap_or(0.0),
        invariant_violations: run.invariant_violations,
        resilience: resilience_of(run),
        feed: feed_health_of(run),
        wall,
        trajectory,
    }
}

impl Analysis {
    /// Analyzes every run of a segmented stream.
    pub fn from_stream(stream: &TelemetryStream) -> Self {
        let bounds = stream.bounds_per_run();
        let runs = stream
            .runs
            .iter()
            .zip(&bounds)
            .map(|(run, b)| analyze_run(run, *b))
            .collect();
        Analysis {
            runs,
            total_events: stream.total_events,
        }
    }

    /// True when any run with a matched bound exceeded Theorem 1(a), or any
    /// run recorded a runtime invariant violation.
    pub fn any_bound_exceeded(&self) -> bool {
        self.runs.iter().any(|r| {
            r.invariant_violations > 0 || r.bound.as_ref().is_some_and(|b| b.occupancy_pct >= 100.0)
        })
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry stream: {} run(s), {} events",
            self.runs.len(),
            self.total_events
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "\nrun \"{}\" ({}, {} slots)",
                r.label, r.scheduler, r.slots
            );
            if let (Some(v), Some(beta)) = (r.v, r.beta) {
                let _ = writeln!(out, "  operating point : V={v}, beta={beta}");
            }
            let drift_pct = 100.0 * (self.halves_drift(r));
            let _ = writeln!(
                out,
                "  avg cost        : {:.4} (first half {:.4}, second half {:.4}, drift {:+.1}%)",
                r.avg_cost, r.first_half_cost, r.second_half_cost, drift_pct
            );
            if let (Some(drift), Some(penalty)) = (r.avg_drift, r.avg_penalty) {
                let _ = writeln!(
                    out,
                    "  lyapunov (14)   : avg drift {drift:.4}, avg penalty {penalty:.4}"
                );
            }
            match &r.bound {
                Some(b) => {
                    let verdict = if b.occupancy_pct < 100.0 {
                        "ok"
                    } else {
                        "EXCEEDED"
                    };
                    match (b.stale_slots, b.stale_queue_bound) {
                        (Some(s), Some(sb)) => {
                            let _ = writeln!(
                                out,
                                "  queues          : peak {:.2}, final {:.2} | degraded 1(a) \
                                 bound {sb:.2} (= {:.2} + {s} stale slots, delta {:.3}) -> \
                                 occupancy {:.1}% [{verdict}]",
                                r.peak_queue,
                                r.final_queue,
                                b.queue_bound,
                                b.delta,
                                b.occupancy_pct
                            );
                        }
                        _ => {
                            let _ =
                                writeln!(
                                out,
                                "  queues          : peak {:.2}, final {:.2} | Theorem 1(a) bound \
                                 {:.2} (delta {:.3}) -> occupancy {:.1}% [{verdict}]",
                                r.peak_queue, r.final_queue, b.queue_bound, b.delta,
                                b.occupancy_pct
                            );
                        }
                    }
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  queues          : peak {:.2}, final {:.2} (no theory.bounds in stream)",
                        r.peak_queue, r.final_queue
                    );
                }
            }
            if let Some(res) = &r.resilience {
                let reasons = if res.by_reason.is_empty() {
                    "no degradations".to_string()
                } else {
                    res.by_reason
                        .iter()
                        .map(|(reason, n)| format!("{reason} {n}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                let _ = writeln!(
                    out,
                    "  resilience      : {} degraded slot(s), {} event(s) ({reasons})",
                    res.degraded_slots, res.degraded_events
                );
                for f in &res.faults {
                    let target = match f.dc {
                        Some(dc) => format!(" dc{dc}"),
                        None => String::new(),
                    };
                    let recovery = match f.recovery_slots {
                        Some(n) => format!("recovered {n} slot(s) after close"),
                        None => "NOT RECOVERED within the run".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "  fault {:<10}: slots [{}, {}){target} | baseline {:.2}, peak {:.2} \
                         (overshoot +{:.2}), {recovery}",
                        f.kind, f.start, f.end, f.baseline_queue, f.peak_queue, f.overshoot
                    );
                }
            }
            if let Some(fh) = &r.feed {
                let _ = writeln!(
                    out,
                    "  feed health     : {} stale slot(s) ({:.1}% of run), max age {}, \
                     mean age {:.1}, price MAE {:.4}",
                    fh.stale_slots, fh.stale_pct, fh.max_age, fh.mean_age, fh.mean_price_mae
                );
                let reasons = if fh.failures_by_reason.is_empty() {
                    String::new()
                } else {
                    format!(
                        " ({})",
                        fh.failures_by_reason
                            .iter()
                            .map(|(reason, n)| format!("{reason} {n}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                let _ = writeln!(
                    out,
                    "  feed traffic    : {} retries, {} failed poll(s){reasons}, \
                     {} quarantined, {} breaker trip(s), {} stale repair(s)",
                    fh.retries, fh.failures, fh.quarantined, fh.breaker_opens, fh.stale_repairs
                );
            }
            if !r.trajectory.is_empty() {
                let _ = writeln!(
                    out,
                    "  {:>10} {:>12} {:>12} {:>12} {:>12}",
                    "t", "avg_cost", "avg_drift", "avg_penalty", "queue_max"
                );
                for (t, cost, drift, penalty, qmax) in &r.trajectory {
                    let _ = writeln!(
                        out,
                        "  {t:>10} {cost:>12.4} {drift:>12.4} {penalty:>12.4} {qmax:>12.2}"
                    );
                }
            }
            if !r.wall.is_empty() {
                let mix = if r.greedy_decisions + r.fw_decisions > 0 {
                    format!(
                        "greedy {} / frank_wolfe {} (fw iters mean {:.1}, max gap {:.2e})",
                        r.greedy_decisions, r.fw_decisions, r.fw_iterations_mean, r.fw_gap_max
                    )
                } else {
                    "n/a".to_string()
                };
                let _ = writeln!(out, "  solver mix      : {mix}");
                for (phase, q) in &r.wall {
                    let _ = writeln!(
                        out,
                        "  wall {phase:<11}: p50 {:.0} us, p95 {:.0} us, p99 {:.0} us, max {:.0} us",
                        q.p50, q.p95, q.p99, q.max
                    );
                }
            }
            if r.dropped > 0.0 {
                let _ = writeln!(out, "  dropped jobs    : {:.0}", r.dropped);
            }
            if r.invariant_violations > 0 {
                let _ = writeln!(
                    out,
                    "  INVARIANT VIOLATIONS: {} (see invariant.violation events)",
                    r.invariant_violations
                );
            }
        }
        self.render_gap_table(&mut out);
        self.render_feed_degradation(&mut out);
        out
    }

    // Second-half vs first-half relative cost drift (convergence measure).
    fn halves_drift(&self, r: &RunAnalysis) -> f64 {
        if r.first_half_cost.abs() > 0.0 {
            (r.second_half_cost - r.first_half_cost) / r.first_half_cost.abs()
        } else {
            0.0
        }
    }

    /// Feed-degradation table: each run that executed behind an unreliable
    /// feed layer compared against the first perfect-feed run of the same
    /// scheduler in the stream — the observable price of staleness in cost
    /// and backlog.
    fn render_feed_degradation(&self, out: &mut String) {
        let mut rows = Vec::new();
        for r in self.runs.iter().filter(|r| r.feed.is_some()) {
            let Some(clean) = self
                .runs
                .iter()
                .find(|o| o.feed.is_none() && o.scheduler == r.scheduler)
            else {
                continue;
            };
            rows.push((r, clean));
        }
        if rows.is_empty() {
            return;
        }
        let _ = writeln!(
            out,
            "\nfeed degradation (each lossy-feed run vs the perfect-feed run \
             of the same scheduler):"
        );
        let _ = writeln!(
            out,
            "{:>16} {:>12} {:>12} {:>10} {:>12} {:>12}",
            "run", "avg_cost", "clean_cost", "cost_pct", "peak_queue", "clean_peak"
        );
        for (r, clean) in rows {
            let cost_pct = if clean.avg_cost.abs() > 0.0 {
                100.0 * (r.avg_cost - clean.avg_cost) / clean.avg_cost.abs()
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:>16} {:>12.4} {:>12.4} {:>+9.1}% {:>12.2} {:>12.2}",
                r.label, r.avg_cost, clean.avg_cost, cost_pct, r.peak_queue, clean.peak_queue
            );
        }
    }

    /// Theorem 1(b) table: GreFar runs grouped by β, each compared against
    /// the cheapest run of its group (an observable stand-in for the
    /// offline optimum — the true gap to `g*` is at most the gap bound
    /// whenever the observed gap-to-best is, since best ≥ `g*`).
    fn render_gap_table(&self, out: &mut String) {
        let grefar: Vec<&RunAnalysis> = self
            .runs
            .iter()
            .filter(|r| r.v.is_some() && r.bound.is_some())
            .collect();
        if grefar.len() < 2 {
            return;
        }
        let _ = writeln!(
            out,
            "\nTheorem 1(b) cost-gap table (per swept V; gap measured against \
             the best run with the same beta):"
        );
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>12} {:>12} {:>14} {:>8}",
            "V", "beta", "avg_cost", "gap_to_best", "bound(O(1/V))", "within"
        );
        for r in &grefar {
            let beta = r.beta.unwrap_or(0.0);
            let best = grefar
                .iter()
                .filter(|o| (o.beta.unwrap_or(0.0) - beta).abs() < 1e-12)
                .map(|o| o.avg_cost)
                .fold(f64::INFINITY, f64::min);
            let gap = r.avg_cost - best;
            let bound = r.bound.as_ref().map_or(f64::INFINITY, |b| b.cost_gap_bound);
            let _ = writeln!(
                out,
                "{:>8} {:>8} {:>12.4} {:>12.4} {:>14.4} {:>8}",
                r.v.unwrap_or(0.0),
                beta,
                r.avg_cost,
                gap,
                bound,
                if gap <= bound { "yes" } else { "NO" }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{DecideSample, SlotSample};

    fn synthetic_run(label: &str, v: f64, cost: f64, qmax: f64, slots: usize) -> Run {
        let mut run = Run {
            label: Some(label.to_string()),
            scheduler: format!("GreFar(V={v})"),
            horizon: slots as u64,
            ..Run::default()
        };
        for t in 0..slots {
            run.slots.push(SlotSample {
                t: t as u64,
                queue_total: qmax * 1.5,
                queue_central: qmax,
                queue_local: qmax * 0.5,
                queue_max: qmax,
                energy: cost,
                fairness: 0.0,
                arrivals: 5.0,
                dropped: 0.0,
                wall_us: 10.0 + t as f64,
            });
            run.decides.push(DecideSample {
                v,
                beta: 0.0,
                objective: -1.0,
                drift: -2.0,
                penalty: 1.0,
                solver: "greedy".to_string(),
                fw_iterations: 0,
                fw_gap: 0.0,
                wall_us: 5.0,
            });
        }
        run
    }

    fn stream_with_bounds(qbound: f64) -> TelemetryStream {
        TelemetryStream {
            runs: vec![synthetic_run("V=1", 1.0, 8.0, 10.0, 40)],
            bounds: vec![BoundsEvent {
                label: "V=1".to_string(),
                v: 1.0,
                beta: 0.0,
                delta: 2.0,
                queue_bound: qbound,
                cost_gap_bound: 5.0,
                frame: 24,
                stale_slots: None,
                stale_queue_bound: None,
            }],
            total_events: 42,
        }
    }

    #[test]
    fn occupancy_and_verdict() {
        let ok = Analysis::from_stream(&stream_with_bounds(40.0));
        assert!((ok.runs[0].bound.as_ref().unwrap().occupancy_pct - 25.0).abs() < 1e-9);
        assert!(!ok.any_bound_exceeded());
        assert!(ok.render().contains("occupancy 25.0% [ok]"));

        let bad = Analysis::from_stream(&stream_with_bounds(5.0));
        assert!(bad.any_bound_exceeded());
        assert!(bad.render().contains("[EXCEEDED]"));
    }

    #[test]
    fn invariant_violations_fail_the_gate() {
        let mut stream = stream_with_bounds(40.0);
        stream.runs[0].invariant_violations = 1;
        assert!(Analysis::from_stream(&stream).any_bound_exceeded());
    }

    #[test]
    fn gap_table_marks_runs_within_bound() {
        let stream = TelemetryStream {
            runs: vec![
                synthetic_run("V=1", 1.0, 8.0, 10.0, 20),
                synthetic_run("V=10", 10.0, 6.0, 30.0, 20),
            ],
            bounds: vec![
                BoundsEvent {
                    label: "V=1".to_string(),
                    v: 1.0,
                    beta: 0.0,
                    delta: 2.0,
                    queue_bound: 50.0,
                    cost_gap_bound: 50.0,
                    frame: 24,
                    stale_slots: None,
                    stale_queue_bound: None,
                },
                BoundsEvent {
                    label: "V=10".to_string(),
                    v: 10.0,
                    beta: 0.0,
                    delta: 2.0,
                    queue_bound: 200.0,
                    cost_gap_bound: 5.0,
                    frame: 24,
                    stale_slots: None,
                    stale_queue_bound: None,
                },
            ],
            total_events: 84,
        };
        let analysis = Analysis::from_stream(&stream);
        let rendered = analysis.render();
        assert!(rendered.contains("cost-gap table"), "{rendered}");
        // V=1 has gap 2.0 <= bound 50; V=10 is the best (gap 0 <= 5).
        assert!(!rendered.contains(" NO\n"), "{rendered}");
    }

    #[test]
    fn resilience_section_reports_overshoot_and_recovery() {
        use crate::stream::{DegradedSample, FaultSample};
        let mut run = synthetic_run("V=1", 1.0, 8.0, 4.0, 0);
        // Queue steady at 4 until an outage at t=10 drives it to 20; it
        // drains back to the 4.0 baseline at t=18 (3 slots after close).
        let q = |t: u64| -> f64 {
            match t {
                0..=9 => 4.0,
                10..=14 => 20.0,
                15 => 12.0,
                16 => 8.0,
                17 => 5.0,
                _ => 4.0,
            }
        };
        for t in 0..25u64 {
            run.slots.push(SlotSample {
                t,
                queue_total: q(t) * 1.5,
                queue_central: q(t),
                queue_local: q(t) * 0.5,
                queue_max: q(t),
                energy: 1.0,
                fairness: 0.0,
                arrivals: 5.0,
                dropped: 0.0,
                wall_us: 1.0,
            });
        }
        run.faults.push(FaultSample {
            t: 10,
            kind: "outage".to_string(),
            start: 10,
            end: 15,
            dc: Some(0),
        });
        for t in 10..15u64 {
            run.degraded.push(DegradedSample {
                t,
                reason: "dc_offline".to_string(),
                dc: Some(0),
            });
        }
        run.degraded.push(DegradedSample {
            t: 12,
            reason: "solver_budget_exhausted".to_string(),
            dc: None,
        });
        let analysis = Analysis::from_stream(&TelemetryStream {
            runs: vec![run],
            bounds: vec![],
            total_events: 31,
        });
        let res = analysis.runs[0].resilience.as_ref().unwrap();
        assert_eq!(res.degraded_slots, 5);
        assert_eq!(res.degraded_events, 6);
        assert_eq!(
            res.by_reason,
            vec![
                ("dc_offline".to_string(), 5),
                ("solver_budget_exhausted".to_string(), 1),
            ]
        );
        let f = &res.faults[0];
        assert!((f.baseline_queue - 4.0).abs() < 1e-12);
        assert!((f.peak_queue - 20.0).abs() < 1e-12);
        assert!((f.overshoot - 16.0).abs() < 1e-12);
        assert_eq!(f.recovery_slots, Some(3));
        let rendered = analysis.render();
        assert!(
            rendered.contains("resilience      : 5 degraded slot(s)"),
            "{rendered}"
        );
        assert!(rendered.contains("dc_offline 5"), "{rendered}");
        assert!(rendered.contains("overshoot +16.00"), "{rendered}");
        assert!(
            rendered.contains("recovered 3 slot(s) after close"),
            "{rendered}"
        );
    }

    #[test]
    fn feed_health_aggregates_staleness_and_traffic() {
        use crate::stream::{BreakerSample, DegradedSample, FeedFetchSample, StaleSample};
        let mut run = synthetic_run("V=1", 1.0, 8.0, 10.0, 40);
        run.feed_fetches.push(FeedFetchSample {
            t: 3,
            feed: "price".to_string(),
            dc: Some(0),
            outcome: "fail".to_string(),
            attempts: 3,
            reason: Some("retries_exhausted".to_string()),
        });
        run.feed_fetches.push(FeedFetchSample {
            t: 4,
            feed: "price".to_string(),
            dc: Some(0),
            outcome: "ok".to_string(),
            attempts: 2,
            reason: None,
        });
        run.feed_fetches.push(FeedFetchSample {
            t: 5,
            feed: "price".to_string(),
            dc: Some(0),
            outcome: "fail".to_string(),
            attempts: 0,
            reason: Some("breaker_open".to_string()),
        });
        run.feed_breakers.push(BreakerSample {
            t: 4,
            feed: "price".to_string(),
            dc: Some(0),
            from: "closed".to_string(),
            to: "open".to_string(),
        });
        run.feed_quarantined
            .push((6, "arrivals".to_string(), "nan".to_string()));
        for (t, age, mae) in [(3u64, 1u64, 0.1), (4, 2, 0.3)] {
            run.stale.push(StaleSample {
                t,
                stale_fields: 1,
                max_age: age,
                price_mae: mae,
            });
        }
        run.degraded.push(DegradedSample {
            t: 4,
            reason: "stale_state_repaired".to_string(),
            dc: None,
        });
        let analysis = Analysis::from_stream(&TelemetryStream {
            runs: vec![run],
            bounds: vec![],
            total_events: 50,
        });
        let fh = analysis.runs[0].feed.as_ref().unwrap();
        assert_eq!(fh.stale_slots, 2);
        assert!((fh.stale_pct - 5.0).abs() < 1e-9); // 2 of 40 slots
        assert_eq!(fh.max_age, 2);
        assert!((fh.mean_age - 1.5).abs() < 1e-12);
        assert!((fh.mean_price_mae - 0.2).abs() < 1e-12);
        assert_eq!(fh.retries, 3); // (3-1) + (2-1) + 0
        assert_eq!(fh.failures, 2);
        assert_eq!(
            fh.failures_by_reason,
            vec![
                ("breaker_open".to_string(), 1),
                ("retries_exhausted".to_string(), 1),
            ]
        );
        assert_eq!(fh.quarantined, 1);
        assert_eq!(fh.breaker_opens, 1);
        assert_eq!(fh.stale_repairs, 1);
        let rendered = analysis.render();
        assert!(
            rendered.contains("feed health     : 2 stale slot(s)"),
            "{rendered}"
        );
        assert!(
            rendered.contains("1 breaker trip(s), 1 stale repair(s)"),
            "{rendered}"
        );
    }

    #[test]
    fn stale_bound_governs_occupancy_when_certified() {
        use crate::stream::StaleSample;
        // Peak queue 10 exceeds the plain bound 8 but sits inside the
        // degraded bound 16 — a staleness-certified run passes the gate.
        let mut stream = TelemetryStream {
            runs: vec![synthetic_run("V=1", 1.0, 8.0, 10.0, 40)],
            bounds: vec![BoundsEvent {
                label: "V=1".to_string(),
                v: 1.0,
                beta: 0.0,
                delta: 2.0,
                queue_bound: 8.0,
                cost_gap_bound: 5.0,
                frame: 24,
                stale_slots: Some(2),
                stale_queue_bound: Some(16.0),
            }],
            total_events: 42,
        };
        stream.runs[0].stale.push(StaleSample {
            t: 1,
            stale_fields: 1,
            max_age: 1,
            price_mae: 0.0,
        });
        let analysis = Analysis::from_stream(&stream);
        let b = analysis.runs[0].bound.as_ref().unwrap();
        assert_eq!(b.effective_bound, 16.0);
        assert!((b.occupancy_pct - 62.5).abs() < 1e-9);
        assert!(!analysis.any_bound_exceeded());
        let rendered = analysis.render();
        assert!(rendered.contains("degraded 1(a) bound 16.00"), "{rendered}");
        assert!(rendered.contains("2 stale slots"), "{rendered}");
    }

    #[test]
    fn feed_degradation_table_compares_against_clean_run() {
        use crate::stream::StaleSample;
        let clean = synthetic_run("clean", 1.0, 8.0, 10.0, 20);
        let mut lossy = synthetic_run("lossy", 1.0, 10.0, 14.0, 20);
        lossy.stale.push(StaleSample {
            t: 0,
            stale_fields: 1,
            max_age: 1,
            price_mae: 0.2,
        });
        let analysis = Analysis::from_stream(&TelemetryStream {
            runs: vec![clean, lossy],
            bounds: vec![],
            total_events: 80,
        });
        let rendered = analysis.render();
        assert!(rendered.contains("feed degradation"), "{rendered}");
        // 10 vs 8 cost: +25%.
        assert!(rendered.contains("+25.0%"), "{rendered}");
    }

    #[test]
    fn fault_free_runs_render_no_resilience_section() {
        let analysis = Analysis::from_stream(&stream_with_bounds(40.0));
        assert!(analysis.runs[0].resilience.is_none());
        assert!(!analysis.render().contains("resilience"));
    }

    #[test]
    fn solver_mix_and_wall_quantiles_render() {
        let analysis = Analysis::from_stream(&stream_with_bounds(40.0));
        let rendered = analysis.render();
        assert!(rendered.contains("greedy 40 / frank_wolfe 0"), "{rendered}");
        assert!(rendered.contains("wall slot"), "{rendered}");
        assert!(rendered.contains("avg drift -2.0000"), "{rendered}");
    }
}
