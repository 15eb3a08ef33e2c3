//! Job-level FIFO tracking for true per-job delay measurement.
//!
//! The queue dynamics (12)–(13) determine queue *lengths*; to measure the
//! per-job delays the paper plots (Fig. 2(b)(c), 3(c), 4(c)) the simulator
//! additionally tracks every job individually. Jobs are served FIFO within
//! each (data center, job type) queue; because jobs may be suspended and
//! resumed (§III-B), the front job may be partially complete.
//!
//! Timing convention (matching (12)–(13)): a job arriving during slot `t`
//! becomes visible in the central queue at `t+1`; a job routed at slot `u`
//! becomes serviceable in its data center at `u+1`; a job finishing during
//! slot `w` has data-center delay `w − (u+1) + 1 = w − u` and total sojourn
//! `w − t`. The "Always" baseline therefore yields a data-center delay of
//! exactly 1, as §VI-B.3 expects.
//!
//! A data-center delay is a whole number of slots, so completed jobs are
//! kept as exact per-(data center, delay) counts rather than one sample
//! per job: memory follows the longest delay seen, not the number of jobs
//! ever completed, and the report's delay quantiles
//! ([`Quantiles::from_counts`](grefar_obs::Quantiles::from_counts)) are
//! exact.

use grefar_types::{Decision, Slot, SystemConfig};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct CentralJob {
    arrival: Slot,
}

#[derive(Debug, Clone, Copy)]
struct LocalJob {
    arrival: Slot,
    /// First slot at which the job is serviceable in the data center.
    serviceable_from: Slot,
    /// Remaining fraction of the job in `(0, 1]`.
    remaining: f64,
}

/// Aggregate completion statistics up to the current slot.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionStats {
    /// Jobs completed in each data center.
    pub completed_per_dc: Vec<u64>,
    /// Mean data-center delay (slots) of jobs completed in each data center
    /// (`NaN`-free: 0 when no completions).
    pub mean_dc_delay: Vec<f64>,
    /// Total completed jobs.
    pub completed_total: u64,
    /// Mean total sojourn (arrival to completion) over all completed jobs.
    pub mean_sojourn: f64,
}

/// Per-job FIFO tracker mirroring the queue dynamics.
#[derive(Debug, Clone)]
pub struct JobTracker {
    /// central[j]: jobs waiting at the central scheduler.
    central: Vec<VecDeque<CentralJob>>,
    /// local[i][j]: jobs waiting/executing in data center i.
    local: Vec<Vec<VecDeque<LocalJob>>>,
    completed_per_dc: Vec<u64>,
    dc_delay_sum: Vec<f64>,
    /// `dc_delay_counts[i][d]`: jobs completed in data center `i` with a
    /// DC delay of `d` slots (for quantiles). A row is as long as the
    /// largest delay seen plus one.
    dc_delay_counts: Vec<Vec<u64>>,
    completed_total: u64,
    sojourn_sum: f64,
}

impl JobTracker {
    /// An empty tracker shaped for the system.
    pub fn new(config: &SystemConfig) -> Self {
        let n = config.num_data_centers();
        let j = config.num_job_classes();
        Self {
            central: vec![VecDeque::new(); j],
            local: vec![vec![VecDeque::new(); j]; n],
            completed_per_dc: vec![0; n],
            dc_delay_sum: vec![0.0; n],
            dc_delay_counts: vec![Vec::new(); n],
            completed_total: 0,
            sojourn_sum: 0.0,
        }
    }

    /// Jobs currently waiting at the central scheduler for type `j`
    /// (should equal `Q_j(t)` whenever decisions respect backlogs).
    pub fn central_backlog(&self, j: usize) -> f64 {
        self.central[j].len() as f64
    }

    /// Job-units waiting in data center `i` for type `j`, counting the
    /// partially-served front job fractionally (should equal `q_{i,j}(t)`).
    pub fn local_backlog(&self, i: usize, j: usize) -> f64 {
        self.local[i][j].iter().map(|job| job.remaining).sum()
    }

    /// Whole jobs present in data center `i` for type `j` (a partially
    /// served job counts as one until it completes). Together with
    /// [`central_backlog`](Self::central_backlog) and the completion count
    /// this satisfies exact job-count conservation.
    pub fn local_job_count(&self, i: usize, j: usize) -> usize {
        self.local[i][j].len()
    }

    /// Executes one slot `t` of the decision: serves `h_{i,j}(t)` job-units
    /// FIFO in every data center (recording completions), then moves
    /// `r_{i,j}(t)` jobs from the central queues to the data centers
    /// (serviceable from `t+1`). Returns per-DC completions of this slot.
    ///
    /// Amounts beyond the actual backlog are ignored, mirroring the
    /// `max[·, 0]` in (12)–(13).
    pub fn step(&mut self, t: Slot, decision: &Decision) -> Vec<u64> {
        let n = self.local.len();
        let j_count = self.central.len();
        let mut completions = vec![0u64; n];

        // Serve: h_{i,j}(t) applies to jobs serviceable at t.
        for (i, done) in completions.iter_mut().enumerate() {
            for j in 0..j_count {
                let mut budget = decision.processed[(i, j)];
                let queue = &mut self.local[i][j];
                while budget > 1e-12 {
                    let Some(front) = queue.front_mut() else {
                        break;
                    };
                    if front.serviceable_from > t {
                        // Jobs routed this very slot are not serviceable yet.
                        break;
                    }
                    let served = front.remaining.min(budget);
                    front.remaining -= served;
                    budget -= served;
                    if front.remaining <= 1e-12 {
                        let job = *front;
                        queue.pop_front();
                        *done += 1;
                        self.completed_per_dc[i] += 1;
                        self.completed_total += 1;
                        // DC delay: w − u where u is the routing slot
                        // (= serviceable_from − 1); sojourn: w − arrival.
                        let delay = (t + 1 - job.serviceable_from) as usize;
                        self.dc_delay_sum[i] += delay as f64;
                        let counts = &mut self.dc_delay_counts[i];
                        if counts.len() <= delay {
                            counts.resize(delay + 1, 0);
                        }
                        counts[delay] += 1;
                        self.sojourn_sum += t.saturating_sub(job.arrival) as f64;
                    }
                }
            }
        }

        // Route: r_{i,j}(t) moves whole jobs, FIFO, capped by the backlog.
        for j in 0..j_count {
            for i in 0..n {
                let want = decision.routed[(i, j)].round() as usize;
                for _ in 0..want {
                    let Some(job) = self.central[j].pop_front() else {
                        break;
                    };
                    self.local[i][j].push_back(LocalJob {
                        arrival: job.arrival,
                        serviceable_from: t + 1,
                        remaining: 1.0,
                    });
                }
            }
        }

        completions
    }

    /// Records the arrivals of slot `t` (visible to the scheduler from
    /// `t+1`, per (12)).
    ///
    /// # Panics
    /// Panics if the arrival vector length mismatches.
    pub fn arrive(&mut self, t: Slot, arrivals: &[f64]) {
        assert_eq!(
            arrivals.len(),
            self.central.len(),
            "arrival vector mismatch"
        );
        for (j, &count) in arrivals.iter().enumerate() {
            for _ in 0..count.round() as usize {
                self.central[j].push_back(CentralJob { arrival: t });
            }
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> CompletionStats {
        let mean_dc_delay = self
            .completed_per_dc
            .iter()
            .zip(&self.dc_delay_sum)
            .map(|(&c, &s)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect();
        CompletionStats {
            completed_per_dc: self.completed_per_dc.clone(),
            mean_dc_delay,
            completed_total: self.completed_total,
            mean_sojourn: if self.completed_total > 0 {
                self.sojourn_sum / self.completed_total as f64
            } else {
                0.0
            },
        }
    }

    /// Cumulative (completions, delay-sum) for data center `i` — used by
    /// the report to build running-average delay curves.
    pub fn dc_delay_accumulator(&self, i: usize) -> (u64, f64) {
        (self.completed_per_dc[i], self.dc_delay_sum[i])
    }

    /// The data-center delays of data center `i`'s completed jobs as
    /// counts: element `d` is the number of jobs that completed with a
    /// delay of `d` slots (for tail-latency quantiles).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn dc_delay_counts(&self, i: usize) -> &[u64] {
        &self.dc_delay_counts[i]
    }

    /// Captures the tracker's complete job-level state for a checkpoint.
    pub fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            central: self
                .central
                .iter()
                .map(|q| q.iter().map(|job| job.arrival).collect())
                .collect(),
            local: self
                .local
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|q| {
                            q.iter()
                                .map(|job| (job.arrival, job.serviceable_from, job.remaining))
                                .collect()
                        })
                        .collect()
                })
                .collect(),
            completed_per_dc: self.completed_per_dc.clone(),
            dc_delay_sum: self.dc_delay_sum.clone(),
            dc_delay_counts: self.dc_delay_counts.clone(),
            completed_total: self.completed_total,
            sojourn_sum: self.sojourn_sum,
        }
    }

    /// Rebuilds a tracker from a [`snapshot`](Self::snapshot) — the exact
    /// inverse, so `from_snapshot(config, t.snapshot())` continues precisely
    /// where `t` stopped.
    ///
    /// # Errors
    /// Returns a message if the snapshot's shape mismatches the
    /// configuration or any job fraction is out of `(0, 1]`.
    pub fn from_snapshot(config: &SystemConfig, snap: TrackerSnapshot) -> Result<Self, String> {
        let n = config.num_data_centers();
        let j_count = config.num_job_classes();
        if snap.central.len() != j_count
            || snap.local.len() != n
            || snap.local.iter().any(|row| row.len() != j_count)
            || snap.completed_per_dc.len() != n
            || snap.dc_delay_sum.len() != n
            || snap.dc_delay_counts.len() != n
        {
            return Err("tracker snapshot shape mismatches the configuration".to_string());
        }
        for row in &snap.local {
            for queue in row {
                for &(_, _, remaining) in queue {
                    if !(remaining > 0.0 && remaining <= 1.0) {
                        return Err(format!(
                            "job fraction {remaining} outside (0, 1] in tracker snapshot"
                        ));
                    }
                }
            }
        }
        Ok(Self {
            central: snap
                .central
                .into_iter()
                .map(|q| {
                    q.into_iter()
                        .map(|arrival| CentralJob { arrival })
                        .collect()
                })
                .collect(),
            local: snap
                .local
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|q| {
                            q.into_iter()
                                .map(|(arrival, serviceable_from, remaining)| LocalJob {
                                    arrival,
                                    serviceable_from,
                                    remaining,
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect(),
            completed_per_dc: snap.completed_per_dc,
            dc_delay_sum: snap.dc_delay_sum,
            dc_delay_counts: snap.dc_delay_counts,
            completed_total: snap.completed_total,
            sojourn_sum: snap.sojourn_sum,
        })
    }
}

/// A plain-data copy of a [`JobTracker`]'s state, as written to and read
/// from checkpoints. Local jobs are `(arrival, serviceable_from,
/// remaining)` triples in FIFO order.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerSnapshot {
    /// Arrival slots of jobs waiting centrally, per job class, FIFO order.
    pub central: Vec<Vec<Slot>>,
    /// Jobs waiting in each data center: `[dc][job class]` FIFO queues.
    pub local: Vec<Vec<Vec<(Slot, Slot, f64)>>>,
    /// Completions per data center.
    pub completed_per_dc: Vec<u64>,
    /// Cumulative data-center delay per data center.
    pub dc_delay_sum: Vec<f64>,
    /// Completed jobs per data center and delay: `[dc][delay in slots]`
    /// counts, as [`JobTracker::dc_delay_counts`] returns them.
    pub dc_delay_counts: Vec<Vec<u64>>,
    /// Total completions.
    pub completed_total: u64,
    /// Cumulative sojourn time over all completed jobs.
    pub sojourn_sum: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use grefar_types::{DataCenterId, JobClass, ServerClass};

    fn config() -> SystemConfig {
        SystemConfig::builder()
            .server_class(ServerClass::new(1.0, 1.0))
            .data_center("a", vec![10.0])
            .account("x", 1.0)
            .job_class(JobClass::new(1.0, vec![DataCenterId::new(0)], 0))
            .build()
            .unwrap()
    }

    #[test]
    fn always_style_service_has_dc_delay_one() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        // Slot 0: 2 jobs arrive.
        tr.arrive(0, &[2.0]);
        // Slot 1: route both.
        let mut route = cfg.decision_zeros();
        route.routed[(0, 0)] = 2.0;
        tr.step(1, &route);
        assert_eq!(tr.central_backlog(0), 0.0);
        assert_eq!(tr.local_backlog(0, 0), 2.0);
        // Slot 2: serve both.
        let mut serve = cfg.decision_zeros();
        serve.processed[(0, 0)] = 2.0;
        let done = tr.step(2, &serve);
        assert_eq!(done, vec![2]);
        let stats = tr.stats();
        assert_eq!(stats.completed_total, 2);
        assert_eq!(stats.mean_dc_delay[0], 1.0);
        assert_eq!(stats.mean_sojourn, 2.0);
        assert_eq!(tr.dc_delay_counts(0), [0, 2]);
    }

    #[test]
    fn jobs_routed_this_slot_are_not_serviceable_yet() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[1.0]);
        // Route and (attempt to) serve in the same slot: per (13) the job
        // only reaches the DC queue at t+1.
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 1.0;
        z.processed[(0, 0)] = 1.0;
        let done = tr.step(1, &z);
        assert_eq!(done, vec![0]);
        assert_eq!(tr.local_backlog(0, 0), 1.0);
    }

    #[test]
    fn partial_service_suspends_and_resumes() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[1.0]);
        let mut route = cfg.decision_zeros();
        route.routed[(0, 0)] = 1.0;
        tr.step(1, &route);
        // Serve 0.4 then 0.6 of the job.
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = 0.4;
        assert_eq!(tr.step(2, &z), vec![0]);
        assert!((tr.local_backlog(0, 0) - 0.6).abs() < 1e-12);
        z.processed[(0, 0)] = 0.6;
        assert_eq!(tr.step(3, &z), vec![1]);
        // DC delay: routed at 1, finished at 3 → 2 slots.
        assert_eq!(tr.stats().mean_dc_delay[0], 2.0);
        assert_eq!(tr.dc_delay_counts(0), [0, 0, 1]);
    }

    #[test]
    fn fifo_order_within_type() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[1.0]); // job A (arrival 0)
        tr.arrive(1, &[1.0]); // job B (arrival 1)
        let mut route = cfg.decision_zeros();
        route.routed[(0, 0)] = 2.0;
        tr.step(2, &route);
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = 1.0;
        tr.step(3, &z);
        // One completion; the completed job must be A (sojourn 3), not B.
        assert_eq!(tr.stats().completed_total, 1);
        assert_eq!(tr.stats().mean_sojourn, 3.0);
    }

    #[test]
    fn over_serving_and_over_routing_are_capped() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[1.0]);
        let mut z = cfg.decision_zeros();
        z.routed[(0, 0)] = 50.0;
        z.processed[(0, 0)] = 50.0;
        tr.step(1, &z);
        assert_eq!(tr.central_backlog(0), 0.0);
        assert_eq!(tr.local_backlog(0, 0), 1.0);
        tr.step(2, &z);
        assert_eq!(tr.local_backlog(0, 0), 0.0);
        assert_eq!(tr.stats().completed_total, 1);
    }

    #[test]
    fn snapshot_roundtrip_continues_identically() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[3.0]);
        let mut route = cfg.decision_zeros();
        route.routed[(0, 0)] = 3.0;
        tr.step(1, &route);
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = 1.4; // one done, one at 0.6 remaining
        tr.step(2, &z);

        let restored = JobTracker::from_snapshot(&cfg, tr.snapshot()).unwrap();
        assert_eq!(restored.stats(), tr.stats());
        assert_eq!(restored.local_backlog(0, 0), tr.local_backlog(0, 0));
        // Both continue to the same future.
        let mut a = tr.clone();
        let mut b = restored;
        z.processed[(0, 0)] = 2.0;
        assert_eq!(a.step(3, &z), b.step(3, &z));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn from_snapshot_rejects_bad_shapes_and_fractions() {
        let cfg = config();
        let tr = JobTracker::new(&cfg);
        let mut snap = tr.snapshot();
        snap.completed_per_dc.push(0);
        assert!(JobTracker::from_snapshot(&cfg, snap).is_err());
        let mut snap = tr.snapshot();
        snap.local[0][0].push((0, 1, 1.5));
        assert!(JobTracker::from_snapshot(&cfg, snap).is_err());
    }

    #[test]
    fn accumulator_matches_stats() {
        let cfg = config();
        let mut tr = JobTracker::new(&cfg);
        tr.arrive(0, &[3.0]);
        let mut route = cfg.decision_zeros();
        route.routed[(0, 0)] = 3.0;
        tr.step(1, &route);
        let mut z = cfg.decision_zeros();
        z.processed[(0, 0)] = 3.0;
        tr.step(2, &z);
        let (count, sum) = tr.dc_delay_accumulator(0);
        assert_eq!(count, 3);
        assert_eq!(sum, 3.0);
    }
}
