//! Batch-job arrival processes `a_j(t)` (§III-B, Fig. 1).
//!
//! The paper stresses that "the job arrivals may not follow any stationary
//! distributions, especially in an enterprise computing environment where
//! different organizations only submit job requests sporadically". The
//! [`CosmosLikeWorkload`] model reproduces exactly that: a diurnal base rate
//! per job type plus sporadic bursts, with arrivals hard-bounded by
//! `a_j^max` as required by eq. (1).

use crate::rng::{poisson, uniform};
use grefar_types::Slot;
use rand::RngCore;

/// A stochastic process producing the per-type arrival counts
/// `a(t) = (a_1(t), …, a_J(t))` one slot at a time.
pub trait ArrivalProcess {
    /// Samples the arrivals of slot `slot`; entry `j` is `a_j(t)`.
    fn sample(&mut self, slot: Slot, rng: &mut dyn RngCore) -> Vec<f64>;

    /// Number of job types `J` this process produces.
    fn num_job_types(&self) -> usize;
}

/// Deterministic constant arrivals — useful for calibration tests.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantWorkload {
    per_slot: Vec<f64>,
}

impl ConstantWorkload {
    /// Creates the process: `per_slot[j]` jobs of type `j` arrive each slot.
    ///
    /// # Panics
    /// Panics if any rate is negative or non-finite.
    pub fn new(per_slot: Vec<f64>) -> Self {
        for &a in &per_slot {
            assert!(
                a.is_finite() && a >= 0.0,
                "arrival counts must be non-negative and finite"
            );
        }
        Self { per_slot }
    }
}

impl ArrivalProcess for ConstantWorkload {
    fn sample(&mut self, _slot: Slot, _rng: &mut dyn RngCore) -> Vec<f64> {
        self.per_slot.clone()
    }

    fn num_job_types(&self) -> usize {
        self.per_slot.len()
    }
}

/// Replays a recorded arrival table (rows = slots), cycling when exhausted.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayWorkload {
    rows: Vec<Vec<f64>>,
}

impl ReplayWorkload {
    /// Creates the replay from recorded rows; all rows must have the same
    /// length.
    ///
    /// # Panics
    /// Panics if `rows` is empty or ragged.
    pub fn new(rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "replay table must be non-empty");
        let j = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == j),
            "replay table must be rectangular"
        );
        Self { rows }
    }
}

impl ArrivalProcess for ReplayWorkload {
    fn sample(&mut self, slot: Slot, _rng: &mut dyn RngCore) -> Vec<f64> {
        self.rows[(slot as usize) % self.rows.len()].clone()
    }

    fn num_job_types(&self) -> usize {
        self.rows[0].len()
    }
}

/// Arrival statistics of one job type in the Cosmos-like model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobArrivalSpec {
    /// Mean arrivals per slot at the diurnal average.
    pub base_rate: f64,
    /// Relative diurnal modulation in `[0, 1]`: the Poisson rate swings
    /// between `base·(1 − amplitude)` and `base·(1 + amplitude)` over a day.
    pub diurnal_amplitude: f64,
    /// Slot of the daily rate *peak*.
    pub peak_slot: f64,
    /// Probability per slot of a sporadic submission burst.
    pub burst_probability: f64,
    /// Mean size (jobs) of a burst when it happens.
    pub burst_mean: f64,
    /// Hard bound `a_j^max` of eq. (1); samples are clamped to it.
    pub max_arrivals: f64,
    /// Rate multiplier applied on the 6th and 7th day of each week
    /// (weekends of an enterprise workload); 1 disables weekly seasonality.
    pub weekend_factor: f64,
}

impl JobArrivalSpec {
    /// A smooth diurnal spec without bursts or weekly seasonality.
    pub fn diurnal(base_rate: f64, amplitude: f64, peak_slot: f64, max_arrivals: f64) -> Self {
        Self {
            base_rate,
            diurnal_amplitude: amplitude,
            peak_slot,
            burst_probability: 0.0,
            burst_mean: 0.0,
            max_arrivals,
            weekend_factor: 1.0,
        }
    }

    /// Adds sporadic bursts to the spec.
    #[must_use]
    pub fn with_bursts(mut self, probability: f64, mean: f64) -> Self {
        self.burst_probability = probability;
        self.burst_mean = mean;
        self
    }

    /// Scales the rate by `factor` on the last two days of each week
    /// (enterprise submissions typically dip on weekends).
    #[must_use]
    pub fn with_weekend_factor(mut self, factor: f64) -> Self {
        self.weekend_factor = factor;
        self
    }

    fn validate(&self, j: usize) {
        assert!(
            self.base_rate.is_finite() && self.base_rate >= 0.0,
            "job {j}: base rate must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.diurnal_amplitude),
            "job {j}: diurnal amplitude must lie in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.burst_probability),
            "job {j}: burst probability must lie in [0, 1]"
        );
        assert!(
            self.burst_mean.is_finite() && self.burst_mean >= 0.0,
            "job {j}: burst mean must be non-negative"
        );
        assert!(
            self.max_arrivals.is_finite() && self.max_arrivals >= 0.0,
            "job {j}: max arrivals must be non-negative and finite"
        );
        assert!(
            self.weekend_factor.is_finite() && self.weekend_factor >= 0.0,
            "job {j}: weekend factor must be non-negative and finite"
        );
    }
}

/// The Cosmos-like non-stationary arrival model: for each job type `j`,
///
/// ```text
/// rate_j(t) = base_j · (1 + amplitude_j · sin(2π (t − peak_j + P/4) / P))
/// a_j(t)    = min( Poisson(rate_j(t)) + burst_j(t),  a_j^max )
/// burst_j(t) = Poisson(burst_mean_j)  with probability burst_probability_j
/// ```
///
/// The result is time-dependent ("more jobs during the day"), sporadic per
/// organization and bounded — the three properties of the paper's Fig. 1
/// trace that matter to GreFar.
///
/// # Example
/// ```
/// use grefar_trace::{ArrivalProcess, CosmosLikeWorkload, JobArrivalSpec};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let specs = vec![JobArrivalSpec::diurnal(5.0, 0.5, 14.0, 20.0)];
/// let mut w = CosmosLikeWorkload::new(specs, 24.0);
/// let mut rng = StdRng::seed_from_u64(2);
/// let a = w.sample(0, &mut rng);
/// assert!(a[0] >= 0.0 && a[0] <= 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CosmosLikeWorkload {
    specs: Vec<JobArrivalSpec>,
    period: f64,
}

impl CosmosLikeWorkload {
    /// Creates the model from per-type specs and the diurnal `period`
    /// (slots per day).
    ///
    /// # Panics
    /// Panics if `specs` is empty, `period <= 0`, or any spec is invalid.
    pub fn new(specs: Vec<JobArrivalSpec>, period: f64) -> Self {
        assert!(!specs.is_empty(), "at least one job type is required");
        assert!(period > 0.0, "period must be positive");
        for (j, s) in specs.iter().enumerate() {
            s.validate(j);
        }
        Self { specs, period }
    }

    /// The per-type specs.
    pub fn specs(&self) -> &[JobArrivalSpec] {
        &self.specs
    }

    /// The deterministic Poisson rate of type `j` at `slot` (before bursts
    /// and clamping) — exposed for calibration tests.
    pub fn rate(&self, j: usize, slot: Slot) -> f64 {
        let s = &self.specs[j];
        let angle = 2.0 * core::f64::consts::PI * (slot as f64 - s.peak_slot + self.period / 4.0)
            / self.period;
        let day_of_week = ((slot as f64 / self.period).floor() as u64) % 7;
        let weekly = if day_of_week >= 5 {
            s.weekend_factor
        } else {
            1.0
        };
        s.base_rate * weekly * (1.0 + s.diurnal_amplitude * angle.sin())
    }
}

impl ArrivalProcess for CosmosLikeWorkload {
    fn sample(&mut self, slot: Slot, rng: &mut dyn RngCore) -> Vec<f64> {
        let day_of_week = ((slot as f64 / self.period).floor() as u64) % 7;
        self.specs
            .iter()
            .enumerate()
            .map(|(j, s)| {
                let mut count = poisson(self.rate(j, slot), rng) as f64;
                if s.burst_probability > 0.0 && uniform(rng) < s.burst_probability {
                    // Sporadic dumps dip on weekends like the base flow.
                    let weekly = if day_of_week >= 5 {
                        s.weekend_factor
                    } else {
                        1.0
                    };
                    count += poisson(s.burst_mean * weekly, rng) as f64;
                }
                count.min(s.max_arrivals)
            })
            .collect()
    }

    fn num_job_types(&self) -> usize {
        self.specs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    #[test]
    fn constant_workload() {
        let mut w = ConstantWorkload::new(vec![1.0, 2.0]);
        assert_eq!(w.num_job_types(), 2);
        assert_eq!(w.sample(5, &mut rng()), vec![1.0, 2.0]);
    }

    #[test]
    fn replay_cycles_rows() {
        let mut w = ReplayWorkload::new(vec![vec![1.0], vec![2.0]]);
        let mut r = rng();
        assert_eq!(w.sample(0, &mut r), vec![1.0]);
        assert_eq!(w.sample(3, &mut r), vec![2.0]);
        assert_eq!(w.num_job_types(), 1);
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn replay_rejects_ragged() {
        let _ = ReplayWorkload::new(vec![vec![1.0], vec![2.0, 3.0]]);
    }

    #[test]
    fn rate_peaks_at_peak_slot() {
        let w =
            CosmosLikeWorkload::new(vec![JobArrivalSpec::diurnal(10.0, 0.5, 14.0, 100.0)], 24.0);
        assert!((w.rate(0, 14) - 15.0).abs() < 1e-9);
        assert!((w.rate(0, 2) - 5.0).abs() < 1e-9); // 12 h later: trough
    }

    #[test]
    fn arrivals_are_bounded_and_integral() {
        let specs = vec![JobArrivalSpec::diurnal(8.0, 0.6, 14.0, 12.0).with_bursts(0.3, 10.0)];
        let mut w = CosmosLikeWorkload::new(specs, 24.0);
        let mut r = rng();
        for t in 0..2000 {
            let a = w.sample(t, &mut r)[0];
            assert!((0.0..=12.0).contains(&a), "slot {t}: {a}");
            assert_eq!(a, a.trunc(), "arrivals must be whole jobs");
        }
    }

    #[test]
    fn mean_tracks_rate_without_bursts() {
        let mut w =
            CosmosLikeWorkload::new(vec![JobArrivalSpec::diurnal(6.0, 0.0, 0.0, 1e6)], 24.0);
        let mut r = rng();
        let n = 30_000;
        let mean: f64 = (0..n).map(|t| w.sample(t, &mut r)[0]).sum::<f64>() / n as f64;
        assert!((mean - 6.0).abs() < 0.06, "mean {mean}");
    }

    #[test]
    fn bursts_add_sporadic_mass() {
        let smooth =
            CosmosLikeWorkload::new(vec![JobArrivalSpec::diurnal(2.0, 0.0, 0.0, 1e6)], 24.0);
        let mut bursty = CosmosLikeWorkload::new(
            vec![JobArrivalSpec::diurnal(2.0, 0.0, 0.0, 1e6).with_bursts(0.1, 20.0)],
            24.0,
        );
        let mut r = rng();
        let n = 20_000;
        let mean: f64 = (0..n).map(|t| bursty.sample(t, &mut r)[0]).sum::<f64>() / n as f64;
        // Expected: 2 + 0.1 · 20 = 4.
        assert!((mean - 4.0).abs() < 0.15, "mean {mean}");
        // The smooth model (not sampled) has rate exactly 2.
        assert!((smooth.rate(0, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diurnal_shape_visible_in_sample_means() {
        let mut w =
            CosmosLikeWorkload::new(vec![JobArrivalSpec::diurnal(10.0, 0.8, 14.0, 1e6)], 24.0);
        let mut r = rng();
        let days = 600;
        let mut by_hour = [0.0f64; 24];
        for d in 0..days {
            for (h, total) in by_hour.iter_mut().enumerate() {
                *total += w.sample((d * 24 + h) as Slot, &mut r)[0];
            }
        }
        let peak = by_hour[14] / days as f64;
        let trough = by_hour[2] / days as f64;
        assert!(peak > 2.0 * trough, "peak {peak} trough {trough}");
    }

    #[test]
    #[should_panic(expected = "at least one job type")]
    fn rejects_empty_specs() {
        let _ = CosmosLikeWorkload::new(vec![], 24.0);
    }

    #[test]
    fn weekend_factor_dips_on_days_five_and_six() {
        let w = CosmosLikeWorkload::new(
            vec![JobArrivalSpec::diurnal(10.0, 0.0, 0.0, 1e6).with_weekend_factor(0.3)],
            24.0,
        );
        assert_eq!(w.rate(0, 24 * 2), 10.0); // Wednesday
        assert_eq!(w.rate(0, 24 * 5), 3.0); // Saturday
        assert_eq!(w.rate(0, 24 * 6 + 12), 3.0); // Sunday
        assert_eq!(w.rate(0, 24 * 7), 10.0); // next Monday
    }

    #[test]
    fn weekly_pattern_visible_in_samples() {
        let mut w = CosmosLikeWorkload::new(
            vec![JobArrivalSpec::diurnal(8.0, 0.0, 0.0, 1e6).with_weekend_factor(0.25)],
            24.0,
        );
        let mut r = rng();
        let weeks = 200;
        let mut weekday_sum = 0.0;
        let mut weekend_sum = 0.0;
        for week in 0..weeks {
            for day in 0..7u64 {
                let slot = (week * 7 + day) * 24;
                let a = w.sample(slot, &mut r)[0];
                if day >= 5 {
                    weekend_sum += a;
                } else {
                    weekday_sum += a;
                }
            }
        }
        let weekday_mean = weekday_sum / (weeks * 5) as f64;
        let weekend_mean = weekend_sum / (weeks * 2) as f64;
        assert!(
            weekend_mean < 0.5 * weekday_mean,
            "weekday {weekday_mean} vs weekend {weekend_mean}"
        );
    }

    #[test]
    #[should_panic(expected = "weekend factor")]
    fn rejects_bad_weekend_factor() {
        let _ = CosmosLikeWorkload::new(
            vec![JobArrivalSpec::diurnal(1.0, 0.0, 0.0, 10.0).with_weekend_factor(f64::NAN)],
            24.0,
        );
    }
}
