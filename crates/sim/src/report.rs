//! Simulation metrics and running averages.
//!
//! The paper's footnote 8: "the average values at time t are obtained by
//! summing up all the values up to time t and then dividing the sum by t" —
//! [`RunningSeries`] implements exactly that; delay curves divide
//! cumulative delay by cumulative completions instead (a running mean over
//! *jobs*, which is what Fig. 2(b)(c) plots).

use crate::tracker::CompletionStats;
use grefar_obs::Quantiles;

/// A time series together with its running average (footnote 8 semantics).
///
/// Only the per-slot values and their sum are stored: the running
/// averages are prefix means, so [`running`](Self::running) recomputes
/// them with the same sequential sum, bit for bit what dividing at every
/// [`push`](Self::push) would have stored.
#[derive(Clone, Default, PartialEq)]
pub struct RunningSeries {
    instant: Vec<f64>,
    sum: f64,
}

impl RunningSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one slot's value.
    pub fn push(&mut self, value: f64) {
        self.sum += value;
        self.instant.push(value);
    }

    /// Rebuilds a series from its raw per-slot values by replaying
    /// [`push`](Self::push) — the sum comes out bit-identical to the
    /// original accumulation, which is what makes checkpoint/resume exact.
    pub fn from_instant(values: impl IntoIterator<Item = f64>) -> Self {
        let mut series = Self::new();
        for v in values {
            series.push(v);
        }
        series
    }

    /// The raw per-slot values.
    pub fn instant(&self) -> &[f64] {
        &self.instant
    }

    /// The running average at each slot. Allocates: take it once per
    /// series, not once per slot.
    pub fn running(&self) -> Vec<f64> {
        let mut sum = 0.0;
        self.instant
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                sum += v;
                sum / (k + 1) as f64
            })
            .collect()
    }

    /// The final running average (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.instant.is_empty() {
            0.0
        } else {
            self.sum / self.instant.len() as f64
        }
    }

    /// Number of slots recorded.
    pub fn len(&self) -> usize {
        self.instant.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.instant.is_empty()
    }
}

/// Prints the running averages as a field too, as when they were stored,
/// so a report's `{:#?}` text is unchanged.
impl std::fmt::Debug for RunningSeries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningSeries")
            .field("instant", &self.instant)
            .field("running", &self.running())
            .field("sum", &self.sum)
            .finish()
    }
}

/// Everything a simulation run measured.
///
/// Time series are indexed by slot; per-data-center series are
/// `[data center][slot]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Name of the scheduler that produced this run.
    pub scheduler: String,
    /// Slots simulated.
    pub horizon: usize,
    /// Energy cost `e(t)` (eq. (2)) with running average.
    pub energy: RunningSeries,
    /// Fairness score `f(t)` (eq. (3)) with running average.
    pub fairness: RunningSeries,
    /// Per-account resource shares `r_m(t)/R(t)` with running averages
    /// (compare against the γ targets).
    pub account_shares: Vec<RunningSeries>,
    /// Per-DC scheduled work `Σ_j h_{i,j}(t)·d_j` with running averages.
    pub work_per_dc: Vec<RunningSeries>,
    /// Per-DC running-average job delay (cumulative delay over cumulative
    /// completions, up to each slot).
    pub dc_delay: Vec<Vec<f64>>,
    /// Per-DC electricity price series.
    pub prices: Vec<Vec<f64>>,
    /// Work arriving per slot.
    pub arriving_work: RunningSeries,
    /// Total queue length `Σ_j Q_j + Σ_{i,j} q_{i,j}` per slot.
    pub queue_total: Vec<f64>,
    /// Largest single queue length seen at each slot.
    pub queue_max: Vec<f64>,
    /// Final job-level completion statistics.
    pub completions: CompletionStats,
    /// Tail-latency summary of per-job delays in each data center.
    pub dc_delay_quantiles: Vec<Quantiles>,
    /// Jobs dropped by admission control (0 without a cap).
    pub dropped_jobs: u64,
}

impl SimulationReport {
    /// Final time-average energy cost (Fig. 2(a) end point).
    pub fn average_energy_cost(&self) -> f64 {
        self.energy.mean()
    }

    /// Final time-average fairness score (Fig. 3(b) end point).
    pub fn average_fairness(&self) -> f64 {
        self.fairness.mean()
    }

    /// Final running-average job delay in data center `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn average_dc_delay(&self, i: usize) -> f64 {
        self.dc_delay[i].last().copied().unwrap_or(0.0)
    }

    /// Final average work scheduled per slot to data center `i`
    /// (the §VI-B.1 33.97 / 48.50 / 14.77 metric).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn average_work_per_dc(&self, i: usize) -> f64 {
        self.work_per_dc[i].mean()
    }

    /// The largest queue length observed anywhere during the run —
    /// compared against Theorem 1(a)'s bound `V·C3/δ`.
    pub fn max_queue_length(&self) -> f64 {
        self.queue_max.iter().fold(0.0f64, |m, &v| m.max(v))
    }

    /// Number of data centers covered by the report.
    pub fn num_data_centers(&self) -> usize {
        self.work_per_dc.len()
    }

    /// Final time-average resource share of account `m`.
    ///
    /// # Panics
    /// Panics if `m` is out of range.
    pub fn average_account_share(&self, m: usize) -> f64 {
        self.account_shares[m].mean()
    }

    /// Writes the report's per-slot series to `<dir>/<stem>.csv` for
    /// external plotting: instantaneous and running-average energy and
    /// fairness, per-DC work/price/delay, arriving work and queue totals.
    ///
    /// # Errors
    /// Any I/O error from creating the directory or writing the file.
    pub fn write_csv(
        &self,
        dir: impl AsRef<std::path::Path>,
        stem: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.csv"));

        let mut headers: Vec<String> = vec![
            "slot".into(),
            "energy".into(),
            "energy_avg".into(),
            "fairness".into(),
            "fairness_avg".into(),
            "arriving_work".into(),
            "queue_total".into(),
            "queue_max".into(),
        ];
        for i in 0..self.num_data_centers() {
            headers.push(format!("work_dc{}", i + 1));
            headers.push(format!("price_dc{}", i + 1));
            headers.push(format!("delay_avg_dc{}", i + 1));
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

        let energy_avg = self.energy.running();
        let fairness_avg = self.fairness.running();
        let rows = (0..self.horizon).map(|t| {
            let mut row = vec![
                t as f64,
                self.energy.instant()[t],
                energy_avg[t],
                self.fairness.instant()[t],
                fairness_avg[t],
                self.arriving_work.instant()[t],
                self.queue_total[t],
                self.queue_max[t],
            ];
            for i in 0..self.num_data_centers() {
                row.push(self.work_per_dc[i].instant()[t]);
                row.push(self.prices[i][t]);
                row.push(self.dc_delay[i][t]);
            }
            row
        });
        grefar_trace::csv::write_csv(&path, &header_refs, rows)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_series_matches_footnote8() {
        let mut s = RunningSeries::new();
        for v in [2.0, 4.0, 6.0] {
            s.push(v);
        }
        assert_eq!(s.instant(), &[2.0, 4.0, 6.0]);
        assert_eq!(s.running(), [2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    /// The series as it was before the running averages were dropped:
    /// each one stored at push time.
    #[derive(Default)]
    struct StoredAverages {
        instant: Vec<f64>,
        running: Vec<f64>,
        sum: f64,
    }

    impl StoredAverages {
        fn push(&mut self, value: f64) {
            self.sum += value;
            self.instant.push(value);
            self.running.push(self.sum / self.instant.len() as f64);
        }

        fn mean(&self) -> f64 {
            self.running.last().copied().unwrap_or(0.0)
        }
    }

    #[test]
    fn recomputed_averages_match_the_stored_ones_bit_for_bit() {
        // 3 000 seeded values with magnitudes from 1e-12 to 1e12 and both
        // signs, then short series of the special values (a NaN or an
        // infinity would turn every later average of a long series NaN).
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let seeded: Vec<f64> = (0..3_000)
            .map(|_| {
                let bits = next();
                let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
                let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
                sign * unit * 10f64.powi((bits % 25) as i32 - 12)
            })
            .collect();
        let cases = [
            seeded,
            vec![-0.0, -0.0, 1e-300, -1e-300],
            vec![1e300, 1e300, -1e300, 5e-324],
            vec![2.0, f64::INFINITY, 1.0],
            vec![f64::NAN, 2.0],
            vec![f64::NEG_INFINITY, f64::INFINITY, 3.0],
        ];
        for values in cases {
            let mut series = RunningSeries::new();
            let mut stored = StoredAverages::default();
            for &v in &values {
                series.push(v);
                stored.push(v);
                assert_eq!(series.mean().to_bits(), stored.mean().to_bits(), "{v}");
            }
            let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&series.running()), bits(&stored.running));
        }
        // A series of negative zeros sums to +0, as the stored sum did.
        let zeros = RunningSeries::from_instant([-0.0, -0.0]);
        assert_eq!(zeros.mean().to_bits(), 0.0f64.to_bits());
        assert_eq!(RunningSeries::new().running(), Vec::<f64>::new());
    }

    #[test]
    fn empty_series_mean_is_zero() {
        let s = RunningSeries::new();
        assert_eq!(s.mean(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn report_csv_roundtrips() {
        use crate::{PaperScenario, Simulation};
        use grefar_core::Always;

        let scenario = PaperScenario::default().with_seed(2);
        let config = scenario.config().clone();
        let report = Simulation::new(
            config.clone(),
            scenario.into_inputs(12),
            Box::new(Always::new(&config)),
        )
        .run();
        let dir = std::env::temp_dir().join(format!("grefar-report-{}", std::process::id()));
        let path = report.write_csv(&dir, "run").expect("writable temp dir");
        let (headers, rows) = grefar_trace::csv::read_csv(&path).expect("readable");
        assert_eq!(rows.len(), 12);
        assert_eq!(headers.len(), 8 + 3 * 3);
        assert_eq!(headers[0], "slot");
        // energy column matches the report.
        assert_eq!(rows[5][1], report.energy.instant()[5]);
        std::fs::remove_dir_all(dir).ok();
    }
}
