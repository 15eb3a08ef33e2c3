//! Sample-holding histograms with empirical quantiles, and quantiles of
//! whole-number count histograms.

/// Summary quantiles of an empirical distribution (job delays, phase
/// timings, …), by the "type 7" linear-interpolation estimator — the one
/// quantile implementation the workspace shares.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Quantiles {
    /// Number of samples summarized.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Quantiles {
    /// Summarizes unsorted samples, ignoring non-finite values. With no
    /// finite samples the summary is [`Quantiles::default()`]: `count == 0`
    /// marks it vacuous and its quantile fields are placeholders (kept at
    /// `0.0`, not `NaN`, so summaries stay comparable with `==`). A single
    /// sample is reported for every quantile and the max.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        sort_finite(&mut sorted);
        Self::from_order_statistics(sorted.len(), |k| sorted[k])
    }

    /// Summarizes a histogram of whole-number samples: `counts[v]` is the
    /// number of samples equal to `v` (job delays in slots, for one). The
    /// result is bit for bit [`from_samples`](Self::from_samples) of the
    /// expanded samples, with no sort and no per-sample memory; empty or
    /// all-zero counts give [`Quantiles::default()`].
    pub fn from_counts(counts: &[u64]) -> Self {
        // cumulative[v]: how many samples are ≤ v.
        let cumulative: Vec<u64> = counts
            .iter()
            .scan(0u64, |total, &c| {
                *total += c;
                Some(*total)
            })
            .collect();
        let n = cumulative.last().map_or(0, |&total| total as usize);
        // The k-th order statistic (0-based) is the least v with more
        // than k samples ≤ v.
        Self::from_order_statistics(n, |k| cumulative.partition_point(|&c| c <= k as u64) as f64)
    }

    /// The summary of `n` ascending order statistics, `at(k)` being the
    /// `k`-th (0-based); the default when `n == 0`.
    fn from_order_statistics(n: usize, at: impl Fn(usize) -> f64) -> Self {
        if n == 0 {
            return Self::default();
        }
        Self {
            count: n,
            p50: quantile_of(n, 0.50, &at),
            p90: quantile_of(n, 0.90, &at),
            p95: quantile_of(n, 0.95, &at),
            p99: quantile_of(n, 0.99, &at),
            max: at(n - 1),
        }
    }
}

/// A histogram that keeps its raw samples (simulation-scale cardinalities:
/// one sample per slot or per solve, so memory stays small) and summarizes
/// them on demand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    samples: Vec<f64>,
    sum: f64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample; silently ignores non-finite values.
    pub fn record(&mut self, value: f64) {
        if value.is_finite() {
            self.samples.push(value);
            self.sum += value;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    /// The raw samples in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The `q`-quantile (type 7 estimator).
    ///
    /// Edge cases are defined, not accidental: an **empty** histogram has
    /// no order statistics, so every quantile is `NaN` (check
    /// [`count`](Self::count) first; `NaN` cannot be mistaken for a real
    /// sample, which a silent `0.0` could). A **single-sample** histogram
    /// answers every quantile — including `p0` and `p100` — with that
    /// sample.
    ///
    /// # Panics
    /// Panics if `q ∉ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.samples.clone();
        sort_finite(&mut sorted);
        quantile_of(sorted.len(), q, |k| sorted[k])
    }

    /// The full quantile summary ([`Quantiles::from_samples`] of the
    /// recorded samples).
    pub fn quantiles(&self) -> Quantiles {
        Quantiles::from_samples(&self.samples)
    }
}

/// Sorts finite values ascending.
fn sort_finite(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
}

/// The `q`-quantile of `n > 0` ascending order statistics, `at(k)` being
/// the `k`-th (0-based), interpolating linearly between them.
fn quantile_of(n: usize, q: f64, at: impl Fn(usize) -> f64) -> f64 {
    if n == 1 {
        return at(0);
    }
    let position = q * (n - 1) as f64;
    let lo = position.floor() as usize;
    let hi = position.ceil() as usize;
    let frac = position - lo as f64;
    at(lo) * (1.0 - frac) + at(hi) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_sample() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let q = h.quantiles();
        assert_eq!(q.count, 100);
        assert!((q.p50 - 50.5).abs() < 1e-12);
        assert!((q.p90 - 90.1).abs() < 1e-9);
        assert!((q.p99 - 99.01).abs() < 1e-9);
        assert_eq!(q.max, 100.0);
        assert!((h.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_quantile_is_nan_and_summary_is_vacuous() {
        let h = Histogram::new();
        // No samples: every quantile is NaN — defined, and impossible to
        // confuse with a real observation.
        assert!(h.quantile(0.5).is_nan());
        assert!(h.quantile(0.95).is_nan());
        assert!(h.quantile(0.99).is_nan());
        assert!(h.quantile(0.0).is_nan());
        // The summary stays `==`-comparable: count 0 marks it vacuous.
        assert_eq!(h.quantiles(), Quantiles::default());
        assert_eq!(h.quantiles().count, 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_answers_every_quantile_with_the_sample() {
        let mut h = Histogram::new();
        h.record(7.25);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7.25, "q = {q}");
        }
        let s = h.quantiles();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, 7.25);
        assert_eq!(s.p95, 7.25);
        assert_eq!(s.p99, 7.25);
        assert_eq!(s.max, 7.25);
    }

    #[test]
    fn two_samples_interpolate_linearly() {
        let mut h = Histogram::new();
        h.record(10.0);
        h.record(20.0);
        // Type 7: position = q·(n−1), so p50 is the midpoint and the tails
        // interpolate toward the max.
        assert_eq!(h.quantile(0.5), 15.0);
        let s = h.quantiles();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50, 15.0);
        assert!((s.p95 - 19.5).abs() < 1e-12);
        assert!((s.p99 - 19.9).abs() < 1e-12);
        assert_eq!(s.max, 20.0);
    }

    #[test]
    fn nonfinite_samples_are_dropped() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 1.0);
    }

    /// `from_counts(counts)` against `from_samples` of the expanded
    /// samples, field for field and by bits.
    fn assert_counts_match_samples(counts: &[u64]) {
        let samples: Vec<f64> = counts
            .iter()
            .enumerate()
            .flat_map(|(v, &c)| std::iter::repeat_n(v as f64, c as usize))
            .collect();
        let (got, want) = (
            Quantiles::from_counts(counts),
            Quantiles::from_samples(&samples),
        );
        assert_eq!(got.count, want.count, "{counts:?}");
        for (name, g, w) in [
            ("p50", got.p50, want.p50),
            ("p90", got.p90, want.p90),
            ("p95", got.p95, want.p95),
            ("p99", got.p99, want.p99),
            ("max", got.max, want.max),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{name} of {counts:?}");
        }
    }

    #[test]
    fn counts_quantiles_match_expanded_samples() {
        // Edge rows: empty, all zero, one sample, all mass at one delay,
        // a long tail behind a heavy head.
        assert_counts_match_samples(&[]);
        assert_counts_match_samples(&[0, 0, 0]);
        assert_eq!(Quantiles::from_counts(&[0, 0]), Quantiles::default());
        assert_counts_match_samples(&[0, 1]);
        assert_counts_match_samples(&[0, 0, 0, 0, 0, 0, 0, 5_000]);
        let mut tail = vec![0u64; 2_072];
        tail[1] = 90_000;
        tail[2] = 6_000;
        for v in (3..tail.len()).step_by(11) {
            tail[v] = 1 + (v as u64 % 3);
        }
        assert_counts_match_samples(&tail);

        // Seeded random rows (splitmix64) of varied length and density.
        let mut state = 5u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..500 {
            let len = 1 + (next() % 64) as usize;
            let row: Vec<u64> = (0..len)
                .map(|_| match next() % 4 {
                    0 => 0,
                    1 => next() % 3,
                    _ => next() % 200,
                })
                .collect();
            assert_counts_match_samples(&row);
        }
    }

    #[test]
    fn unsorted_input() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantiles().max, 5.0);
    }
}
