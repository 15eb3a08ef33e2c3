//! Percentiles, the tail-percentile rule, and run-to-run spread.

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported: a percentile read off fewer is an anecdote, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles tried, highest first.
const TAILS: [u32; 3] = [99, 95, 90];

/// Nearest-rank percentile `q` (0 < q ≤ 100) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // q·n before the division keeps integer percentiles exact.
    let rank = (q * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
fn beyond(n: usize, q: u32) -> usize {
    n.saturating_sub((q as usize * n).div_ceil(100).max(1))
}

/// A tail percentile chosen by the reporting rule: the highest of
/// p99/p95/p90 with at least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub quantile: u32,
    pub value: f64,
    pub samples: usize,
}

/// Applies the tail rule to ascending `sorted` samples; `None` (refused)
/// when even p90 has fewer than [`MIN_BEYOND`] samples beyond it.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAILS
        .iter()
        .find(|&&q| beyond(n, q) >= MIN_BEYOND)
        .map(|&q| Tail {
            quantile: q,
            value: percentile(sorted, f64::from(q)).unwrap_or(f64::NAN),
            samples: n,
        })
}

/// The median of per-repetition tails. Every repetition must have
/// resolved the same percentile; `None` when none resolved one.
pub fn median_tail(tails: &[Tail]) -> Option<Tail> {
    let first = tails.first()?;
    if tails.iter().any(|t| t.quantile != first.quantile) {
        return None;
    }
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Tail {
        quantile: first.quantile,
        value: median(&values)?,
        samples: tails.iter().map(|t| t.samples).sum(),
    })
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method that Python's
/// `statistics.quantiles(values, n=4)` uses; needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k/4 · (n + 1), 1-based, linearly interpolated.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile range as a share of the median, or `None` with fewer
/// than four values (too few for the spread to mean anything).
pub fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990, ten beyond it.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.quantile, t.value, t.samples), (99, 990.0, 1000));
        // 999 samples: p99 has 9 beyond, p95 (rank 950) has 49.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.quantile, t.value), (95, 950.0));
        // 200 samples: p95 has exactly ten beyond.
        assert_eq!(tail(&ramp(200)).unwrap().quantile, 95);
        // 199: p95 has 9 beyond, p90 (rank 180) has 19.
        assert_eq!(tail(&ramp(199)).unwrap().quantile, 90);
        // 100 samples: p90 has exactly ten beyond; 99 is refused.
        assert_eq!(tail(&ramp(100)).unwrap().quantile, 90);
        assert_eq!(tail(&ramp(99)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0]), Some((1.25, 3.75)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(spread(&[1.0, 1.0, 1.0]), None);
        let s = spread(&ramp(10)).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }
}
