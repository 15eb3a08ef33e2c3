//! Electricity tariffs: the price signal `φ_i(t)` (§III-A.2).
//!
//! The paper's primary model is a flat per-slot price (the cost of consuming
//! `e` units of energy during the slot is `φ_i(t) · e`), but it notes that
//! the analysis carries over when "the electricity cost is an increasing and
//! convex function of the energy consumption". [`Tariff`] supports both: a
//! flat rate, and an increasing convex piecewise-linear cost curve.

use crate::ConfigError;

/// One linear segment of a convex piecewise-linear tariff: up to `width`
/// units of energy are billed at marginal price `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TariffSegment {
    /// Energy capacity of the segment. `f64::INFINITY` is allowed for the
    /// final segment.
    pub width: f64,
    /// Marginal price for energy consumed within this segment.
    pub rate: f64,
}

/// Electricity tariff for one data center during one slot — the `φ_i(t)` of
/// §III-A.2, generalized to usage-dependent (convex) pricing.
///
/// # Example
/// ```
/// use grefar_types::Tariff;
///
/// // Flat pricing (the paper's evaluation setting):
/// let flat = Tariff::flat(0.392);
/// assert_eq!(flat.cost(100.0), 39.2);
///
/// // Convex tiered pricing: first 50 units cheap, everything above pricier.
/// let tiered = Tariff::convex(vec![(50.0, 0.3), (f64::INFINITY, 0.6)]).unwrap();
/// assert_eq!(tiered.cost(80.0), 50.0 * 0.3 + 30.0 * 0.6);
/// assert_eq!(tiered.marginal_rate(10.0), 0.3);
/// assert_eq!(tiered.marginal_rate(60.0), 0.6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tariff {
    segments: Vec<TariffSegment>,
}

impl Tariff {
    /// A flat tariff: energy costs `rate` per unit regardless of volume.
    ///
    /// # Panics
    /// Panics if `rate` is negative or non-finite.
    pub fn flat(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "tariff rate must be non-negative and finite, got {rate}"
        );
        Self {
            segments: vec![TariffSegment {
                width: f64::INFINITY,
                rate,
            }],
        }
    }

    /// A convex piecewise-linear tariff given as `(width, rate)` pairs with
    /// non-decreasing rates. Only the last segment may have infinite width;
    /// if the final width is finite, consumption beyond the total width is
    /// billed at the last rate (the curve is extended linearly).
    ///
    /// # Errors
    /// Returns [`ConfigError::InvalidTariff`] if the segment list is empty,
    /// a width is non-positive, a rate is negative/non-finite, rates
    /// decrease, or a non-final width is infinite.
    pub fn convex(segments: Vec<(f64, f64)>) -> Result<Self, ConfigError> {
        if segments.is_empty() {
            return Err(ConfigError::InvalidTariff("no segments".into()));
        }
        let mut prev_rate = 0.0;
        let last = segments.len() - 1;
        for (idx, &(width, rate)) in segments.iter().enumerate() {
            if width <= 0.0 || width.is_nan() {
                return Err(ConfigError::InvalidTariff(format!(
                    "segment {idx} has non-positive width {width}"
                )));
            }
            if width.is_infinite() && idx != last {
                return Err(ConfigError::InvalidTariff(format!(
                    "segment {idx} has infinite width but is not last"
                )));
            }
            if !rate.is_finite() || rate < 0.0 {
                return Err(ConfigError::InvalidTariff(format!(
                    "segment {idx} has invalid rate {rate}"
                )));
            }
            if rate < prev_rate {
                return Err(ConfigError::InvalidTariff(format!(
                    "rates must be non-decreasing for convexity (segment {idx}: {rate} < {prev_rate})"
                )));
            }
            prev_rate = rate;
        }
        Ok(Self {
            segments: segments
                .into_iter()
                .map(|(width, rate)| TariffSegment { width, rate })
                .collect(),
        })
    }

    /// The tariff segments, in order of increasing marginal rate.
    #[inline]
    pub fn segments(&self) -> &[TariffSegment] {
        &self.segments
    }

    /// Returns `true` if this is a single-rate (flat) tariff.
    pub fn is_flat(&self) -> bool {
        self.segments.len() == 1
    }

    /// The flat rate if this tariff is flat, `None` otherwise.
    pub fn flat_rate(&self) -> Option<f64> {
        if self.is_flat() {
            Some(self.segments[0].rate)
        } else {
            None
        }
    }

    /// The base (lowest) marginal rate — used as the scalar "price" when
    /// reporting `φ_i(t)` for flat tariffs.
    pub fn base_rate(&self) -> f64 {
        self.segments[0].rate
    }

    /// This tariff with every marginal rate multiplied by `factor` (price
    /// spikes, currency scaling). Segment widths are unchanged; scaling by
    /// a non-negative factor preserves the non-decreasing rate order, so
    /// the result is still convex.
    ///
    /// # Panics
    /// Panics if `factor` is negative or non-finite.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "tariff scale factor must be non-negative and finite, got {factor}"
        );
        Self {
            segments: self
                .segments
                .iter()
                .map(|s| TariffSegment {
                    width: s.width,
                    rate: s.rate * factor,
                })
                .collect(),
        }
    }

    /// Total cost of consuming `energy` units during the slot. Convex,
    /// non-decreasing and piecewise linear in `energy`.
    ///
    /// Consumption beyond the declared segments is billed at the last rate.
    ///
    /// # Panics
    /// Panics if `energy` is negative or non-finite.
    #[inline]
    pub fn cost(&self, energy: f64) -> f64 {
        assert!(
            energy.is_finite() && energy >= 0.0,
            "energy must be non-negative and finite, got {energy}"
        );
        let mut remaining = energy;
        let mut total = 0.0;
        for seg in &self.segments {
            let used = remaining.min(seg.width);
            total += used * seg.rate;
            remaining -= used;
            if remaining <= 0.0 {
                return total;
            }
        }
        // Beyond the declared curve: extend at the final rate.
        total + remaining * self.segments[self.segments.len() - 1].rate
    }

    /// Marginal price of the next unit of energy at consumption level
    /// `energy` (the right derivative of [`cost`](Self::cost)).
    ///
    /// # Panics
    /// Panics if `energy` is negative or non-finite.
    #[inline]
    pub fn marginal_rate(&self, energy: f64) -> f64 {
        assert!(
            energy.is_finite() && energy >= 0.0,
            "energy must be non-negative and finite, got {energy}"
        );
        let mut level = energy;
        for seg in &self.segments {
            if level < seg.width {
                return seg.rate;
            }
            level -= seg.width;
        }
        self.segments[self.segments.len() - 1].rate
    }
}

impl Default for Tariff {
    /// A zero-cost flat tariff.
    fn default() -> Self {
        Self::flat(0.0)
    }
}

impl core::fmt::Display for Tariff {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.flat_rate() {
            Some(rate) => write!(f, "flat({rate})"),
            None => {
                write!(f, "convex(")?;
                for (i, seg) in self.segments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}@{}", seg.width, seg.rate)?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_cost_is_linear() {
        let t = Tariff::flat(0.5);
        assert_eq!(t.cost(0.0), 0.0);
        assert_eq!(t.cost(10.0), 5.0);
        assert_eq!(t.marginal_rate(123.0), 0.5);
        assert_eq!(t.flat_rate(), Some(0.5));
        assert!(t.is_flat());
    }

    #[test]
    fn convex_cost_accumulates_segments() {
        let t = Tariff::convex(vec![(10.0, 0.2), (10.0, 0.4), (f64::INFINITY, 0.8)]).unwrap();
        assert!(!t.is_flat());
        assert_eq!(t.flat_rate(), None);
        assert_eq!(t.base_rate(), 0.2);
        assert!((t.cost(5.0) - 1.0).abs() < 1e-12);
        assert!((t.cost(15.0) - (2.0 + 2.0)).abs() < 1e-12);
        assert!((t.cost(25.0) - (2.0 + 4.0 + 4.0)).abs() < 1e-12);
        assert_eq!(t.marginal_rate(0.0), 0.2);
        assert_eq!(t.marginal_rate(10.0), 0.4);
        assert_eq!(t.marginal_rate(99.0), 0.8);
    }

    #[test]
    fn finite_final_segment_extends_linearly() {
        let t = Tariff::convex(vec![(10.0, 0.2), (10.0, 0.4)]).unwrap();
        assert!((t.cost(30.0) - (2.0 + 4.0 + 4.0)).abs() < 1e-12);
        assert_eq!(t.marginal_rate(25.0), 0.4);
    }

    #[test]
    fn rejects_decreasing_rates() {
        assert!(Tariff::convex(vec![(10.0, 0.4), (10.0, 0.2)]).is_err());
    }

    #[test]
    fn rejects_empty_and_bad_segments() {
        assert!(Tariff::convex(vec![]).is_err());
        assert!(Tariff::convex(vec![(0.0, 0.2)]).is_err());
        assert!(Tariff::convex(vec![(f64::INFINITY, 0.2), (1.0, 0.4)]).is_err());
        assert!(Tariff::convex(vec![(1.0, f64::NAN)]).is_err());
    }

    #[test]
    fn cost_is_convex_on_grid() {
        let t = Tariff::convex(vec![(5.0, 0.1), (5.0, 0.3), (f64::INFINITY, 0.9)]).unwrap();
        // Discrete convexity: second differences non-negative.
        let vals: Vec<f64> = (0..40).map(|i| t.cost(i as f64 * 0.5)).collect();
        for w in vals.windows(3) {
            assert!(w[2] - 2.0 * w[1] + w[0] >= -1e-12);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Tariff::flat(0.4).to_string(), "flat(0.4)");
        let t = Tariff::convex(vec![(1.0, 0.1), (f64::INFINITY, 0.2)]).unwrap();
        assert_eq!(t.to_string(), "convex(1@0.1, inf@0.2)");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn cost_rejects_negative_energy() {
        let _ = Tariff::flat(1.0).cost(-1.0);
    }
}
