//! Pass/fail yield accounting with confidence intervals.
//!
//! Used by the Fig. 11 chip experiment: out of 16384 bits, how many are read
//! correctly by each scheme, and is a "≈1 %" failure rate statistically
//! distinguishable from zero?

/// A tally of pass/fail outcomes.
///
/// # Examples
///
/// ```
/// use stt_stats::YieldCount;
///
/// let mut tally = YieldCount::new();
/// for bit in 0..100 {
///     tally.record(bit != 13); // one failing bit
/// }
/// assert_eq!(tally.failures(), 1);
/// assert!((tally.failure_rate() - 0.01).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct YieldCount {
    passes: u64,
    failures: u64,
}

impl YieldCount {
    /// Creates an empty tally.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one outcome (`true` = pass).
    pub fn record(&mut self, pass: bool) {
        if pass {
            self.passes += 1;
        } else {
            self.failures += 1;
        }
    }

    /// Number of passing outcomes.
    #[must_use]
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Number of failing outcomes.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Total outcomes recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.passes + self.failures
    }

    /// Fraction of failing outcomes.
    ///
    /// Returns `NaN` when empty.
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        if self.total() == 0 {
            f64::NAN
        } else {
            self.failures as f64 / self.total() as f64
        }
    }

    /// Wilson score interval for the failure rate at the given two-sided
    /// confidence level.
    ///
    /// The Wilson interval behaves sensibly at the extremes that matter
    /// here: zero observed failures out of 16384 still yields a nonzero
    /// upper bound, which is exactly the statement "all measured bits
    /// passed" supports.
    ///
    /// # Panics
    ///
    /// Panics if the tally is empty or `confidence` is not in `(0, 1)`.
    #[must_use]
    pub fn failure_interval(&self, confidence: f64) -> WilsonInterval {
        assert!(self.total() > 0, "no outcomes recorded");
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        let z = crate::dist::normal_quantile(0.5 + confidence / 2.0);
        let n = self.total() as f64;
        let p = self.failure_rate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
        // At the extremes the exact bounds are 0/1; floating-point rounding
        // in `centre ± half` must not exclude the point estimate there.
        let low = if self.failures == 0 {
            0.0
        } else {
            (centre - half).max(0.0)
        };
        let high = if self.passes == 0 {
            1.0
        } else {
            (centre + half).min(1.0)
        };
        WilsonInterval { low, high }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &YieldCount) {
        self.passes += other.passes;
        self.failures += other.failures;
    }
}

impl Extend<bool> for YieldCount {
    fn extend<T: IntoIterator<Item = bool>>(&mut self, iter: T) {
        for pass in iter {
            self.record(pass);
        }
    }
}

impl FromIterator<bool> for YieldCount {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut tally = Self::new();
        tally.extend(iter);
        tally
    }
}

/// A two-sided Wilson score interval on a proportion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WilsonInterval {
    /// Lower bound (clamped to 0).
    pub low: f64,
    /// Upper bound (clamped to 1).
    pub high: f64,
}

impl WilsonInterval {
    /// `true` when `rate` falls inside the interval.
    #[must_use]
    pub fn contains(&self, rate: f64) -> bool {
        (self.low..=self.high).contains(&rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tally_counts() {
        let tally: YieldCount = [true, true, false, true].into_iter().collect();
        assert_eq!(tally.passes(), 3);
        assert_eq!(tally.failures(), 1);
        assert_eq!(tally.total(), 4);
        assert!((tally.failure_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_failures_still_has_nonzero_upper_bound() {
        let mut tally = YieldCount::new();
        for _ in 0..16384 {
            tally.record(true);
        }
        let interval = tally.failure_interval(0.95);
        assert_eq!(interval.low, 0.0);
        assert!(interval.high > 0.0);
        assert!(interval.high < 5e-4, "upper bound {}", interval.high);
    }

    #[test]
    fn one_percent_failures_excludes_zero() {
        let mut tally = YieldCount::new();
        for k in 0..16384u64 {
            tally.record(k % 100 != 0);
        }
        let interval = tally.failure_interval(0.95);
        assert!(interval.low > 0.0, "1% of 16k bits is clearly nonzero");
        assert!(interval.contains(tally.failure_rate()));
    }

    #[test]
    fn wilson_matches_textbook_value() {
        // 10 failures in 100 trials at 95%: Wilson interval ≈ (0.0552, 0.1744).
        let mut tally = YieldCount::new();
        for k in 0..100u64 {
            tally.record(k >= 10);
        }
        let interval = tally.failure_interval(0.95);
        assert!(
            (interval.low - 0.0552).abs() < 0.001,
            "low {}",
            interval.low
        );
        assert!(
            (interval.high - 0.1744).abs() < 0.001,
            "high {}",
            interval.high
        );
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: YieldCount = [true, false].into_iter().collect();
        let b: YieldCount = [true, true, false].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.passes(), 3);
        assert_eq!(a.failures(), 2);
    }

    #[test]
    #[should_panic(expected = "no outcomes")]
    fn interval_rejects_empty_tally() {
        let _ = YieldCount::new().failure_interval(0.95);
    }

    proptest! {
        #[test]
        fn prop_interval_contains_point_estimate(
            passes in 0u64..1000, failures in 0u64..1000, conf in 0.5f64..0.999,
        ) {
            prop_assume!(passes + failures > 0);
            let tally = YieldCount { passes, failures };
            let interval = tally.failure_interval(conf);
            prop_assert!(interval.contains(tally.failure_rate()));
            prop_assert!(interval.low >= 0.0 && interval.high <= 1.0);
        }

        #[test]
        fn prop_wider_confidence_wider_interval(
            passes in 1u64..1000, failures in 0u64..1000,
        ) {
            let tally = YieldCount { passes, failures };
            let narrow = tally.failure_interval(0.8);
            let wide = tally.failure_interval(0.99);
            prop_assert!(wide.low <= narrow.low + 1e-12);
            prop_assert!(wide.high >= narrow.high - 1e-12);
        }
    }
}
