//! Streaming summaries, order statistics and histograms.

/// Streaming univariate summary using Welford's online algorithm.
///
/// Collects count, mean, variance, min and max in one pass without storing
/// samples; `Extend`/`FromIterator` make it pleasant to use with iterators.
///
/// # Examples
///
/// ```
/// use stt_stats::Summary;
///
/// let summary: Summary = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
/// assert_eq!(summary.len(), 4);
/// assert!((summary.mean() - 2.5).abs() < 1e-12);
/// assert!((summary.std_dev() - 1.2909944487358056).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// `true` when no observations have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean.
    ///
    /// Returns `NaN` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance.
    ///
    /// Returns `NaN` with fewer than two observations.
    #[must_use]
    fn variance(&self) -> f64 {
        if self.count < 2 {
            f64::NAN
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Unbiased sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let combined_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean = combined_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut summary = Self::new();
        summary.extend(iter);
        summary
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of a slice by linear interpolation
/// between order statistics (type-7, the R/NumPy default).
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile order must be in [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let position = q * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    if lower == upper {
        sorted[lower]
    } else {
        let t = position - lower as f64;
        sorted[lower] * (1.0 - t) + sorted[upper] * t
    }
}

/// A fixed-range, equal-width histogram.
///
/// Out-of-range observations are counted in saturating edge bins so no data
/// is silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[low, high)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `bins == 0`.
    #[must_use]
    pub fn new(low: f64, high: f64, bins: usize) -> Self {
        assert!(low < high, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            low,
            high,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.low {
            self.underflow += 1;
        } else if x >= self.high {
            self.overflow += 1;
        } else {
            let width = (self.high - self.low) / self.counts.len() as f64;
            let bin = ((x - self.low) / width) as usize;
            // Floating-point edge case: x infinitesimally below `high` can
            // round to `len` after division.
            let bin = bin.min(self.counts.len() - 1);
            self.counts[bin] += 1;
        }
    }

    /// Per-bin counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations at or above the range's upper edge.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of observations, including out-of-range ones.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Merges another histogram with identical range and binning into this
    /// one (used to combine per-bank telemetry into aggregate telemetry).
    ///
    /// # Panics
    ///
    /// Panics if the two histograms disagree on range or bin count.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.low == other.low
                && self.high == other.high
                && self.counts.len() == other.counts.len(),
            "can only merge histograms with identical binning"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

impl Extend<f64> for Histogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_of_known_values() {
        let summary: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(summary.len(), 8);
        assert!((summary.mean() - 5.0).abs() < 1e-12);
        assert!((summary.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(summary.min(), 2.0);
        assert_eq!(summary.max(), 9.0);
    }

    #[test]
    fn empty_summary_is_nan() {
        let summary = Summary::new();
        assert!(summary.is_empty());
        assert!(summary.mean().is_nan());
        assert!(summary.variance().is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|k| (k as f64).sin() * 10.0).collect();
        let whole: Summary = data.iter().copied().collect();
        let mut left: Summary = data[..37].iter().copied().collect();
        let right: Summary = data[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.len(), whole.len());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut summary: Summary = [1.0, 2.0].into_iter().collect();
        let before = summary;
        summary.merge(&Summary::new());
        assert_eq!(summary, before);
        let mut empty = Summary::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn quantiles_of_known_values() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 5.0);
        assert_eq!(quantile(&data, 0.5), 3.0);
        assert!((quantile(&data, 0.25) - 2.0).abs() < 1e-12);
        assert!((quantile(&data, 0.1) - 1.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn quantile_rejects_empty() {
        let _ = quantile(&[], 0.5);
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut hist = Histogram::new(0.0, 10.0, 5);
        // Five 2-wide bins: 2.5 lands in [2, 4) and 9.99 in [8, 10), while
        // the high edge 10.0 is already overflow.
        hist.extend([0.5, 1.0, 2.5, 9.99, -1.0, 10.0, 25.0]);
        assert_eq!(hist.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(hist.underflow, 1);
        assert_eq!(hist.overflow(), 2);
        assert_eq!(hist.total(), 7);
    }

    #[test]
    fn histogram_merge_matches_sequential_fill() {
        let mut left = Histogram::new(0.0, 10.0, 5);
        let mut right = Histogram::new(0.0, 10.0, 5);
        let mut both = Histogram::new(0.0, 10.0, 5);
        for (k, x) in [-1.0, 0.5, 3.0, 7.0, 9.9, 11.0, 4.0].iter().enumerate() {
            if k % 2 == 0 {
                left.push(*x);
            } else {
                right.push(*x);
            }
            both.push(*x);
        }
        left.merge(&right);
        assert_eq!(left, both);
    }

    #[test]
    #[should_panic(expected = "identical binning")]
    fn histogram_merge_rejects_mismatched_bins() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 4);
        a.merge(&b);
    }

    proptest! {
        #[test]
        fn prop_summary_mean_within_bounds(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let summary: Summary = data.iter().copied().collect();
            prop_assert!(summary.mean() >= summary.min() - 1e-9);
            prop_assert!(summary.mean() <= summary.max() + 1e-9);
        }

        #[test]
        fn prop_merge_matches_sequential(
            left in proptest::collection::vec(-1e3f64..1e3, 0..100),
            right in proptest::collection::vec(-1e3f64..1e3, 0..100),
        ) {
            let combined: Summary = left.iter().chain(right.iter()).copied().collect();
            let mut merged: Summary = left.iter().copied().collect();
            merged.merge(&right.iter().copied().collect());
            prop_assert_eq!(merged.len(), combined.len());
            if !combined.is_empty() {
                prop_assert!((merged.mean() - combined.mean()).abs() < 1e-9);
            }
            if combined.len() > 1 {
                prop_assert!((merged.variance() - combined.variance()).abs() < 1e-7);
            }
        }

        #[test]
        fn prop_quantile_monotone(
            data in proptest::collection::vec(-1e3f64..1e3, 1..100),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile(&data, lo) <= quantile(&data, hi) + 1e-12);
        }

        #[test]
        fn prop_histogram_conserves_count(data in proptest::collection::vec(-20.0f64..20.0, 0..300)) {
            let mut hist = Histogram::new(-5.0, 5.0, 7);
            hist.extend(data.iter().copied());
            prop_assert_eq!(hist.total(), data.len() as u64);
        }
    }
}
