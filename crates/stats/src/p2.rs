//! Fixed-memory streaming quantile estimation (the P² algorithm).
//!
//! Jain & Chlamtac's P² ("piecewise-parabolic") estimator tracks a single
//! quantile of a stream in O(1) memory: five *markers* whose heights bracket
//! the target quantile and whose positions are nudged toward their ideal
//! ranks after every observation, interpolating heights with a parabolic
//! (falling back to linear) formula. The telemetry layer uses it to report
//! sojourn p50/p95/p99 without the per-transaction `Vec<f64>` growth that an
//! exact estimate requires.
//!
//! Accuracy contract (documented for consumers in DESIGN.md §12):
//!
//! * With fewer than five observations the estimate is **exact** (computed
//!   from the sorted sample set).
//! * Beyond that the estimate is an approximation whose error shrinks as the
//!   stream grows; for unimodal latency-shaped distributions the relative
//!   error at n ≥ 1000 is typically well under a few percent, but it is
//!   *not* an order statistic — tests that assert exact sample quantiles
//!   must apply [`quantile`](crate::quantile) to the samples themselves.
//! * The estimate is a **pure function of the observation sequence**: two
//!   identical streams produce bit-identical estimators, so equality
//!   comparisons between deterministic replays remain valid.

/// Streaming estimator for one quantile `q` in five f64 markers (P²).
///
/// ```
/// use stt_stats::P2Quantile;
///
/// let mut p50 = P2Quantile::new(0.5);
/// for i in 1..=1000 {
///     p50.observe(f64::from(i));
/// }
/// let est = p50.estimate().unwrap();
/// assert!((est - 500.0).abs() < 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2Quantile {
    q: f64,
    count: u64,
    /// Marker heights, sorted ascending.
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks within the stream so far).
    positions: [f64; 5],
    /// Ideal (desired) positions for each marker.
    desired: [f64; 5],
}

impl P2Quantile {
    /// New estimator for quantile `q` (exclusive bounds: `0 < q < 1`).
    ///
    /// # Panics
    /// Panics when `q` is not strictly inside `(0, 1)` or is NaN.
    #[must_use]
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        Self {
            q,
            count: 0,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
        }
    }

    /// The quantile this estimator tracks.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Number of observations folded in so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold one observation into the estimator.
    ///
    /// # Panics
    /// Panics on NaN input (a NaN would poison every later comparison).
    pub fn observe(&mut self, x: f64) {
        assert!(!x.is_nan(), "P2Quantile cannot observe NaN");
        if self.count < 5 {
            // Warm-up: insertion-sort into the marker array.
            let n = self.count as usize;
            let mut i = n;
            while i > 0 && self.heights[i - 1] > x {
                self.heights[i] = self.heights[i - 1];
                i -= 1;
            }
            self.heights[i] = x;
            self.count += 1;
            return;
        }

        // Locate the cell k such that heights[k] <= x < heights[k+1],
        // clamping x into the observed range (extreme markers track min/max).
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else if x < self.heights[1] {
            0
        } else if x < self.heights[2] {
            1
        } else if x < self.heights[3] {
            2
        } else {
            3
        };

        for p in &mut self.positions[k + 1..] {
            *p += 1.0;
        }
        self.desired[1] += self.q / 2.0;
        self.desired[2] += self.q;
        self.desired[3] += (1.0 + self.q) / 2.0;
        self.desired[4] += 1.0;
        self.count += 1;

        // Nudge the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let step_up = self.positions[i + 1] - self.positions[i] > 1.0;
            let step_down = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && step_up) || (d <= -1.0 && step_down) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                let within = self.heights[i - 1] < candidate && candidate < self.heights[i + 1];
                self.heights[i] = if within { candidate } else { self.linear(i, d) };
                self.positions[i] += d;
            }
        }
    }

    /// Piecewise-parabolic height update for marker `i`, moving by `d` (±1).
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (pm, p, pp) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        h + d / (pp - pm)
            * ((p - pm + d) * (hp - h) / (pp - p) + (pp - p - d) * (h - hm) / (p - pm))
    }

    /// Linear fallback when the parabolic candidate would break monotonicity.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate, or `None` before any observation.
    ///
    /// Exact for fewer than five observations, P² approximation beyond.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n @ 1..=4 => {
                let sorted = &self.heights[..n as usize];
                Some(crate::quantile(sorted, self.q))
            }
            _ => Some(self.heights[2]),
        }
    }

    /// Fold another estimator for the **same quantile** into this one.
    ///
    /// P² has no exact merge; this uses the documented approximation of
    /// count-weighted marker-height averaging (positions and counts sum),
    /// which is deterministic and keeps the heights sorted. When either side
    /// is still in its exact warm-up phase its raw samples are re-observed
    /// instead, so small estimators merge losslessly.
    ///
    /// # Panics
    /// Panics when the two estimators track different quantiles.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            (self.q - other.q).abs() < f64::EPSILON,
            "cannot merge P2 estimators for different quantiles ({} vs {})",
            self.q,
            other.q
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        if other.count < 5 {
            for &x in &other.heights[..other.count as usize] {
                self.observe(x);
            }
            return;
        }
        if self.count < 5 {
            let mut merged = *other;
            for &x in &self.heights[..self.count as usize] {
                merged.observe(x);
            }
            *self = merged;
            return;
        }
        let (ws, wo) = (self.count as f64, other.count as f64);
        for i in 0..5 {
            self.heights[i] = (self.heights[i] * ws + other.heights[i] * wo) / (ws + wo);
            self.positions[i] += other.positions[i];
            self.desired[i] += other.desired[i];
        }
        // Re-anchor the desired endpoints: desired[0] stays rank 1.
        self.desired[0] = 1.0;
        self.positions[0] = 1.0;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_five_samples() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), None);
        p.observe(10.0);
        assert_eq!(p.estimate(), Some(10.0));
        p.observe(30.0);
        p.observe(20.0);
        // Median of {10, 20, 30} is 20 exactly.
        assert_eq!(p.estimate(), Some(20.0));
    }

    #[test]
    fn converges_on_uniform_stream() {
        let mut p95 = P2Quantile::new(0.95);
        // Deterministic low-discrepancy scan of (0, 1000).
        let mut x = 0.0_f64;
        for _ in 0..10_000 {
            x = (x + 618.033_988_75).rem_euclid(1000.0);
            p95.observe(x);
        }
        let est = p95.estimate().unwrap();
        assert!((est - 950.0).abs() < 20.0, "p95 estimate {est}");
    }

    #[test]
    fn deterministic_replay_is_bit_identical() {
        let feed = |p: &mut P2Quantile| {
            let mut x = 3.7_f64;
            for _ in 0..500 {
                x = (x * 1.1).rem_euclid(97.0);
                p.observe(x);
            }
        };
        let mut a = P2Quantile::new(0.99);
        let mut b = P2Quantile::new(0.99);
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn tracks_min_and_max_markers() {
        let mut p = P2Quantile::new(0.5);
        for x in [5.0, 1.0, 9.0, 3.0, 7.0, 0.5, 11.0] {
            p.observe(x);
        }
        assert_eq!(p.heights[0], 0.5);
        assert_eq!(p.heights[4], 11.0);
    }

    #[test]
    fn merge_of_warmup_estimators_is_lossless() {
        let mut a = P2Quantile::new(0.5);
        let mut b = P2Quantile::new(0.5);
        a.observe(1.0);
        a.observe(2.0);
        b.observe(3.0);
        b.observe(4.0);
        a.merge(&b);
        // Median of {1, 2, 3, 4}.
        assert_eq!(a.estimate(), Some(2.5));
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn merge_weights_by_count() {
        let big = {
            let mut p = P2Quantile::new(0.5);
            for i in 0..1000 {
                p.observe(f64::from(i % 100));
            }
            p
        };
        let mut merged = big;
        merged.merge(&big);
        let (a, b) = (big.estimate().unwrap(), merged.estimate().unwrap());
        // Merging two copies of the same stream should not move the estimate.
        assert!((a - b).abs() < 1e-9);
        assert_eq!(merged.count(), 2000);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1)")]
    fn rejects_out_of_range_q() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    #[should_panic(expected = "cannot observe NaN")]
    fn rejects_nan() {
        let mut p = P2Quantile::new(0.5);
        p.observe(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "different quantiles")]
    fn merge_rejects_mismatched_q() {
        let mut a = P2Quantile::new(0.5);
        a.merge(&P2Quantile::new(0.95));
    }
}
