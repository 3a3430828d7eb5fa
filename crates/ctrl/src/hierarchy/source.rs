//! The closed-loop traffic source: a window-limited client population.
//!
//! Open-loop replay (a trace with fixed arrival timestamps) keeps offering
//! work no matter how far behind the memory falls — useful for measuring
//! saturation, wrong for locating it, because a real host *reacts*: once
//! its outstanding-request window fills, it stops issuing until something
//! completes. This source models exactly that reaction. Each channel gets
//! an independent copy: up to `window` transactions outstanding, a new one
//! issued after an exponential think gap whenever the window has room, and
//! — crucially — when the window is full the source goes quiet and is
//! *woken by the next completion*, so its issue rate is governed by the
//! memory's service rate. Sweeping `window` traces out the classic
//! throughput/latency curve whose knee `trafficsim --topology-sweep`
//! reports per sensing scheme.
//!
//! Determinism: every channel draws from its own RNG stream, seeded from
//! `(source seed, channel)` with the same SplitMix64 scrambling banks use,
//! and all draws happen inside the channel's own event loop — so sharded
//! execution issues the exact same transactions at the exact same times as
//! serial execution.

use rand::rngs::StdRng;
use rand::Rng;
use stt_array::Address;

use crate::txn::Transaction;

use super::topology::Geometry;

/// Seed salt for the per-channel source RNG streams (distinct from every
/// bank stream by construction: SplitMix64 scrambles the salted seed).
const SOURCE_STREAM: u64 = 0x434c_4f53_4544_4c50;

/// A per-channel window-limited traffic source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopSource {
    /// Transactions each channel's source issues before retiring.
    pub ops_per_channel: usize,
    /// Maximum outstanding (issued, not yet completed) transactions per
    /// channel — the backpressure window.
    pub window: usize,
    /// Mean exponential think gap between issue opportunities
    /// (nanoseconds).
    pub mean_think_ns: f64,
    /// Fraction of issued transactions that are reads (`0.0..=1.0`).
    pub read_fraction: f64,
    /// Seed of the per-channel source streams (independent of the chip
    /// seed, so the same traffic can drive differently-seeded arrays).
    pub seed: u64,
}

impl ClosedLoopSource {
    /// A read-mostly source with a given window: 90 % reads, 40 ns mean
    /// think time — light enough that small windows leave the chip idle
    /// and large windows saturate the channel bus, so a window sweep
    /// brackets the knee.
    #[must_use]
    pub fn read_mostly(ops_per_channel: usize, window: usize) -> Self {
        Self {
            ops_per_channel,
            window,
            mean_think_ns: 40.0,
            read_fraction: 0.9,
            seed: 2010,
        }
    }

    /// Overrides the outstanding-request window.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Overrides the mean think gap.
    #[must_use]
    pub fn with_mean_think_ns(mut self, mean_think_ns: f64) -> Self {
        self.mean_think_ns = mean_think_ns;
        self
    }

    /// Overrides the source seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero, the think gap is not positive and
    /// finite, or the read fraction leaves `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.window > 0,
            "a closed loop needs a window of at least 1"
        );
        assert!(
            self.mean_think_ns.is_finite() && self.mean_think_ns > 0.0,
            "mean think gap must be positive and finite, got {}",
            self.mean_think_ns
        );
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "read fraction {} outside [0, 1]",
            self.read_fraction
        );
    }

    /// The RNG stream of channel `channel`'s source.
    #[must_use]
    pub(crate) fn rng(&self, channel: usize) -> StdRng {
        stt_stats::trial_rng(self.seed ^ SOURCE_STREAM, channel)
    }

    /// One exponential think gap (nanoseconds).
    pub(crate) fn next_think_ns(&self, rng: &mut StdRng) -> f64 {
        // Inverse-CDF with the open-interval guard: gen::<f64>() ∈ [0, 1).
        -self.mean_think_ns * (1.0 - rng.gen::<f64>()).ln()
    }

    /// Draws the next transaction for channel `channel`: a uniformly random
    /// cell *within the channel's own slice* of the chip (each channel
    /// loads only itself, which is what keeps channels shareable across
    /// worker threads with no cross-talk).
    pub(crate) fn next_txn(
        &self,
        geometry: &Geometry,
        channel: usize,
        rng: &mut StdRng,
    ) -> Transaction {
        let per_channel = geometry.topology.banks_per_channel();
        let local_bank = rng.gen_range(0..per_channel);
        let bank = channel * per_channel + local_bank;
        let addr = Address::new(
            rng.gen_range(0..geometry.rows),
            rng.gen_range(0..geometry.cols),
        );
        if rng.gen_bool(self.read_fraction) {
            Transaction::read(bank, addr)
        } else {
            Transaction::write(bank, addr, rng.gen_bool(0.5))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Topology;

    #[test]
    fn draws_are_deterministic_per_channel_and_stay_in_range() {
        let geometry = Geometry::new(Topology::new(2, 1, 2, 2), 8, 8);
        let source = ClosedLoopSource::read_mostly(100, 4);
        for channel in 0..2 {
            let mut a = source.rng(channel);
            let mut b = source.rng(channel);
            for _ in 0..200 {
                let (ta, tb) = (
                    source.next_txn(&geometry, channel, &mut a),
                    source.next_txn(&geometry, channel, &mut b),
                );
                assert_eq!(ta, tb);
                assert_eq!(
                    geometry.topology.coord(ta.bank).channel,
                    channel,
                    "a channel's source must only load its own banks"
                );
                assert!(ta.addr.row < geometry.rows && ta.addr.col < geometry.cols);
                let gap = source.next_think_ns(&mut a);
                assert_eq!(gap, source.next_think_ns(&mut b));
                assert!(gap.is_finite() && gap >= 0.0);
            }
        }
    }

    #[test]
    fn channels_draw_distinct_streams() {
        let geometry = Geometry::new(Topology::new(2, 1, 2, 2), 8, 8);
        let source = ClosedLoopSource::read_mostly(100, 4);
        let series = |channel: usize| {
            let mut rng = source.rng(channel);
            (0..50)
                .map(|_| source.next_txn(&geometry, channel, &mut rng))
                .collect::<Vec<_>>()
        };
        let (a, b) = (series(0), series(1));
        assert!(
            a.iter()
                .zip(&b)
                .any(|(ta, tb)| ta.addr != tb.addr || ta.op != tb.op),
            "channel streams must not mirror each other"
        );
    }

    #[test]
    #[should_panic(expected = "window of at least 1")]
    fn zero_window_is_rejected() {
        ClosedLoopSource::read_mostly(10, 4)
            .with_window(0)
            .validate();
    }

    #[test]
    #[should_panic(expected = "think gap")]
    fn non_positive_think_gap_is_rejected() {
        ClosedLoopSource::read_mostly(10, 4)
            .with_mean_think_ns(0.0)
            .validate();
    }
}
