//! Elmore delay of distributed RC bit-lines.
//!
//! Section V of the paper argues that the conventional self-reference scheme
//! pays an RC penalty — the sample capacitors C1/C2 hang directly on the
//! bit-line and add to its Elmore delay — whereas the nondestructive scheme's
//! high-impedance voltage divider "does not change the Elmore delay of BL".
//! [`RcLadder`] models the bit-line as a ladder of per-segment resistance
//! and capacitance (one segment per cell pitch) with optional extra taps,
//! and computes the Elmore delay seen at the far end.

use stt_units::{Farads, Ohms, Seconds};

/// A uniform RC ladder with optional extra capacitive loads at given taps.
///
/// Node 0 is the driven end; node `segments` is the far end. Segment `k`
/// connects node `k` to node `k + 1` through the per-segment resistance,
/// and each internal node carries the per-segment capacitance to ground.
///
/// # Examples
///
/// ```
/// use stt_mna::RcLadder;
/// use stt_units::{Farads, Ohms};
///
/// // A 128-cell bit-line with 2 Ω / 1.5 fF per cell pitch.
/// let bitline = RcLadder::uniform(128, Ohms::new(2.0), Farads::from_femto(1.5));
/// let bare = bitline.elmore_delay();
/// // Hanging a 25 fF sample capacitor on the far end slows it down.
/// let loaded = bitline.clone()
///     .with_tap_capacitance(128, Farads::from_femto(25.0))
///     .elmore_delay();
/// assert!(loaded > bare);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RcLadder {
    /// Per-segment series resistance (node k → k+1).
    segment_resistance: Vec<f64>,
    /// Per-node shunt capacitance, indexed 0..=segments (node 0 is driven,
    /// so its capacitance does not contribute to the delay but is kept for
    /// completeness).
    node_capacitance: Vec<f64>,
}

impl RcLadder {
    /// A ladder of `segments` identical sections.
    ///
    /// Each section contributes `r_segment` in series and `c_segment` of
    /// shunt capacitance at its far node.
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0` or either quantity is non-positive.
    #[must_use]
    pub fn uniform(segments: usize, r_segment: Ohms, c_segment: Farads) -> Self {
        assert!(segments > 0, "ladder needs at least one segment");
        assert!(r_segment.get() > 0.0, "segment resistance must be positive");
        assert!(
            c_segment.get() > 0.0,
            "segment capacitance must be positive"
        );
        let mut node_capacitance = vec![c_segment.get(); segments + 1];
        node_capacitance[0] = 0.0; // driven node
        Self {
            segment_resistance: vec![r_segment.get(); segments],
            node_capacitance,
        }
    }

    /// Number of ladder segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segment_resistance.len()
    }

    /// Adds extra capacitance at node `tap` (0 = driven end, `segments` =
    /// far end), returning the modified ladder.
    ///
    /// # Panics
    ///
    /// Panics if `tap` is out of range or the capacitance is negative.
    #[must_use]
    pub fn with_tap_capacitance(mut self, tap: usize, extra: Farads) -> Self {
        assert!(tap < self.node_capacitance.len(), "tap index out of range");
        assert!(extra.get() >= 0.0, "tap capacitance must be non-negative");
        self.node_capacitance[tap] += extra.get();
        self
    }

    /// The Elmore delay from the driven end to the far end:
    /// `τ = Σ_k C_k · R(path to k ∩ path to output)`.
    ///
    /// For a ladder, the shared path resistance to node `k` is simply the
    /// sum of the first `k` segment resistances.
    #[must_use]
    pub fn elmore_delay(&self) -> Seconds {
        let mut upstream = vec![0.0; self.node_capacitance.len()];
        let mut accumulated = 0.0;
        for (k, r) in self.segment_resistance.iter().enumerate() {
            accumulated += r;
            upstream[k + 1] = accumulated;
        }
        let delay = self
            .node_capacitance
            .iter()
            .zip(&upstream)
            .map(|(c, r)| c * r)
            .sum();
        Seconds::new(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_segment_is_rc() {
        let ladder = RcLadder::uniform(1, Ohms::from_kilo(1.0), Farads::from_pico(1.0));
        assert!((ladder.elmore_delay().get() - 1e-9).abs() < 1e-21);
    }

    #[test]
    fn uniform_ladder_closed_form() {
        // τ = R·C · Σ_{k=1..n} k = R·C·n(n+1)/2 for per-segment R, C.
        let n = 128;
        let r = 2.0;
        let c = 1.5e-15;
        let ladder = RcLadder::uniform(n, Ohms::new(r), Farads::new(c));
        let expected = r * c * (n * (n + 1)) as f64 / 2.0;
        assert!((ladder.elmore_delay().get() - expected).abs() < 1e-24);
    }

    #[test]
    fn far_end_tap_adds_full_resistance_times_cap() {
        let ladder = RcLadder::uniform(10, Ohms::new(10.0), Farads::from_femto(1.0));
        let bare = ladder.elmore_delay();
        let extra = Farads::from_femto(25.0);
        let loaded = ladder
            .clone()
            .with_tap_capacitance(10, extra)
            .elmore_delay();
        let expected_increase = Ohms::new(100.0) * extra;
        assert!(((loaded - bare).get() - expected_increase.get()).abs() < 1e-24);
    }

    #[test]
    fn driven_end_tap_is_free() {
        let ladder = RcLadder::uniform(10, Ohms::new(10.0), Farads::from_femto(1.0));
        let bare = ladder.elmore_delay();
        let loaded = ladder
            .clone()
            .with_tap_capacitance(0, Farads::from_pico(1.0))
            .elmore_delay();
        assert_eq!(
            bare, loaded,
            "capacitance at the driver adds no Elmore delay"
        );
    }

    #[test]
    fn totals() {
        let ladder = RcLadder::uniform(4, Ohms::new(5.0), Farads::from_femto(2.0))
            .with_tap_capacitance(4, Farads::from_femto(10.0));
        assert_eq!(ladder.segment_resistance.iter().sum::<f64>(), 20.0);
        assert!((ladder.node_capacitance.iter().sum::<f64>() - 18e-15).abs() < 1e-27);
        assert_eq!(ladder.segments(), 4);
    }

    #[test]
    #[should_panic(expected = "tap index")]
    fn rejects_out_of_range_tap() {
        let _ = RcLadder::uniform(2, Ohms::new(1.0), Farads::new(1e-15))
            .with_tap_capacitance(3, Farads::new(1e-15));
    }

    proptest! {
        #[test]
        fn prop_delay_monotone_in_taps(
            tap in 0usize..11, extra_femto in 0.0f64..100.0,
        ) {
            let ladder = RcLadder::uniform(10, Ohms::new(3.0), Farads::from_femto(1.0));
            let bare = ladder.elmore_delay();
            let loaded = ladder
                .with_tap_capacitance(tap, Farads::from_femto(extra_femto))
                .elmore_delay();
            prop_assert!(loaded >= bare);
        }

        #[test]
        fn prop_delay_scales_linearly_with_resistance(scale in 0.1f64..10.0) {
            let base = RcLadder::uniform(16, Ohms::new(2.0), Farads::from_femto(1.0));
            let scaled = RcLadder::uniform(16, Ohms::new(2.0 * scale), Farads::from_femto(1.0));
            let ratio = scaled.elmore_delay() / base.elmore_delay();
            prop_assert!((ratio - scale).abs() < 1e-9 * scale.max(1.0));
        }
    }
}
