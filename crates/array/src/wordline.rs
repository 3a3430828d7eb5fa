//! Word-line and decoder timing.
//!
//! The read sequence begins with row/column decode and word-line assertion
//! (the paper's Fig. 9 holds WL high for the entire operation). Two effects
//! bound how fast that can happen:
//!
//! * the **decoder tree**: a `log₄`-deep chain of predecode gates whose
//!   delay grows with array size;
//! * the **word-line RC**: the WL is a distributed line loaded by one
//!   access-transistor gate per column, so the *far* cell's gate arrives
//!   late — the WL Elmore delay must fit inside the decode slot of
//!   `ChipTiming` or the first read would sample a half-selected cell.

use stt_mna::RcLadder;
use stt_units::{Farads, Ohms, Seconds};

/// Electrical description of one word-line and its decoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WordlineSpec {
    /// Cells (columns) driven by the line.
    pub cells_per_wordline: usize,
    /// Metal resistance per cell pitch.
    pub segment_resistance: Ohms,
    /// Wire capacitance per cell pitch.
    pub segment_capacitance: Farads,
    /// Gate capacitance of one access transistor.
    pub gate_capacitance: Farads,
    /// Delay of one decoder stage (a predecode gate + buffer).
    pub decoder_stage_delay: Seconds,
    /// Fan-in of each decoder stage (4 = two address bits per stage).
    pub decoder_fan_in: usize,
    /// Word-line driver output resistance.
    pub driver_resistance: Ohms,
}

impl WordlineSpec {
    /// The chip calibration: 128 cells per word-line, 2 Ω / 0.5 fF of wire
    /// per pitch, 1.2 fF per access gate (the cell transistor is sized up
    /// for its 917 Ω on-resistance), 120 ps per decode stage (fan-in 4),
    /// 1 kΩ driver.
    #[must_use]
    pub fn date2010_chip() -> Self {
        Self {
            cells_per_wordline: 128,
            segment_resistance: Ohms::new(2.0),
            segment_capacitance: Farads::from_femto(0.5),
            gate_capacitance: Farads::from_femto(1.2),
            decoder_stage_delay: Seconds::from_pico(120.0),
            decoder_fan_in: 4,
            driver_resistance: Ohms::from_kilo(1.0),
        }
    }

    /// The distributed word-line as an RC ladder: the driver resistance in
    /// front, then one segment per cell pitch, each node loaded by wire +
    /// gate capacitance.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no cells.
    #[must_use]
    pub fn ladder(&self) -> RcLadder {
        assert!(self.cells_per_wordline > 0, "word-line needs cells");
        RcLadder::uniform(
            self.cells_per_wordline,
            self.segment_resistance,
            self.segment_capacitance + self.gate_capacitance,
        )
    }

    /// Elmore delay from the driver input to the *far* cell's gate,
    /// including the driver resistance charging the whole line.
    fn wordline_delay(&self) -> Seconds {
        let ladder = self.ladder();
        let wire = ladder.elmore_delay();
        // The driver sees every capacitance on the line through its own
        // output resistance: Elmore adds R_drv × C_total up front.
        let driver = self.driver_resistance * ladder.total_capacitance();
        wire + driver
    }

    /// Number of decoder stages needed to resolve `rows` word-lines with
    /// the configured fan-in.
    ///
    /// # Panics
    ///
    /// Panics if `rows < 2` or the fan-in is less than 2.
    fn decoder_stages(&self, rows: usize) -> usize {
        assert!(rows >= 2, "a decoder needs at least two rows");
        assert!(
            self.decoder_fan_in >= 2,
            "decoder fan-in must be at least 2"
        );
        let mut stages = 0;
        let mut resolved = 1usize;
        while resolved < rows {
            resolved = resolved.saturating_mul(self.decoder_fan_in);
            stages += 1;
        }
        stages
    }

    /// End-to-end decode + word-line assertion time for an array of `rows`
    /// word-lines: decoder tree plus the far-cell WL delay.
    #[must_use]
    pub fn decode_time(&self, rows: usize) -> Seconds {
        self.decoder_stage_delay * self.decoder_stages(rows) as f64 + self.wordline_delay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> WordlineSpec {
        WordlineSpec::date2010_chip()
    }

    #[test]
    fn decoder_depth_is_logarithmic() {
        let spec = spec();
        assert_eq!(spec.decoder_stages(4), 1);
        assert_eq!(spec.decoder_stages(16), 2);
        assert_eq!(spec.decoder_stages(128), 4); // 4^3 = 64 < 128 ≤ 256 = 4^4
        assert_eq!(spec.decoder_stages(256), 4);
        assert_eq!(spec.decoder_stages(257), 5);
    }

    #[test]
    fn wordline_delay_fits_the_decode_slot() {
        // The ChipTiming decode slot is 1 ns; the 128-cell chip must decode
        // and assert WL comfortably inside it.
        let spec = spec();
        let decode = spec.decode_time(128);
        assert!(
            decode.get() < 1e-9,
            "decode {decode} must fit the 1 ns slot"
        );
        // But it is not trivially zero either: driver × ~218 fF ≈ 0.22 ns
        // plus four decoder stages.
        assert!(decode.get() > 0.3e-9, "decode {decode} suspiciously fast");
    }

    #[test]
    fn gate_load_dominates_the_wire() {
        let spec = spec();
        let loaded = spec.wordline_delay();
        let mut unloaded_spec = spec;
        unloaded_spec.gate_capacitance = Farads::from_femto(0.0001);
        let unloaded = unloaded_spec.wordline_delay();
        assert!(
            loaded.get() > 2.0 * unloaded.get(),
            "gates must dominate: {loaded} vs wire-only {unloaded}"
        );
    }

    #[test]
    fn bigger_arrays_decode_slower() {
        let spec = spec();
        assert!(spec.decode_time(1024) > spec.decode_time(128));
    }

    proptest! {
        #[test]
        fn prop_decoder_stages_cover_rows(rows in 2usize..100_000) {
            let spec = spec();
            let stages = spec.decoder_stages(rows);
            prop_assert!(spec.decoder_fan_in.pow(stages as u32) >= rows);
            if stages > 1 {
                prop_assert!(spec.decoder_fan_in.pow(stages as u32 - 1) < rows);
            }
        }

        #[test]
        fn prop_wordline_delay_monotone_in_length(cells in 2usize..512) {
            let mut short = spec();
            short.cells_per_wordline = cells;
            let mut long = spec();
            long.cells_per_wordline = cells + 64;
            prop_assert!(long.wordline_delay() > short.wordline_delay());
        }
    }
}
