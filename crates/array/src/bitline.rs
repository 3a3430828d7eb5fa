//! Bit-line parasitics and unselected-cell leakage.
//!
//! The paper's test chip puts 128 STT-RAM bits on each bit-line. During a
//! read only one word-line is asserted; the other 127 cells present their
//! off-state access-transistor leakage in parallel with the selected cell,
//! slightly shunting the forced read current. The line itself is a
//! distributed RC whose Elmore delay bounds the sampling speed — and §V of
//! the paper argues the two self-reference schemes load it differently
//! (sample caps C1/C2 on the line vs a high-impedance divider).

use stt_mna::RcLadder;
use stt_units::{Amps, Farads, Ohms, Seconds, Volts};

/// Electrical description of one bit-line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitlineSpec {
    /// Cells sharing the line (the paper: 128).
    pub cells_per_bitline: usize,
    /// Metal resistance per cell pitch.
    pub segment_resistance: Ohms,
    /// Wire + drain-junction capacitance per cell pitch.
    pub segment_capacitance: Farads,
    /// Off-state leakage resistance of one unselected cell (access
    /// transistor off).
    pub cell_off_resistance: Ohms,
}

impl BitlineSpec {
    /// The calibration used for the chip experiments: 128 cells per line,
    /// 2 Ω / 1.5 fF per cell pitch (≈ 0.2 kΩ / 0.2 pF total — typical for a
    /// 0.13 µm array block), 50 MΩ off-state leakage per cell.
    #[must_use]
    pub fn date2010_chip() -> Self {
        Self {
            cells_per_bitline: 128,
            segment_resistance: Ohms::new(2.0),
            segment_capacitance: Farads::from_femto(1.5),
            cell_off_resistance: Ohms::from_mega(50.0),
        }
    }

    /// Combined shunt resistance of the `cells_per_bitline − 1` unselected
    /// cells.
    ///
    /// # Panics
    ///
    /// Panics if the line has fewer than two cells (no unselected shunt
    /// exists).
    fn unselected_shunt(&self) -> Ohms {
        assert!(
            self.cells_per_bitline >= 2,
            "leakage shunt needs at least one unselected cell"
        );
        self.cell_off_resistance / (self.cells_per_bitline - 1) as f64
    }

    /// The voltage actually developed on the bit-line when `i_read` is
    /// forced into it and the selected cell presents `r_selected` to ground:
    /// the selected path in parallel with the leakage shunt.
    #[must_use]
    pub fn loaded_voltage(&self, i_read: Amps, r_selected: Ohms) -> Volts {
        let shunt = self.unselected_shunt();
        let parallel = (r_selected.get() * shunt.get()) / (r_selected.get() + shunt.get());
        i_read * Ohms::new(parallel)
    }

    /// The distributed-RC ladder of the bare line (driver at node 0, the
    /// sensing tap at the far end).
    #[must_use]
    pub fn ladder(&self) -> RcLadder {
        RcLadder::uniform(
            self.cells_per_bitline,
            self.segment_resistance,
            self.segment_capacitance,
        )
    }

    /// Elmore delay of the bare line.
    #[must_use]
    pub fn elmore_delay(&self) -> Seconds {
        self.ladder().elmore_delay()
    }

    /// Elmore delay with an extra capacitive load at the far end — the
    /// conventional self-reference configuration, where the sample
    /// capacitors C1/C2 hang on the line through their switch transistors.
    #[must_use]
    pub fn elmore_delay_with_load(&self, load: Farads) -> Seconds {
        self.ladder()
            .with_tap_capacitance(self.cells_per_bitline, load)
            .elmore_delay()
    }

    /// Total line capacitance (for settling-time estimates).
    #[must_use]
    pub fn total_capacitance(&self) -> Farads {
        self.segment_capacitance * self.cells_per_bitline as f64
    }

    /// Total line resistance.
    #[must_use]
    pub fn total_resistance(&self) -> Ohms {
        self.segment_resistance * self.cells_per_bitline as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unselected_shunt_is_127_parallel_leaks() {
        let spec = BitlineSpec::date2010_chip();
        let expected = 50e6 / 127.0;
        assert!((spec.unselected_shunt().get() - expected).abs() < 1e-6);
    }

    #[test]
    fn loaded_voltage_below_ideal() {
        let spec = BitlineSpec::date2010_chip();
        let i = Amps::from_micro(200.0);
        let r = Ohms::new(3367.0);
        let ideal = i * r;
        let loaded = spec.loaded_voltage(i, r);
        assert!(loaded < ideal);
        assert!((ideal - loaded).get() / ideal.get() < 0.01);
    }

    #[test]
    fn extra_load_slows_the_line() {
        let spec = BitlineSpec::date2010_chip();
        let bare = spec.elmore_delay();
        let loaded = spec.elmore_delay_with_load(Farads::from_femto(50.0));
        assert!(loaded > bare);
        // The C1/C2 load dominates the wire: 50 fF × 256 Ω = 12.8 ps extra.
        let extra = (loaded - bare).get();
        assert!((extra - 50e-15 * 256.0).abs() < 1e-18);
    }

    #[test]
    fn totals_scale_with_cell_count() {
        let spec = BitlineSpec::date2010_chip();
        assert_eq!(spec.total_resistance(), Ohms::new(256.0));
        assert!((spec.total_capacitance().get() - 192e-15).abs() < 1e-27);
    }

    #[test]
    #[should_panic(expected = "unselected cell")]
    fn single_cell_line_has_no_shunt() {
        let mut spec = BitlineSpec::date2010_chip();
        spec.cells_per_bitline = 1;
        let _ = spec.unselected_shunt();
    }
}
