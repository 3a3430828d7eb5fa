//! Cell and array geometry: the silicon-area side of the cost story.
//!
//! Sensing-scheme trade-offs are ultimately priced in area as well as
//! nanoseconds and picojoules: the 2T-2MTJ differential baseline pays two
//! cells per bit, the conventional self-reference scheme pays two sample
//! capacitors per sense amplifier, the nondestructive scheme a high-Z
//! divider. This module converts cell counts into mm² through the standard
//! `F²` (feature-size-squared) density metric.

/// Geometry of a memory cell in a given process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGeometry {
    /// Process feature size in nanometres.
    pub feature_nm: f64,
    /// Cell area in units of F² (feature size squared).
    pub cell_area_f2: f64,
    /// Fraction of the macro spent on periphery (decoders, sense
    /// amplifiers, drivers) on top of the cell array.
    pub periphery_overhead: f64,
}

impl CellGeometry {
    /// Creates a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if the feature size or cell area is non-positive, or the
    /// periphery overhead is negative.
    #[must_use]
    pub fn new(feature_nm: f64, cell_area_f2: f64, periphery_overhead: f64) -> Self {
        assert!(feature_nm > 0.0, "feature size must be positive");
        assert!(cell_area_f2 > 0.0, "cell area must be positive");
        assert!(
            periphery_overhead >= 0.0,
            "periphery overhead must be non-negative"
        );
        Self {
            feature_nm,
            cell_area_f2,
            periphery_overhead,
        }
    }

    /// The paper's test chip: TSMC 0.13 µm, a 1T1J STT-RAM cell of ≈ 40 F²
    /// (the access transistor must carry the 600 µA write current, so it is
    /// sized well above minimum), 30 % periphery.
    #[must_use]
    pub fn date2010_1t1j() -> Self {
        Self::new(130.0, 40.0, 0.3)
    }

    /// The 2T-2MTJ complementary cell: twice the 1T1J area.
    #[must_use]
    pub fn date2010_2t2mtj() -> Self {
        let base = Self::date2010_1t1j();
        Self::new(
            base.feature_nm,
            2.0 * base.cell_area_f2,
            base.periphery_overhead,
        )
    }

    /// Area of one cell in square micrometres.
    fn cell_area_um2(&self) -> f64 {
        let feature_um = self.feature_nm * 1e-3;
        self.cell_area_f2 * feature_um * feature_um
    }

    /// Macro area (cells + periphery) for `bits` bits, in mm².
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    #[must_use]
    pub fn macro_area_mm2(&self, bits: usize) -> f64 {
        assert!(bits > 0, "a macro needs at least one bit");
        let array_um2 = self.cell_area_um2() * bits as f64;
        array_um2 * (1.0 + self.periphery_overhead) * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_area_in_physical_units() {
        let geometry = CellGeometry::date2010_1t1j();
        // 40 F² at 130 nm: 40 × 0.0169 µm² = 0.676 µm².
        assert!((geometry.cell_area_um2() - 0.676).abs() < 1e-12);
    }

    #[test]
    fn sixteen_kilobit_macro_is_sub_square_millimetre() {
        let geometry = CellGeometry::date2010_1t1j();
        let area = geometry.macro_area_mm2(16384);
        // 16384 × 0.676 µm² × 1.3 ≈ 0.0144 mm² — a tiny test macro.
        assert!((0.01..0.02).contains(&area), "macro area {area} mm²");
    }

    #[test]
    fn complementary_cell_halves_the_density() {
        let single = CellGeometry::date2010_1t1j();
        let double = CellGeometry::date2010_2t2mtj();
        assert!((double.macro_area_mm2(16384) / single.macro_area_mm2(16384) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn rejects_empty_macro() {
        let _ = CellGeometry::date2010_1t1j().macro_area_mm2(0);
    }
}
