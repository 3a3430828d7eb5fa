//! The 2T-2MTJ complementary-cell baseline — the area-for-margin
//! alternative to self-reference.
//!
//! An older answer to bit-to-bit variation (and the natural foil for the
//! paper's scheme): store the bit *and its complement* in two adjacent
//! junctions and sense their difference. Adjacent devices share most of
//! their process environment (RA correlation ρ ≈ 0.9 at one cell pitch),
//! so the common-mode spread cancels in the differential and the margin is
//! the full state separation, `I·(R_H − R_L)` ≈ 200 mV — 20× the
//! nondestructive self-reference margin.
//!
//! The price list, quantified by [`DifferentialScheme`] and the
//! `repro differential` experiment:
//!
//! * **2× area** (two junctions + two access transistors per bit);
//! * **2× write energy** (both junctions program on every data write);
//! * residual sensitivity to the *uncorrelated* part of the pair's
//!   variation — at low ρ (sloppy layout) the advantage erodes.

use rand::Rng;
use serde::{Deserialize, Serialize};
use stt_array::{Cell, CellSpec};
use stt_mtj::ResistanceState;
use stt_units::{Amps, Volts};

use crate::margins::{first_read_voltage, SenseMargins};

/// A complementary cell pair: the junction holding the bit and the junction
/// holding its complement. Like any [`Cell`], the pair describes devices
/// only; the stored bit is passed to [`DifferentialScheme::differential`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComplementaryPair {
    /// The junction storing the data value.
    pub data: Cell,
    /// The junction storing the complement.
    pub complement: Cell,
}

impl ComplementaryPair {
    /// Samples a pair with spatially correlated variation (`rho` on the
    /// RA factor).
    ///
    /// # Panics
    ///
    /// Panics if `rho` is outside `[0, 1]`.
    pub fn sample<R: Rng + ?Sized>(spec: &CellSpec, rho: f64, rng: &mut R) -> Self {
        let (data_factors, complement_factors) = spec.mtj_variation.sample_pair(rho, rng);
        let transistor_factor =
            |rng: &mut R| (spec.transistor_sigma * stt_stats::dist::standard_normal(rng)).exp();
        let data = Cell::new(
            spec.mtj.varied(&data_factors).into_device(),
            spec.transistor.scaled(transistor_factor(rng)),
        );
        let complement = Cell::new(
            spec.mtj.varied(&complement_factors).into_device(),
            spec.transistor.scaled(transistor_factor(rng)),
        );
        Self { data, complement }
    }
}

/// Differential sensing across a complementary pair: one read current into
/// each bit-line, compare the two bit-line voltages directly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DifferentialScheme {
    /// The read current applied to both halves.
    pub i_read: Amps,
}

impl DifferentialScheme {
    /// Creates the scheme at the given read current (typically the same
    /// `I_max` budget as the other schemes).
    ///
    /// # Panics
    ///
    /// Panics if the current is non-positive.
    #[must_use]
    pub fn new(i_read: Amps) -> Self {
        assert!(i_read.get() > 0.0, "read current must be positive");
        Self { i_read }
    }

    /// The comparator differential when the pair stores `bit` (the data
    /// junction holds it, the complement its inverse): positive means "1".
    #[must_use]
    pub fn differential(&self, pair: &ComplementaryPair, bit: bool) -> Volts {
        let read = |cell: &Cell, bit: bool| {
            first_read_voltage(cell, ResistanceState::from_bit(bit), self.i_read)
        };
        read(&pair.data, bit) - read(&pair.complement, !bit)
    }

    /// Sense margins of the pair for both stored values.
    #[must_use]
    pub fn margins(&self, pair: &ComplementaryPair) -> SenseMargins {
        let read =
            |cell: &Cell, state: ResistanceState| first_read_voltage(cell, state, self.i_read);
        // Stored 1: data = AP, complement = P.
        let margin1 = read(&pair.data, ResistanceState::AntiParallel)
            - read(&pair.complement, ResistanceState::Parallel);
        // Stored 0: data = P, complement = AP.
        let margin0 = read(&pair.complement, ResistanceState::AntiParallel)
            - read(&pair.data, ResistanceState::Parallel);
        SenseMargins { margin0, margin1 }
    }
}

/// Summary of a differential-baseline Monte Carlo (mirrors the Fig. 11
/// tallies for the other schemes, plus the costs the extra junction buys).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DifferentialResult {
    /// Pair correlation used.
    pub rho: f64,
    /// Pass/fail against the plain-latch 8 mV threshold (the differential
    /// path needs no auto-zero — its margins dwarf any offset).
    pub yields: stt_stats::YieldCount,
    /// Worst margin observed.
    pub worst_margin: Volts,
    /// Mean margin observed.
    pub mean_margin: Volts,
}

/// Runs the differential baseline over `bits` sampled pairs.
#[must_use]
pub fn differential_experiment(
    spec: &CellSpec,
    i_read: Amps,
    rho: f64,
    bits: usize,
    seed: u64,
) -> DifferentialResult {
    let scheme = DifferentialScheme::new(i_read);
    let threshold = crate::amplifier::SenseAmplifier::plain_latch().usable_threshold();
    let spec = spec.clone();
    let margins: Vec<SenseMargins> = stt_stats::run_trials(bits, seed, move |rng, _| {
        let pair = ComplementaryPair::sample(&spec, rho, rng);
        scheme.margins(&pair)
    });
    let mut yields = stt_stats::YieldCount::new();
    let mut worst = f64::INFINITY;
    let mut sum = 0.0;
    for margin in &margins {
        yields.record(margin.margin0 > threshold && margin.margin1 > threshold);
        worst = worst.min(margin.min().get());
        sum += margin.min().get();
    }
    DifferentialResult {
        rho,
        yields,
        worst_margin: Volts::new(worst),
        mean_margin: Volts::new(sum / bits as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scheme() -> DifferentialScheme {
        DifferentialScheme::new(Amps::from_micro(200.0))
    }

    #[test]
    fn nominal_margin_is_the_full_state_separation() {
        let spec = CellSpec::date2010_chip();
        let pair = ComplementaryPair {
            data: spec.nominal_cell(),
            complement: spec.nominal_cell(),
        };
        let margins = scheme().margins(&pair);
        // I·(R_H(I) − R_L(I)) = 200 µA · 1025 Ω = 205 mV, both polarities.
        assert!((margins.margin1.get() - 0.205).abs() < 1e-6);
        assert!((margins.margin0.get() - 0.205).abs() < 1e-6);
    }

    #[test]
    fn read_follows_written_bit() {
        let spec = CellSpec::date2010_chip();
        let mut rng = StdRng::seed_from_u64(3);
        let pair = ComplementaryPair::sample(&spec, 0.9, &mut rng);
        let scheme = scheme();
        assert!(scheme.differential(&pair, true).get() > 0.0);
        assert!(scheme.differential(&pair, false).get() < 0.0);
    }

    #[test]
    fn correlated_pairs_beat_uncorrelated_ones() {
        let spec = CellSpec::date2010_chip();
        let i = Amps::from_micro(200.0);
        let matched = differential_experiment(&spec, i, 0.95, 4096, 7);
        let sloppy = differential_experiment(&spec, i, 0.0, 4096, 7);
        // Layout matching is load-bearing: at ρ = 0.95 the worst pair keeps
        // ~130 mV, while uncorrelated pairs collapse towards ~30 mV in the
        // tails (opposite-direction spreads subtract).
        assert!(
            matched.worst_margin.get() > 3.0 * sloppy.worst_margin.get(),
            "matched {} vs sloppy {}",
            matched.worst_margin,
            sloppy.worst_margin
        );
        // Even the sloppy tails still clear the plain-latch threshold,
        // though — the differential's weakness is area/energy, not margin.
        assert!(sloppy.worst_margin.get() > 0.02);
    }

    #[test]
    fn differential_passes_the_chip_with_a_plain_latch() {
        let spec = CellSpec::date2010_chip();
        let result = differential_experiment(&spec, Amps::from_micro(200.0), 0.9, 16384, 2010);
        assert_eq!(result.yields.failures(), 0);
        assert!(result.mean_margin.get() > 0.15);
    }

    #[test]
    fn margins_dwarf_the_self_reference_schemes() {
        let spec = CellSpec::date2010_chip();
        let cell = spec.nominal_cell();
        let design = crate::design::DesignPoint::date2010(&cell);
        let nondes = design
            .nondestructive
            .margins(&cell, &crate::margins::Perturbations::NONE)
            .min();
        let pair = ComplementaryPair {
            data: spec.nominal_cell(),
            complement: spec.nominal_cell(),
        };
        let differential = scheme().margins(&pair).min();
        assert!(differential.get() > 15.0 * nondes.get());
    }
}
