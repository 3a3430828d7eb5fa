//! The 1T1J STT-RAM cell: one MTJ in series with one NMOS access transistor.
//!
//! During a read, a current `I_R` is forced into the bit-line; the selected
//! cell conducts it through the MTJ and the access transistor to the source
//! line (ground), so the bit-line voltage is
//! `V_BL = I_R · (R_MTJ(state, I_R) + R_T(I_R))` — Eq. (1) of the paper.

use rand::Rng;
use stt_mtj::{MtjDevice, MtjSpec, ResistanceState, VariationModel};
use stt_units::{Amps, Ohms, Seconds};

/// The NMOS access transistor, reduced to its linear-region resistance.
///
/// The paper treats the transistor as a resistance `R_T` that may shift
/// between the two read currents (`R_T1` vs `R_T2`, the ΔR_T of the
/// robustness analysis). That shift is modelled as a linear current
/// coefficient; per-bit variation as a relative σ on the nominal value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessTransistor {
    r_nominal: Ohms,
    /// Resistance increase per ampere of drain current (Ω/A): captures the
    /// triode-region curvature that makes `R_T2 > R_T1`.
    current_coefficient: f64,
}

impl AccessTransistor {
    /// Creates an access transistor with the given linear-region resistance
    /// and current coefficient (Ω per A; 0 = ideally flat).
    ///
    /// # Panics
    ///
    /// Panics if the resistance is non-positive or the coefficient negative.
    #[must_use]
    pub fn new(r_nominal: Ohms, current_coefficient: f64) -> Self {
        assert!(
            r_nominal.get() > 0.0,
            "transistor resistance must be positive"
        );
        assert!(
            current_coefficient >= 0.0,
            "current coefficient must be non-negative"
        );
        Self {
            r_nominal,
            current_coefficient,
        }
    }

    /// The paper's transistor: `R_T` = 917 Ω, ideally flat (the ΔR_T
    /// robustness analysis sweeps the shift explicitly).
    #[must_use]
    pub fn date2010_typical() -> Self {
        Self::new(Ohms::new(917.0), 0.0)
    }

    /// Nominal (zero-current) resistance.
    #[must_use]
    pub fn r_nominal(&self) -> Ohms {
        self.r_nominal
    }

    /// Resistance at drain current `i`.
    #[must_use]
    pub fn resistance(&self, i: Amps) -> Ohms {
        self.r_nominal + Ohms::new(self.current_coefficient * i.abs().get())
    }

    /// Returns a copy with the nominal resistance scaled by `factor`
    /// (per-bit process variation).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is non-positive.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        Self {
            r_nominal: self.r_nominal * factor,
            current_coefficient: self.current_coefficient,
        }
    }
}

/// Nominal recipe for a cell population: device spec + transistor +
/// variation models.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Nominal MTJ device.
    pub mtj: MtjSpec,
    /// Nominal access transistor.
    pub transistor: AccessTransistor,
    /// Bit-to-bit MTJ variation.
    pub mtj_variation: VariationModel,
    /// Relative σ of the per-bit transistor resistance (lognormal).
    pub transistor_sigma: f64,
}

impl CellSpec {
    /// The paper's chip calibration (DESIGN.md §5): typical device,
    /// `R_T` = 917 Ω, 9 % common-mode + 2 % TMR MTJ variation, 2 %
    /// transistor variation.
    #[must_use]
    pub fn date2010_chip() -> Self {
        Self {
            mtj: MtjSpec::date2010_typical(),
            transistor: AccessTransistor::date2010_typical(),
            mtj_variation: VariationModel::date2010_chip(),
            transistor_sigma: 0.02,
        }
    }

    /// A nominal cell with no variation applied (the "typical device" used
    /// in the paper's Table I analysis).
    #[must_use]
    pub fn nominal_cell(&self) -> Cell {
        Cell {
            device: self.mtj.clone().into_device(),
            transistor: self.transistor,
        }
    }

    /// Samples one varied cell.
    pub fn sample_cell<R: Rng + ?Sized>(&self, rng: &mut R) -> Cell {
        let factors = self.mtj_variation.sample(rng);
        let device = self.mtj.varied(&factors).into_device();
        let transistor_factor =
            (self.transistor_sigma * stt_stats::dist::standard_normal(rng)).exp();
        Cell {
            device,
            transistor: self.transistor.scaled(transistor_factor),
        }
    }
}

/// One 1T1J cell instance: a (possibly varied) device and its access
/// transistor.
///
/// A cell describes hardware only. Its stored state lives with its owner:
/// an [`Array`](crate::Array) keeps every cell's bit in one packed state
/// plane, and a standalone analysis keeps its cell's [`ResistanceState`]
/// beside it and passes it in.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    device: MtjDevice,
    transistor: AccessTransistor,
}

impl Cell {
    /// Creates a cell from a device and its access transistor.
    #[must_use]
    pub fn new(device: MtjDevice, transistor: AccessTransistor) -> Self {
        Self { device, transistor }
    }

    /// The MTJ device.
    #[must_use]
    pub fn device(&self) -> &MtjDevice {
        &self.device
    }

    /// The access transistor.
    #[must_use]
    pub fn transistor(&self) -> &AccessTransistor {
        &self.transistor
    }

    /// Series resistance seen from the bit-line at read current `i` when
    /// the cell holds `state`.
    #[must_use]
    pub fn series_resistance_for(&self, state: ResistanceState, i: Amps) -> Ohms {
        self.device.resistance(state, i) + self.transistor.resistance(i)
    }

    /// Attempts a write of `target` into a cell holding `*state`, with an
    /// explicit current pulse and the device's stochastic switching model.
    /// A cell already in `target` draws nothing; otherwise one Bernoulli
    /// trial decides whether `*state` switches. Returns `true` if the cell
    /// ends up in `target`.
    pub fn write_with_pulse<R: Rng + ?Sized>(
        &self,
        state: &mut ResistanceState,
        target: ResistanceState,
        i: Amps,
        pulse: Seconds,
        rng: &mut R,
    ) -> bool {
        if *state == target {
            return true;
        }
        let p = self.device.switching().switching_probability(i, pulse);
        if rng.gen_bool(p.clamp(0.0, 1.0)) {
            *state = target;
        }
        *state == target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nominal() -> Cell {
        CellSpec::date2010_chip().nominal_cell()
    }

    #[test]
    fn bitline_voltage_matches_eq1() {
        let cell = nominal();
        let i = Amps::from_micro(200.0);
        // R_L(200µA) = 1425 Ω, R_T = 917 Ω ⇒ 200 µA × 2342 Ω = 468.4 mV.
        let low = i * cell.series_resistance_for(ResistanceState::Parallel, i);
        assert!((low.get() - 0.46840).abs() < 1e-9);
        // R_H(200µA) = 2450 Ω ⇒ 673.4 mV.
        let high = i * cell.series_resistance_for(ResistanceState::AntiParallel, i);
        assert!((high.get() - 0.67340).abs() < 1e-9);
    }

    #[test]
    fn transistor_current_coefficient_shifts_resistance() {
        let t = AccessTransistor::new(Ohms::new(917.0), 1e6); // 1 Ω per µA
        assert_eq!(t.resistance(Amps::ZERO), Ohms::new(917.0));
        assert_eq!(t.resistance(Amps::from_micro(100.0)), Ohms::new(1017.0));
        assert_eq!(t.resistance(-Amps::from_micro(100.0)), Ohms::new(1017.0));
    }

    #[test]
    fn sampled_cells_differ_but_preserve_ordering() {
        let spec = CellSpec::date2010_chip();
        let mut rng = StdRng::seed_from_u64(17);
        let a = spec.sample_cell(&mut rng);
        let b = spec.sample_cell(&mut rng);
        assert_ne!(
            a.series_resistance_for(ResistanceState::Parallel, Amps::from_micro(100.0)),
            b.series_resistance_for(ResistanceState::Parallel, Amps::from_micro(100.0)),
            "two samples should differ"
        );
        for cell in [&a, &b] {
            let i = Amps::from_micro(200.0);
            assert!(
                cell.series_resistance_for(ResistanceState::AntiParallel, i)
                    > cell.series_resistance_for(ResistanceState::Parallel, i)
            );
        }
    }

    #[test]
    fn pulsed_write_at_full_current_always_switches() {
        let cell = nominal();
        let mut state = ResistanceState::Parallel;
        let mut rng = StdRng::seed_from_u64(5);
        let pulse = Seconds::from_nano(4.0);
        let i_write = Amps::from_micro(600.0); // > 500 µA critical current
        for target in [
            ResistanceState::AntiParallel,
            ResistanceState::Parallel,
            ResistanceState::AntiParallel,
        ] {
            assert!(cell.write_with_pulse(&mut state, target, i_write, pulse, &mut rng));
            assert_eq!(state, target);
        }
    }

    #[test]
    fn weak_write_pulse_usually_fails() {
        let spec = CellSpec::date2010_chip();
        let mut rng = StdRng::seed_from_u64(11);
        let pulse = Seconds::from_nano(4.0);
        let weak = Amps::from_micro(100.0);
        let mut switched = 0;
        for _ in 0..200 {
            let cell = spec.nominal_cell();
            let mut state = ResistanceState::Parallel;
            let target = ResistanceState::AntiParallel;
            if cell.write_with_pulse(&mut state, target, weak, pulse, &mut rng) {
                switched += 1;
            }
        }
        assert!(switched < 5, "weak pulses switched {switched}/200 cells");
    }

    #[test]
    fn read_disturb_is_rare_at_design_point() {
        let p = nominal()
            .device()
            .read_disturb_probability(Amps::from_micro(200.0), Seconds::from_nano(15.0));
        assert!(p < 1e-6, "200 µA reads must be effectively safe: {p}");
    }

    #[test]
    fn write_to_current_state_is_a_no_op() {
        let cell = nominal();
        let mut rng = StdRng::seed_from_u64(2);
        let untouched = rng.clone();
        let mut state = ResistanceState::Parallel;
        assert!(cell.write_with_pulse(
            &mut state,
            ResistanceState::Parallel,
            Amps::ZERO,
            Seconds::from_nano(4.0),
            &mut rng
        ));
        assert_eq!(rng, untouched, "a write to the held state draws nothing");
    }
}
