//! Complete MTJ device descriptions: nominal specs and runtime devices.
//!
//! [`MtjSpec`] is the serialisable *recipe* for a device — the linear
//! resistance calibration of the paper's Table I plus the switching model —
//! and [`MtjDevice`] is the runtime object the array and sensing crates
//! consume, carrying whichever [`ResistanceCurve`] variant an experiment
//! selects (linear, physical, or tabulated).

use stt_units::{Amps, Ohms, Seconds};

use crate::curve::TabulatedCurve;
use crate::model::{ConductanceModel, LinearRolloff, ResistanceCurve, ResistanceModel};
use crate::switching::SwitchingModel;
use crate::variation::SampledMtj;
use crate::ResistanceState;

/// Nominal, serialisable description of an MTJ device.
///
/// # Examples
///
/// ```
/// use stt_mtj::{MtjSpec, ResistanceState};
/// use stt_units::Amps;
///
/// let spec = MtjSpec::date2010_typical();
/// let device = spec.into_device();
/// assert_eq!(
///     device.resistance(ResistanceState::Parallel, Amps::ZERO).get(),
///     1525.0
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MtjSpec {
    /// Linear roll-off calibration (the paper's native abstraction).
    pub resistance: LinearRolloff,
    /// STT switching behaviour.
    pub switching: SwitchingModel,
}

impl MtjSpec {
    /// The calibrated typical device of the paper's Table I / Fig. 2
    /// (reconstruction documented in DESIGN.md §5):
    ///
    /// * `R_L(0)` = 1525 Ω, `R_H(0)` = 3050 Ω (TMR(0) = 100 %),
    /// * `ΔR_Lmax` = 100 Ω, `ΔR_Hmax` = 600 Ω at `I_max` = 200 µA,
    /// * switching current ≈ 500 µA at a 4 ns pulse.
    #[must_use]
    pub fn date2010_typical() -> Self {
        Self {
            resistance: LinearRolloff::new(
                Ohms::new(1525.0),
                Ohms::new(3050.0),
                Ohms::new(100.0),
                Ohms::new(600.0),
                Amps::from_micro(200.0),
            ),
            switching: SwitchingModel::date2010_typical(),
        }
    }

    /// Builds the runtime device using the linear calibration directly.
    #[must_use]
    pub fn into_device(self) -> MtjDevice {
        MtjDevice {
            curve: ResistanceCurve::Linear(self.resistance),
            switching: self.switching,
        }
    }

    /// Builds the runtime device with the physical conductance model fitted
    /// to the linear calibration (same endpoints, physical curvature).
    #[must_use]
    pub fn into_physical_device(self) -> MtjDevice {
        MtjDevice {
            curve: ResistanceCurve::Conductance(ConductanceModel::fit_linear(&self.resistance)),
            switching: self.switching,
        }
    }

    /// Builds the runtime device from a measured-style table sampled off the
    /// linear calibration with `samples + 1` points up to `I_max`.
    #[must_use]
    pub fn into_tabulated_device(self, samples: usize) -> MtjDevice {
        let table = TabulatedCurve::from_model(&self.resistance, self.resistance.i_max(), samples);
        MtjDevice {
            curve: ResistanceCurve::Tabulated(table),
            switching: self.switching,
        }
    }

    /// Applies per-bit variation factors, returning the varied spec.
    #[must_use]
    pub fn varied(&self, sample: &SampledMtj) -> Self {
        Self {
            resistance: sample.apply(&self.resistance),
            switching: self.switching,
        }
    }
}

/// A runtime MTJ device: a resistance curve plus switching behaviour.
///
/// This is what the array and sensing layers consume. It is deliberately
/// *stateless* — the stored [`ResistanceState`] lives in the memory cell
/// that owns the junction, so a single `MtjDevice` can be shared by
/// analyses that evaluate both states.
#[derive(Debug, Clone, PartialEq)]
pub struct MtjDevice {
    curve: ResistanceCurve,
    switching: SwitchingModel,
}

impl MtjDevice {
    /// Creates a device from an arbitrary curve and switching model.
    #[must_use]
    pub fn new(curve: impl Into<ResistanceCurve>, switching: SwitchingModel) -> Self {
        Self {
            curve: curve.into(),
            switching,
        }
    }

    /// The resistance curve in use.
    #[must_use]
    pub fn curve(&self) -> &ResistanceCurve {
        &self.curve
    }

    /// The switching model in use.
    #[must_use]
    pub fn switching(&self) -> &SwitchingModel {
        &self.switching
    }

    /// Resistance of `state` at read current `i` (see [`ResistanceModel`]).
    #[must_use]
    pub fn resistance(&self, state: ResistanceState, i: Amps) -> Ohms {
        self.curve.resistance(state, i)
    }

    /// Low-state resistance at read current `i` — the paper's `R_L(I)`.
    #[must_use]
    pub fn r_low(&self, i: Amps) -> Ohms {
        self.resistance(ResistanceState::Parallel, i)
    }

    /// High-state resistance at read current `i` — the paper's `R_H(I)`.
    #[must_use]
    pub fn r_high(&self, i: Amps) -> Ohms {
        self.resistance(ResistanceState::AntiParallel, i)
    }

    /// TMR at read current `i`.
    #[must_use]
    pub fn tmr(&self, i: Amps) -> f64 {
        self.curve.tmr(i)
    }

    /// Probability that a read at `i` for `pulse` disturbs the cell.
    #[must_use]
    pub fn read_disturb_probability(&self, i: Amps, pulse: Seconds) -> f64 {
        self.switching.read_disturb_probability(i, pulse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_into_linear_device() {
        let device = MtjSpec::date2010_typical().into_device();
        assert_eq!(device.r_low(Amps::ZERO), Ohms::new(1525.0));
        assert_eq!(device.r_high(Amps::ZERO), Ohms::new(3050.0));
        assert_eq!(device.r_high(Amps::from_micro(200.0)), Ohms::new(2450.0));
    }

    #[test]
    fn all_three_curve_variants_agree_at_calibration_points() {
        let spec = MtjSpec::date2010_typical();
        let linear = spec.clone().into_device();
        let physical = spec.clone().into_physical_device();
        let tabulated = spec.clone().into_tabulated_device(64);
        for i in [Amps::ZERO, Amps::from_micro(200.0)] {
            for state in [ResistanceState::Parallel, ResistanceState::AntiParallel] {
                let r_lin = linear.resistance(state, i);
                let r_phy = physical.resistance(state, i);
                let r_tab = tabulated.resistance(state, i);
                assert!((r_lin - r_phy).abs().get() < 1e-6, "{state:?} at {i}");
                assert!((r_lin - r_tab).abs().get() < 1e-9, "{state:?} at {i}");
            }
        }
    }

    #[test]
    fn varied_spec_scales_resistance_only() {
        let spec = MtjSpec::date2010_typical();
        let varied = spec.varied(&SampledMtj {
            ra_factor: 1.1,
            tmr_factor: 1.0,
        });
        assert_eq!(varied.switching, spec.switching);
        assert!((varied.resistance.r_low0().get() - 1525.0 * 1.1).abs() < 1e-9);
    }

    #[test]
    fn device_exposes_disturb_probability() {
        let device = MtjSpec::date2010_typical().into_device();
        let p = device.read_disturb_probability(Amps::from_micro(200.0), Seconds::from_nano(15.0));
        assert!(p < 1e-6);
    }

    #[test]
    fn device_tmr_at_zero_bias_is_100_percent() {
        let device = MtjSpec::date2010_typical().into_device();
        assert!((device.tmr(Amps::ZERO) - 1.0).abs() < 1e-12);
    }
}
