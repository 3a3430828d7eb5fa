//! Temperature dependence of the MTJ — an extension beyond the paper's
//! room-temperature evaluation.
//!
//! The sensing margins of every scheme ride on the TMR and its bias
//! roll-off, and TMR is strongly temperature dependent: interface spin
//! polarisation follows a Bloch `T^{3/2}` law, so the anti-parallel
//! resistance collapses towards the parallel one as the die heats.
//! Meanwhile the thermal stability factor `Δ = E_b / k_B T` falls as `1/T`,
//! shrinking the disturb-safe read-current budget. Both effects squeeze the
//! nondestructive scheme from opposite sides — quantified by the
//! `repro temperature` experiment.
//!
//! Physics used (standard MgO-MTJ phenomenology):
//!
//! * Julliere: `TMR = 2P²/(1 − P²)` for identical electrodes;
//! * Bloch: `P(T) = P(0)·(1 − a_sw·T^{3/2})`;
//! * parallel-state conductance grows weakly and linearly with `T`
//!   (inelastic channels);
//! * `Δ(T) = Δ(T_ref)·T_ref/T` (temperature-independent barrier energy);
//! * `I_c0(T)` falls linearly with the saturation-magnetisation softening.

use serde::{Deserialize, Serialize};
use stt_units::Ohms;

use crate::device::MtjSpec;
use crate::model::LinearRolloff;
use crate::switching::SwitchingModel;

/// Reference die temperature for all calibrations (K).
pub const T_REFERENCE: f64 = 300.0;

/// Temperature model for an MgO MTJ, relative to a room-temperature
/// calibration.
///
/// # Examples
///
/// ```
/// use stt_mtj::{MtjSpec, ThermalModel};
///
/// let thermal = ThermalModel::date2010_mgo();
/// let hot = thermal.spec_at(&MtjSpec::date2010_typical(), 400.0);
/// let cold = thermal.spec_at(&MtjSpec::date2010_typical(), 250.0);
/// // TMR collapses with temperature.
/// let tmr = |spec: &MtjSpec| {
///     (spec.resistance.r_high0() - spec.resistance.r_low0()) / spec.resistance.r_low0()
/// };
/// assert!(tmr(&hot) < tmr(&cold));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    /// Bloch spin-wave coefficient `a_sw` (K^−3/2).
    bloch_coefficient: f64,
    /// Relative parallel-conductance increase per kelvin above reference.
    parallel_tc: f64,
    /// Relative `I_c0` decrease per kelvin above reference.
    critical_current_tc: f64,
}

impl ThermalModel {
    /// Creates a thermal model.
    ///
    /// # Panics
    ///
    /// Panics if the Bloch coefficient is not in `(0, 1e-3)` (outside any
    /// physical ferromagnet) or either temperature coefficient is negative.
    #[must_use]
    pub fn new(bloch_coefficient: f64, parallel_tc: f64, critical_current_tc: f64) -> Self {
        assert!(
            bloch_coefficient > 0.0 && bloch_coefficient < 1e-3,
            "Bloch coefficient outside the physical range"
        );
        assert!(parallel_tc >= 0.0, "parallel TC must be non-negative");
        assert!(
            critical_current_tc >= 0.0,
            "critical-current TC must be non-negative"
        );
        Self {
            bloch_coefficient,
            parallel_tc,
            critical_current_tc,
        }
    }

    /// Typical CoFeB/MgO values: `a_sw` = 3×10⁻⁵ K^−3/2 (≈ 25 % TMR loss
    /// from 300 K to 400 K), +4×10⁻⁴/K parallel conductance, −6×10⁻⁴/K
    /// critical current.
    #[must_use]
    pub fn date2010_mgo() -> Self {
        Self::new(3e-5, 4e-4, 6e-4)
    }

    /// Spin polarisation at `t_kelvin` relative to the reference
    /// temperature: `P(T)/P(T_ref)`.
    ///
    /// # Panics
    ///
    /// Panics if the temperature is outside `[1, 800]` K (the Bloch law and
    /// the linear coefficients are only sensible well below the Curie
    /// temperature).
    #[must_use]
    pub fn polarization_factor(&self, t_kelvin: f64) -> f64 {
        assert!(
            (1.0..=800.0).contains(&t_kelvin),
            "temperature outside the model's validity range"
        );
        (1.0 - self.bloch_coefficient * t_kelvin.powf(1.5))
            / (1.0 - self.bloch_coefficient * T_REFERENCE.powf(1.5))
    }

    /// TMR at `t_kelvin`, given the reference TMR, via Julliere with
    /// identical electrodes.
    #[must_use]
    pub fn tmr_at(&self, tmr_reference: f64, t_kelvin: f64) -> f64 {
        julliere_tmr(tmr_reference, self.polarization_factor(t_kelvin).powi(2))
    }

    /// The device spec at `t_kelvin`: resistances follow TMR(T) and the
    /// parallel temperature coefficient; the switching model's Δ scales as
    /// `T_ref/T` and `I_c0` softens linearly.
    #[must_use]
    pub fn spec_at(&self, reference: &MtjSpec, t_kelvin: f64) -> MtjSpec {
        self.factors_at(t_kelvin).apply(reference)
    }

    /// The factors of [`Self::spec_at`] that depend on the temperature
    /// alone. A caller rebuilding many devices at one temperature evaluates
    /// them once and applies them per device; the result is bit-identical
    /// to `spec_at`.
    #[must_use]
    pub fn factors_at(&self, t_kelvin: f64) -> ThermalFactors {
        let dt = t_kelvin - T_REFERENCE;
        ThermalFactors {
            t_kelvin,
            parallel_factor: 1.0 / (1.0 + self.parallel_tc * dt),
            polarization_sq: self.polarization_factor(t_kelvin).powi(2),
            critical_current_factor: (1.0 - self.critical_current_tc * dt).max(0.1),
        }
    }
}

/// Julliere TMR from the reference TMR and the squared relative spin
/// polarisation: invert `TMR = 2P²/(1 − P²)` at reference, scale `P²`.
fn julliere_tmr(tmr_reference: f64, polarization_sq: f64) -> f64 {
    let p_ref_sq = tmr_reference / (tmr_reference + 2.0);
    let p_sq = p_ref_sq * polarization_sq;
    2.0 * p_sq / (1.0 - p_sq)
}

/// The temperature-only factors of [`ThermalModel::spec_at`] at one
/// temperature (from [`ThermalModel::factors_at`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalFactors {
    t_kelvin: f64,
    /// `1/(1 + parallel_tc·ΔT)`: the parallel-state resistance scale.
    parallel_factor: f64,
    /// `(P(T)/P(T_ref))²`.
    polarization_sq: f64,
    /// `max(1 − critical_current_tc·ΔT, 0.1)`: the `I_c0` scale.
    critical_current_factor: f64,
}

impl ThermalFactors {
    /// The spec of `reference` at these factors' temperature.
    #[must_use]
    pub fn apply(&self, reference: &MtjSpec) -> MtjSpec {
        let calibration = &reference.resistance;

        // Parallel state: conductance grows with T ⇒ resistance shrinks.
        let r_low = calibration.r_low0() * self.parallel_factor;

        // Anti-parallel state from TMR(T) on top of the parallel state.
        let tmr_ref = (calibration.r_high0() - calibration.r_low0()) / calibration.r_low0();
        let tmr = julliere_tmr(tmr_ref, self.polarization_sq);
        let r_high = r_low * (1.0 + tmr);

        // Roll-offs stay proportional to their state's resistance (barrier
        // physics sets the *relative* bias dependence).
        let dr_low = calibration.dr_low_max() * (r_low / calibration.r_low0());
        // Guard against the degenerate fully-depolarised limit.
        let dr_high = calibration.dr_high_max() * (r_high / calibration.r_high0());

        let switching = reference.switching;
        let delta = (switching.delta() * T_REFERENCE / self.t_kelvin).max(1.0);
        let i_c0 = switching.i_c0() * self.critical_current_factor;

        MtjSpec {
            resistance: LinearRolloff::new(
                r_low,
                r_high.max(r_low + Ohms::new(1.0)),
                dr_low,
                dr_high,
                calibration.i_max(),
            ),
            switching: SwitchingModel::new(i_c0, delta, switching.tau0(), switching.tau_dynamic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResistanceState;
    use proptest::prelude::*;
    use stt_units::{Amps, Seconds};

    fn model() -> ThermalModel {
        ThermalModel::date2010_mgo()
    }

    #[test]
    fn reference_temperature_is_identity() {
        let reference = MtjSpec::date2010_typical();
        let same = model().spec_at(&reference, T_REFERENCE);
        assert!(
            (same.resistance.r_low0() - reference.resistance.r_low0())
                .abs()
                .get()
                < 1e-9
        );
        assert!(
            (same.resistance.r_high0() - reference.resistance.r_high0())
                .abs()
                .get()
                < 1e-9
        );
        assert!((same.switching.delta() - reference.switching.delta()).abs() < 1e-12);
    }

    #[test]
    fn tmr_collapses_with_temperature() {
        let reference = MtjSpec::date2010_typical();
        let thermal = model();
        let tmr = |t: f64| {
            let spec = thermal.spec_at(&reference, t);
            let device = spec.into_device();
            device.tmr(Amps::ZERO)
        };
        let cold = tmr(250.0);
        let room = tmr(300.0);
        let hot = tmr(400.0);
        assert!(cold > room && room > hot, "{cold} > {room} > {hot}");
        assert!((room - 1.0).abs() < 1e-9, "calibration anchored at 300 K");
        // ~25 % TMR loss to 400 K for the default coefficient.
        assert!((0.6..0.9).contains(&hot), "hot TMR {hot}");
    }

    #[test]
    fn thermal_stability_scales_inversely() {
        let reference = MtjSpec::date2010_typical();
        let hot = model().spec_at(&reference, 400.0);
        assert!(
            (hot.switching.delta() - 30.0).abs() < 1e-9,
            "Δ(400 K) = 40·300/400"
        );
    }

    #[test]
    fn hot_reads_disturb_more() {
        let reference = MtjSpec::date2010_typical();
        let thermal = model();
        let disturb = |t: f64| {
            thermal
                .spec_at(&reference, t)
                .switching
                .read_disturb_probability(Amps::from_micro(200.0), Seconds::from_nano(15.0))
        };
        assert!(disturb(400.0) > 10.0 * disturb(300.0));
    }

    #[test]
    fn safe_read_current_shrinks_with_temperature() {
        let reference = MtjSpec::date2010_typical();
        let thermal = model();
        let budget = |t: f64| {
            thermal
                .spec_at(&reference, t)
                .switching
                .max_safe_read_current(Seconds::from_nano(15.0), 1e-9)
        };
        assert!(budget(350.0) < budget(300.0));
        assert!(budget(300.0) < budget(250.0));
    }

    #[test]
    fn polarization_factor_anchored_and_monotone() {
        let thermal = model();
        assert!((thermal.polarization_factor(T_REFERENCE) - 1.0).abs() < 1e-12);
        assert!(thermal.polarization_factor(200.0) > 1.0);
        assert!(thermal.polarization_factor(400.0) < 1.0);
    }

    #[test]
    #[should_panic(expected = "validity range")]
    fn rejects_unphysical_temperature() {
        let _ = model().polarization_factor(1200.0);
    }

    proptest! {
        #[test]
        fn prop_states_stay_ordered(t in 200.0f64..500.0) {
            let spec = model().spec_at(&MtjSpec::date2010_typical(), t);
            let device = spec.into_device();
            prop_assert!(
                device.resistance(ResistanceState::AntiParallel, Amps::from_micro(150.0))
                    > device.resistance(ResistanceState::Parallel, Amps::from_micro(150.0))
            );
        }

        #[test]
        fn prop_tmr_monotone_decreasing(t1 in 200.0f64..500.0, t2 in 200.0f64..500.0) {
            let thermal = model();
            let (cool, warm) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(thermal.tmr_at(1.0, cool) >= thermal.tmr_at(1.0, warm));
        }
    }
}
