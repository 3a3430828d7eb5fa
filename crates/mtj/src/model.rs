//! Bias-dependent MTJ resistance models.
//!
//! Figure 2 of the paper shows the measured static R–I sweep of an MgO MTJ:
//! both states lose resistance as the sensing current grows, but the high
//! (anti-parallel) state's "current roll-off slope … is much steeper than
//! that of the low resistance state". Three interchangeable models capture
//! that behaviour at different levels of physical fidelity:
//!
//! * [`LinearRolloff`] — the paper's own abstraction: the resistance drop is
//!   proportional to the read current, with per-state maximum drops
//!   `ΔR_Hmax` / `ΔR_Lmax` reached at the maximum allowed read current.
//!   This is the model behind every closed-form equation in the paper.
//! * [`ConductanceModel`] — a physical model: tunnelling conductance grows
//!   quadratically with bias voltage (`G(V) = G₀·(1 + (V/V₀)²)`, the
//!   standard MgO bias-dependence shape), solved self-consistently for a
//!   forced current.
//! * [`crate::TabulatedCurve`] — interpolation over measured-style `(I, R)`
//!   samples, mirroring how the authors mix 4 ns-pulse points with DC
//!   extrapolation.
//!
//! All three implement [`ResistanceModel`], and [`ResistanceCurve`] is a
//! closed enum over them so device structs stay `Clone` without boxing.

use stt_units::{Amps, Ohms, Volts};

use crate::curve::TabulatedCurve;
use crate::ResistanceState;

/// A bias-dependent MTJ resistance: `R(state, I)`.
///
/// Implementors must be even in the current (`R(I) = R(−I)`): the paper's
/// read disturbs are polarity dependent, but the *static* resistance sampled
/// by a read depends only on the bias magnitude.
pub trait ResistanceModel {
    /// Resistance of `state` when a read current of magnitude `|i|` flows.
    fn resistance(&self, state: ResistanceState, i: Amps) -> Ohms;

    /// Zero-bias resistance of `state`.
    fn zero_bias(&self, state: ResistanceState) -> Ohms {
        self.resistance(state, Amps::ZERO)
    }

    /// Tunnelling magnetoresistance ratio at read current `i`:
    /// `TMR(I) = (R_H(I) − R_L(I)) / R_L(I)`.
    fn tmr(&self, i: Amps) -> f64 {
        let high = self.resistance(ResistanceState::AntiParallel, i);
        let low = self.resistance(ResistanceState::Parallel, i);
        (high - low) / low
    }

    /// Resistance drop of `state` between (near-)zero bias and current `i`:
    /// the `ΔR` quantities of the paper's Fig. 4.
    fn rolloff(&self, state: ResistanceState, i: Amps) -> Ohms {
        self.zero_bias(state) - self.resistance(state, i)
    }
}

/// The paper's linear roll-off abstraction.
///
/// `R(I) = R(0) − ΔR_max · |I| / I_max`, independently per state. Currents
/// beyond `I_max` extrapolate linearly; negative currents use `|I|`.
///
/// # Examples
///
/// ```
/// use stt_mtj::{LinearRolloff, ResistanceModel, ResistanceState};
/// use stt_units::{Amps, Ohms};
///
/// let model = LinearRolloff::new(
///     Ohms::new(1525.0),
///     Ohms::new(3050.0),
///     Ohms::new(100.0),
///     Ohms::new(600.0),
///     Amps::from_micro(200.0),
/// );
/// let r_h2 = model.resistance(ResistanceState::AntiParallel, Amps::from_micro(200.0));
/// assert_eq!(r_h2, Ohms::new(2450.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearRolloff {
    r_low0: Ohms,
    r_high0: Ohms,
    dr_low_max: Ohms,
    dr_high_max: Ohms,
    i_max: Amps,
}

impl LinearRolloff {
    /// Creates a linear roll-off model.
    ///
    /// # Panics
    ///
    /// Panics if any resistance is non-positive, if `r_high0 <= r_low0`
    /// (the states would be indistinguishable), if a roll-off exceeds its
    /// state's zero-bias resistance, or if `i_max` is non-positive.
    #[must_use]
    pub fn new(
        r_low0: Ohms,
        r_high0: Ohms,
        dr_low_max: Ohms,
        dr_high_max: Ohms,
        i_max: Amps,
    ) -> Self {
        assert!(r_low0.get() > 0.0, "low-state resistance must be positive");
        assert!(
            r_high0 > r_low0,
            "high-state resistance must exceed low-state resistance"
        );
        assert!(
            dr_low_max.get() >= 0.0 && dr_low_max < r_low0,
            "low-state roll-off must be in [0, R_L(0))"
        );
        assert!(
            dr_high_max.get() >= 0.0 && dr_high_max < r_high0,
            "high-state roll-off must be in [0, R_H(0))"
        );
        assert!(i_max.get() > 0.0, "maximum read current must be positive");
        Self {
            r_low0,
            r_high0,
            dr_low_max,
            dr_high_max,
            i_max,
        }
    }

    /// Zero-bias low-state resistance `R_L(0)`.
    #[must_use]
    pub fn r_low0(&self) -> Ohms {
        self.r_low0
    }

    /// Zero-bias high-state resistance `R_H(0)`.
    #[must_use]
    pub fn r_high0(&self) -> Ohms {
        self.r_high0
    }

    /// Maximum low-state roll-off `ΔR_Lmax` (at `I_max`).
    #[must_use]
    pub fn dr_low_max(&self) -> Ohms {
        self.dr_low_max
    }

    /// Maximum high-state roll-off `ΔR_Hmax` (at `I_max`).
    #[must_use]
    pub fn dr_high_max(&self) -> Ohms {
        self.dr_high_max
    }

    /// The read current at which the maximum roll-off is reached.
    #[must_use]
    pub fn i_max(&self) -> Amps {
        self.i_max
    }

    /// Returns a copy with both zero-bias resistances and both roll-offs
    /// scaled by `factor`.
    ///
    /// Scaling resistance and roll-off together models a resistance–area
    /// (oxide thickness / geometry) perturbation: the *relative* bias
    /// dependence of a tunnel junction is set by the barrier physics, so a
    /// thicker barrier scales the whole R–I curve multiplicatively.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        Self {
            r_low0: self.r_low0 * factor,
            r_high0: self.r_high0 * factor,
            dr_low_max: self.dr_low_max * factor,
            dr_high_max: self.dr_high_max * factor,
            i_max: self.i_max,
        }
    }

    /// Returns a copy with only the high state scaled by `factor`, modelling
    /// an independent TMR perturbation (interface polarisation variation).
    #[must_use]
    pub fn with_high_scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let r_high0 = self.r_high0 * factor;
        assert!(
            r_high0 > self.r_low0,
            "TMR perturbation collapsed the high state below the low state"
        );
        Self {
            r_high0,
            dr_high_max: self.dr_high_max * factor,
            ..*self
        }
    }
}

impl ResistanceModel for LinearRolloff {
    fn resistance(&self, state: ResistanceState, i: Amps) -> Ohms {
        let fraction = i.abs() / self.i_max;
        let (r0, dr) = match state {
            ResistanceState::Parallel => (self.r_low0, self.dr_low_max),
            ResistanceState::AntiParallel => (self.r_high0, self.dr_high_max),
        };
        r0 - dr * fraction
    }
}

/// Physical bias-dependence model: quadratic conductance growth.
///
/// Tunnelling through an MgO barrier has the canonical conductance shape
/// `G(V) = G₀ · (1 + (V/V₀)²)`, with a much smaller `V₀` (stronger bias
/// dependence) for the anti-parallel state. Because a read *forces a
/// current*, the model solves `I = V · G(V)` for `V` with Newton iteration
/// and reports `R = V / I`.
///
/// Use [`ConductanceModel::fit_linear`] to construct a physical model whose
/// endpoints match a [`LinearRolloff`] calibration (same `R(0)` and the same
/// `R(I_max)` per state), so the two models can be ablated against each
/// other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConductanceModel {
    r_low0: Ohms,
    r_high0: Ohms,
    /// Characteristic voltage of the low state's bias dependence.
    v0_low: Volts,
    /// Characteristic voltage of the high state's bias dependence.
    v0_high: Volts,
}

impl ConductanceModel {
    /// Creates a conductance model from zero-bias resistances and the
    /// characteristic voltages of each state's bias dependence.
    ///
    /// # Panics
    ///
    /// Panics if resistances are non-positive, `r_high0 <= r_low0`, or a
    /// characteristic voltage is non-positive.
    #[must_use]
    pub fn new(r_low0: Ohms, r_high0: Ohms, v0_low: Volts, v0_high: Volts) -> Self {
        assert!(r_low0.get() > 0.0, "low-state resistance must be positive");
        assert!(
            r_high0 > r_low0,
            "high-state resistance must exceed low-state resistance"
        );
        assert!(
            v0_low.get() > 0.0 && v0_high.get() > 0.0,
            "characteristic voltages must be positive"
        );
        Self {
            r_low0,
            r_high0,
            v0_low,
            v0_high,
        }
    }

    /// Fits the characteristic voltages so this model reproduces the given
    /// linear calibration at zero bias and at `I_max` for both states.
    ///
    /// The fit inverts `R(I_max) = R₀/(1 + (V/V₀)²)` at the self-consistent
    /// endpoint voltage, so by construction the two models agree exactly at
    /// the two calibration currents and differ only in curvature between
    /// them.
    #[must_use]
    pub fn fit_linear(linear: &LinearRolloff) -> Self {
        let fit_state = |r0: Ohms, r_at_imax: Ohms| -> Volts {
            // At I_max: V = I_max · R(I_max) and R = R0 / (1 + (V/V0)^2)
            // => (V/V0)^2 = R0/R - 1 => V0 = V / sqrt(R0/R - 1).
            let v_end = linear.i_max() * r_at_imax;
            let ratio = r0 / r_at_imax;
            Volts::new(v_end.get() / (ratio - 1.0).sqrt())
        };
        let r_low_end = linear.r_low0() - linear.dr_low_max();
        let r_high_end = linear.r_high0() - linear.dr_high_max();
        Self::new(
            linear.r_low0(),
            linear.r_high0(),
            fit_state(linear.r_low0(), r_low_end),
            fit_state(linear.r_high0(), r_high_end),
        )
    }

    fn params(&self, state: ResistanceState) -> (Ohms, Volts) {
        match state {
            ResistanceState::Parallel => (self.r_low0, self.v0_low),
            ResistanceState::AntiParallel => (self.r_high0, self.v0_high),
        }
    }

    /// Solves the self-consistent junction voltage for a forced current.
    ///
    /// Newton iteration on `f(V) = V·G(V) − I`; the function is strictly
    /// increasing and convex for `V ≥ 0`, so convergence from `V = I·R₀`
    /// is monotone and fast (< 10 iterations to 1 fV in practice).
    fn bias_voltage(&self, state: ResistanceState, i: Amps) -> Volts {
        let (r0, v0) = self.params(state);
        let g0 = 1.0 / r0.get();
        let i = i.abs().get();
        if i == 0.0 {
            return Volts::ZERO;
        }
        let v0 = v0.get();
        let mut v = i * r0.get();
        for _ in 0..50 {
            let g = g0 * (1.0 + (v / v0).powi(2));
            let f = v * g - i;
            let dfdv = g0 * (1.0 + 3.0 * (v / v0).powi(2));
            let step = f / dfdv;
            v -= step;
            if step.abs() < 1e-15 {
                break;
            }
        }
        Volts::new(v.max(0.0))
    }
}

impl ResistanceModel for ConductanceModel {
    fn resistance(&self, state: ResistanceState, i: Amps) -> Ohms {
        if i.abs().get() == 0.0 {
            return self.params(state).0;
        }
        let v = self.bias_voltage(state, i);
        v / i.abs()
    }
}

/// Closed enum over the available resistance models.
///
/// Keeps device types `Clone` without trait objects; dispatch
/// is a two-arm match, negligible next to the arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum ResistanceCurve {
    /// The paper's linear roll-off abstraction.
    Linear(LinearRolloff),
    /// Physical quadratic-conductance model.
    Conductance(ConductanceModel),
    /// Interpolated measured-style samples.
    Tabulated(TabulatedCurve),
}

impl ResistanceModel for ResistanceCurve {
    fn resistance(&self, state: ResistanceState, i: Amps) -> Ohms {
        match self {
            ResistanceCurve::Linear(m) => m.resistance(state, i),
            ResistanceCurve::Conductance(m) => m.resistance(state, i),
            ResistanceCurve::Tabulated(m) => m.resistance(state, i),
        }
    }
}

impl From<LinearRolloff> for ResistanceCurve {
    fn from(model: LinearRolloff) -> Self {
        ResistanceCurve::Linear(model)
    }
}

impl From<ConductanceModel> for ResistanceCurve {
    fn from(model: ConductanceModel) -> Self {
        ResistanceCurve::Conductance(model)
    }
}

impl From<TabulatedCurve> for ResistanceCurve {
    fn from(curve: TabulatedCurve) -> Self {
        ResistanceCurve::Tabulated(curve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn typical_linear() -> LinearRolloff {
        LinearRolloff::new(
            Ohms::new(1525.0),
            Ohms::new(3050.0),
            Ohms::new(100.0),
            Ohms::new(600.0),
            Amps::from_micro(200.0),
        )
    }

    #[test]
    fn linear_endpoints() {
        let m = typical_linear();
        assert_eq!(m.zero_bias(ResistanceState::Parallel), Ohms::new(1525.0));
        assert_eq!(
            m.zero_bias(ResistanceState::AntiParallel),
            Ohms::new(3050.0)
        );
        let i_max = Amps::from_micro(200.0);
        assert_eq!(
            m.resistance(ResistanceState::Parallel, i_max),
            Ohms::new(1425.0)
        );
        assert_eq!(
            m.resistance(ResistanceState::AntiParallel, i_max),
            Ohms::new(2450.0)
        );
    }

    #[test]
    fn linear_is_even_in_current() {
        let m = typical_linear();
        let i = Amps::from_micro(137.0);
        for state in [ResistanceState::Parallel, ResistanceState::AntiParallel] {
            assert_eq!(m.resistance(state, i), m.resistance(state, -i));
        }
    }

    #[test]
    fn tmr_shrinks_with_bias() {
        let m = typical_linear();
        let tmr0 = m.tmr(Amps::ZERO);
        let tmr_max = m.tmr(Amps::from_micro(200.0));
        assert!(
            (tmr0 - 1.0).abs() < 1e-12,
            "calibrated device has TMR(0)=100%"
        );
        assert!(tmr_max < tmr0, "bias must reduce TMR");
        assert!(tmr_max > 0.5, "MgO TMR stays well above AlO levels");
    }

    #[test]
    fn rolloff_matches_table_values() {
        let m = typical_linear();
        let i_max = Amps::from_micro(200.0);
        assert_eq!(
            m.rolloff(ResistanceState::AntiParallel, i_max),
            Ohms::new(600.0)
        );
        assert_eq!(
            m.rolloff(ResistanceState::Parallel, i_max),
            Ohms::new(100.0)
        );
    }

    #[test]
    fn scaled_preserves_relative_rolloff() {
        let m = typical_linear();
        let scaled = m.scaled(1.1);
        let i = Amps::from_micro(150.0);
        let ratio = scaled.resistance(ResistanceState::AntiParallel, i)
            / m.resistance(ResistanceState::AntiParallel, i);
        assert!((ratio - 1.1).abs() < 1e-12);
    }

    #[test]
    fn tmr_perturbation_leaves_low_state_alone() {
        let m = typical_linear();
        let perturbed = m.with_high_scaled(0.95);
        let i = Amps::from_micro(80.0);
        assert_eq!(
            perturbed.resistance(ResistanceState::Parallel, i),
            m.resistance(ResistanceState::Parallel, i)
        );
        assert!(
            perturbed.resistance(ResistanceState::AntiParallel, i)
                < m.resistance(ResistanceState::AntiParallel, i)
        );
    }

    #[test]
    #[should_panic(expected = "high-state resistance must exceed")]
    fn rejects_inverted_states() {
        let _ = LinearRolloff::new(
            Ohms::new(3000.0),
            Ohms::new(2000.0),
            Ohms::new(100.0),
            Ohms::new(600.0),
            Amps::from_micro(200.0),
        );
    }

    #[test]
    fn conductance_fit_matches_linear_at_endpoints() {
        let linear = typical_linear();
        let physical = ConductanceModel::fit_linear(&linear);
        let i_max = Amps::from_micro(200.0);
        for state in [ResistanceState::Parallel, ResistanceState::AntiParallel] {
            let at_zero = (physical.resistance(state, Amps::ZERO)
                - linear.resistance(state, Amps::ZERO))
            .abs();
            assert!(at_zero.get() < 1e-9, "zero-bias mismatch: {at_zero}");
            let at_max =
                (physical.resistance(state, i_max) - linear.resistance(state, i_max)).abs();
            assert!(at_max.get() < 1e-6, "I_max mismatch: {at_max}");
        }
    }

    #[test]
    fn conductance_model_is_convex_between_endpoints() {
        // The physical model must sit *above* the chord (linear model)
        // between the calibration points: R(I) = R0/(1+x²) is concave-down
        // in voltage but lies above the straight line in current.
        let linear = typical_linear();
        let physical = ConductanceModel::fit_linear(&linear);
        let i = Amps::from_micro(100.0);
        for state in [ResistanceState::Parallel, ResistanceState::AntiParallel] {
            assert!(physical.resistance(state, i) >= linear.resistance(state, i));
        }
    }

    #[test]
    fn resistance_curve_enum_dispatches() {
        let linear = typical_linear();
        let as_enum: ResistanceCurve = linear.into();
        let i = Amps::from_micro(60.0);
        assert_eq!(
            as_enum.resistance(ResistanceState::Parallel, i),
            linear.resistance(ResistanceState::Parallel, i)
        );
    }

    proptest! {
        #[test]
        fn prop_linear_monotone_decreasing(i1 in 0.0f64..200e-6, i2 in 0.0f64..200e-6) {
            let m = typical_linear();
            let (lo, hi) = if i1 <= i2 { (i1, i2) } else { (i2, i1) };
            for state in [ResistanceState::Parallel, ResistanceState::AntiParallel] {
                prop_assert!(
                    m.resistance(state, Amps::new(lo)) >= m.resistance(state, Amps::new(hi))
                );
            }
        }

        #[test]
        fn prop_high_state_stays_above_low(i in 0.0f64..250e-6) {
            let m = typical_linear();
            prop_assert!(
                m.resistance(ResistanceState::AntiParallel, Amps::new(i))
                    > m.resistance(ResistanceState::Parallel, Amps::new(i))
            );
        }

        #[test]
        fn prop_conductance_monotone_and_even(i in 1e-9f64..400e-6) {
            let physical = ConductanceModel::fit_linear(&typical_linear());
            for state in [ResistanceState::Parallel, ResistanceState::AntiParallel] {
                let r_pos = physical.resistance(state, Amps::new(i));
                let r_neg = physical.resistance(state, Amps::new(-i));
                prop_assert!((r_pos.get() - r_neg.get()).abs() < 1e-9);
                prop_assert!(r_pos <= physical.zero_bias(state));
            }
        }

        #[test]
        fn prop_conductance_newton_consistency(i in 1e-9f64..400e-6) {
            // The reported resistance must satisfy I = V·G(V) to solver
            // precision.
            let linear = typical_linear();
            let physical = ConductanceModel::fit_linear(&linear);
            let state = ResistanceState::AntiParallel;
            let r = physical.resistance(state, Amps::new(i));
            let v = i * r.get();
            let g0 = 1.0 / physical.zero_bias(state).get();
            // Recover V0 by inverting at I_max (same as fit).
            let r_end = linear.r_high0() - linear.dr_high_max();
            let v_end = linear.i_max().get() * r_end.get();
            let v0 = v_end / (linear.r_high0().get() / r_end.get() - 1.0f64).sqrt();
            let implied_i = v * g0 * (1.0 + (v / v0).powi(2));
            prop_assert!((implied_i - i).abs() < 1e-9 * (1.0 + i));
        }
    }
}
