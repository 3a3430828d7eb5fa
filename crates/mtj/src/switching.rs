//! Spin-transfer-torque switching: critical currents, write dynamics, and
//! read disturb.
//!
//! The paper's design point sets the maximum read current to 200 µA, "40 % of
//! the switching current of MTJ (~500 µA) with 4 ns write pulse width". This
//! module provides the model behind those numbers: a dynamic (precessional)
//! regime for short pulses where the required current grows as `1/t_p`, and a
//! thermally-activated regime for long pulses where it falls logarithmically.
//! The same thermal-activation statistics give the probability that a read
//! current *disturbs* (unintentionally switches) the stored state — the
//! constraint that defines `I_max` in the sensing schemes.

use stt_units::{Amps, Seconds};

use crate::ResistanceState;

/// Direction of the write current through the MTJ stack.
///
/// Per the paper's Fig. 1/2 convention, a positive voltage on the free-layer
/// side (point B) switches anti-parallel → parallel (write "0"), and the
/// opposite polarity switches parallel → anti-parallel (write "1").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolarity {
    /// Current polarity that drives the junction to the parallel (low) state.
    SetParallel,
    /// Current polarity that drives the junction to the anti-parallel (high) state.
    SetAntiParallel,
}

impl WritePolarity {
    /// The polarity needed to program `target`.
    #[must_use]
    pub fn for_state(target: ResistanceState) -> Self {
        match target {
            ResistanceState::Parallel => WritePolarity::SetParallel,
            ResistanceState::AntiParallel => WritePolarity::SetAntiParallel,
        }
    }

    /// The state this polarity programs.
    #[must_use]
    pub fn target_state(self) -> ResistanceState {
        match self {
            WritePolarity::SetParallel => ResistanceState::Parallel,
            WritePolarity::SetAntiParallel => ResistanceState::AntiParallel,
        }
    }
}

/// Thermal-activation / precessional STT switching model.
///
/// The critical current combines the two classic contributions in one smooth
/// expression:
///
/// ```text
/// I_c(t_p) = I_c0 · (1 − ln(t_p/τ₀)/Δ  +  τ_d/t_p)
/// ```
///
/// * the `τ_d/t_p` term is the **dynamic (precessional) overhead** — flipping
///   a macrospin faster costs proportionally more over-drive, which dominates
///   for nanosecond pulses;
/// * the `−ln(t_p/τ₀)/Δ` term is the **thermal assistance** — for long pulses
///   thermal fluctuations let sub-`I_c0` currents switch, which dominates
///   beyond ~100 ns.
///
/// The sum is continuous and strictly decreasing in `t_p`, crossing the
/// intrinsic `I_c0` where the two effects balance.
///
/// Sub-critical currents still switch stochastically with mean waiting time
/// `τ(I) = τ₀ · exp(Δ · (1 − I/I_c0))` (Néel–Brown with STT-reduced
/// barrier), which is what makes large read currents a disturb hazard.
///
/// # Examples
///
/// ```
/// use stt_mtj::SwitchingModel;
/// use stt_units::{Amps, Seconds};
///
/// let model = SwitchingModel::date2010_typical();
/// // Just above the paper's ~500 µA switching current, a 4 ns write pulse
/// // switches deterministically.
/// let p = model.switching_probability(Amps::from_micro(510.0), Seconds::from_nano(4.0));
/// assert_eq!(p, 1.0);
/// // Reading at 200 µA (40 %) for 5 ns disturbs with negligible probability.
/// let p = model.switching_probability(Amps::from_micro(200.0), Seconds::from_nano(5.0));
/// assert!(p < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingModel {
    i_c0: Amps,
    delta: f64,
    tau0: Seconds,
    tau_dynamic: Seconds,
}

impl SwitchingModel {
    /// Creates a switching model.
    ///
    /// `i_c0` is the intrinsic critical current, `delta` the thermal
    /// stability factor `E_b / k_B T`, `tau0` the attempt time and
    /// `tau_dynamic` the dynamic (precessional) overhead constant.
    ///
    /// # Panics
    ///
    /// Panics if any quantity is non-positive or if `delta < 1`.
    #[must_use]
    pub fn new(i_c0: Amps, delta: f64, tau0: Seconds, tau_dynamic: Seconds) -> Self {
        assert!(i_c0.get() > 0.0, "critical current must be positive");
        assert!(delta >= 1.0, "thermal stability factor must be at least 1");
        assert!(tau0.get() > 0.0, "attempt time must be positive");
        assert!(tau_dynamic.get() > 0.0, "dynamic constant must be positive");
        Self {
            i_c0,
            delta,
            tau0,
            tau_dynamic,
        }
    }

    /// The calibrated device of the paper: intrinsic `I_c0` = 400 µA,
    /// thermal stability Δ = 40, attempt time τ₀ = 1 ns, and the dynamic
    /// constant τ_d solved so the switching current at a 4 ns pulse is
    /// exactly the paper's ~500 µA.
    #[must_use]
    pub fn date2010_typical() -> Self {
        let i_c0 = Amps::from_micro(400.0);
        let delta = 40.0;
        let pulse_ns = 4.0_f64;
        // Solve I_c(4 ns) = 500 µA for τ_d:
        //   500/400 = 1 − ln(4)/Δ + τ_d/4ns  ⇒  τ_d = (0.25 + ln 4/Δ)·4 ns.
        let tau_dynamic_ns = (500.0 / 400.0 - 1.0 + pulse_ns.ln() / delta) * pulse_ns;
        Self::new(
            i_c0,
            delta,
            Seconds::from_nano(1.0),
            Seconds::from_nano(tau_dynamic_ns),
        )
    }

    /// Intrinsic critical current `I_c0`.
    #[must_use]
    pub fn i_c0(&self) -> Amps {
        self.i_c0
    }

    /// Thermal stability factor Δ.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Attempt time τ₀.
    #[must_use]
    pub fn tau0(&self) -> Seconds {
        self.tau0
    }

    /// Dynamic (precessional) overhead constant τ_d.
    #[must_use]
    pub fn tau_dynamic(&self) -> Seconds {
        self.tau_dynamic
    }

    /// Critical switching current for a pulse of width `pulse`.
    ///
    /// # Panics
    ///
    /// Panics if `pulse` is non-positive.
    fn critical_current(&self, pulse: Seconds) -> Amps {
        assert!(pulse.get() > 0.0, "pulse width must be positive");
        let thermal = (pulse / self.tau0).ln() / self.delta;
        let dynamic = self.tau_dynamic / pulse;
        // Thermal assistance cannot push the required current negative.
        (self.i_c0 * (1.0 - thermal + dynamic)).max(Amps::ZERO)
    }

    /// Probability that a current pulse of magnitude `i` and width `pulse`
    /// switches the junction.
    ///
    /// Above the critical current the switch is deterministic (probability
    /// 1); below it the Néel–Brown waiting time applies. Non-positive
    /// currents never switch.
    #[must_use]
    pub fn switching_probability(&self, i: Amps, pulse: Seconds) -> f64 {
        if i.get() <= 0.0 || pulse.get() <= 0.0 {
            return 0.0;
        }
        if i >= self.critical_current(pulse) {
            return 1.0;
        }
        let reduced_barrier = self.delta * (1.0 - i / self.i_c0);
        // I may exceed I_c0 while still below the short-pulse critical
        // current; the barrier is then gone and switching is rate-limited
        // only by precession. Model that as the attempt-time race.
        let mean_wait = self.tau0.get() * reduced_barrier.max(0.0).exp();
        -(-pulse.get() / mean_wait).exp_m1()
    }

    /// Probability that a *read* at current `i` for duration `pulse`
    /// disturbs (flips) the cell. Identical statistics to
    /// [`SwitchingModel::switching_probability`]; provided as a named
    /// operation because the sensing schemes reason about it explicitly.
    #[must_use]
    pub fn read_disturb_probability(&self, i: Amps, pulse: Seconds) -> f64 {
        self.switching_probability(i, pulse)
    }

    /// Mean thermally-activated retention time at zero applied current:
    /// `τ_ret = τ₀ · exp(Δ)` (Néel–Brown).
    ///
    /// With Δ = 40 and τ₀ = 1 ns this is ≈ 7.5 years — the nonvolatility
    /// the destructive self-reference scheme gambles away during its
    /// erase/write-back window.
    #[must_use]
    pub fn retention_mean_time(&self) -> Seconds {
        Seconds::new(self.tau0.get() * self.delta.exp())
    }

    /// Probability that an idle cell loses its state within `duration`
    /// (single-junction, zero bias): `1 − exp(−t/τ_ret)`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative.
    #[must_use]
    pub fn retention_failure_probability(&self, duration: Seconds) -> f64 {
        assert!(duration.get() >= 0.0, "duration must be non-negative");
        -(-duration.get() / self.retention_mean_time().get()).exp_m1()
    }

    /// Write error rate for a programming pulse: the probability the pulse
    /// fails to switch, `1 − P_switch(i, t_p)`.
    #[must_use]
    pub fn write_error_rate(&self, i: Amps, pulse: Seconds) -> f64 {
        1.0 - self.switching_probability(i, pulse)
    }

    /// The largest read current whose disturb probability over `pulse` stays
    /// at or below `p_target` — the paper's `I_max`.
    ///
    /// Inverts the Néel–Brown expression:
    /// `I = I_c0 · (1 − ln(τ/τ₀)/Δ)` with `τ = t_p / (−ln(1−p))`.
    ///
    /// # Panics
    ///
    /// Panics if `p_target` is not in `(0, 1)` or `pulse` is non-positive.
    #[must_use]
    pub fn max_safe_read_current(&self, pulse: Seconds, p_target: f64) -> Amps {
        assert!(
            p_target > 0.0 && p_target < 1.0,
            "disturb probability target must be in (0, 1)"
        );
        assert!(pulse.get() > 0.0, "pulse width must be positive");
        let required_wait = pulse.get() / -(1.0 - p_target).ln();
        let barrier = (required_wait / self.tau0.get()).ln();
        let current = self.i_c0 * (1.0 - barrier / self.delta);
        current.max(Amps::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn polarity_round_trips_through_state() {
        for state in [ResistanceState::Parallel, ResistanceState::AntiParallel] {
            assert_eq!(WritePolarity::for_state(state).target_state(), state);
        }
    }

    #[test]
    fn typical_matches_paper_anchor_point() {
        let model = SwitchingModel::date2010_typical();
        let i_c = model.critical_current(Seconds::from_nano(4.0));
        assert!((i_c.get() - 500e-6).abs() < 1e-12);
        // The paper's read budget: 200 µA is 40 % of that.
        assert!((Amps::from_micro(200.0) / i_c - 0.4).abs() < 1e-9);
    }

    #[test]
    fn critical_current_is_smooth_in_pulse_width() {
        // No regime discontinuity: neighbouring pulse widths give nearby
        // critical currents across four decades.
        let model = SwitchingModel::date2010_typical();
        let mut previous = model.critical_current(Seconds::from_nano(0.5));
        let mut t = 0.5e-9;
        while t < 5e-6 {
            let next_t = t * 1.01;
            let next = model.critical_current(Seconds::new(next_t));
            let jump = (previous.get() - next.get()).abs();
            assert!(jump < 0.05 * previous.get().max(1e-6), "jump at {next_t}");
            previous = next;
            t = next_t;
        }
    }

    #[test]
    fn shorter_pulses_need_more_current() {
        let model = SwitchingModel::date2010_typical();
        let fast = model.critical_current(Seconds::from_nano(1.0));
        let slow = model.critical_current(Seconds::from_nano(300.0));
        assert!(fast > slow);
        assert!(fast > model.i_c0(), "dynamic regime exceeds intrinsic I_c0");
        assert!(
            slow < model.i_c0(),
            "thermal regime dips below intrinsic I_c0"
        );
    }

    #[test]
    fn read_disturb_negligible_at_design_point() {
        let model = SwitchingModel::date2010_typical();
        let p = model.read_disturb_probability(Amps::from_micro(200.0), Seconds::from_nano(15.0));
        assert!(p < 1e-6, "design-point disturb probability {p}");
    }

    #[test]
    fn write_at_critical_current_switches_deterministically() {
        let model = SwitchingModel::date2010_typical();
        let pulse = Seconds::from_nano(4.0);
        let i_c = model.critical_current(pulse);
        assert_eq!(model.switching_probability(i_c, pulse), 1.0);
        assert_eq!(model.switching_probability(i_c * 1.2, pulse), 1.0);
    }

    #[test]
    fn negative_or_zero_current_never_switches() {
        let model = SwitchingModel::date2010_typical();
        let pulse = Seconds::from_nano(4.0);
        assert_eq!(model.switching_probability(Amps::ZERO, pulse), 0.0);
        assert_eq!(
            model.switching_probability(-Amps::from_micro(600.0), pulse),
            0.0
        );
    }

    #[test]
    fn retention_is_years_at_design_stability() {
        let model = SwitchingModel::date2010_typical();
        let tau = model.retention_mean_time().get();
        let years = tau / (365.25 * 24.0 * 3600.0);
        assert!((1.0..100.0).contains(&years), "retention {years} years");
        // A 15 ns read window risks essentially nothing.
        let p = model.retention_failure_probability(Seconds::from_nano(15.0));
        assert!(p < 1e-15);
        // …but a year of storage has a visible single-cell failure rate.
        let p_year = model.retention_failure_probability(Seconds::new(3.156e7));
        assert!(p_year > 1e-3, "per-cell yearly retention failure {p_year}");
    }

    #[test]
    fn write_error_rate_complements_switching() {
        let model = SwitchingModel::date2010_typical();
        let pulse = Seconds::from_nano(4.0);
        assert_eq!(model.write_error_rate(Amps::from_micro(600.0), pulse), 0.0);
        let marginal = model.write_error_rate(Amps::from_micro(450.0), pulse);
        assert!(marginal > 0.0 && marginal < 1.0, "marginal WER {marginal}");
        let weak = model.write_error_rate(Amps::from_micro(100.0), pulse);
        assert!(weak > 0.99, "weak pulses almost never switch: {weak}");
    }

    #[test]
    fn max_safe_read_current_inverts_disturb_probability() {
        let model = SwitchingModel::date2010_typical();
        let pulse = Seconds::from_nano(10.0);
        let target = 1e-9;
        let i_safe = model.max_safe_read_current(pulse, target);
        let p = model.read_disturb_probability(i_safe, pulse);
        assert!(
            (p / target - 1.0).abs() < 1e-6,
            "round-trip disturb probability {p} vs target {target}"
        );
    }

    proptest! {
        #[test]
        fn prop_critical_current_monotone_decreasing(
            t1 in 1e-9f64..1e-6, t2 in 1e-9f64..1e-6,
        ) {
            let model = SwitchingModel::date2010_typical();
            let (short, long) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(
                model.critical_current(Seconds::new(short))
                    >= model.critical_current(Seconds::new(long))
            );
        }

        #[test]
        fn prop_switching_probability_monotone_in_current(
            i1 in 0.0f64..800e-6, i2 in 0.0f64..800e-6, tp in 1e-9f64..100e-9,
        ) {
            let model = SwitchingModel::date2010_typical();
            let (low, high) = if i1 <= i2 { (i1, i2) } else { (i2, i1) };
            let pulse = Seconds::new(tp);
            prop_assert!(
                model.switching_probability(Amps::new(low), pulse)
                    <= model.switching_probability(Amps::new(high), pulse)
            );
        }

        #[test]
        fn prop_switching_probability_monotone_in_time(
            i in 1e-6f64..800e-6, t1 in 1e-9f64..100e-9, t2 in 1e-9f64..100e-9,
        ) {
            let model = SwitchingModel::date2010_typical();
            let (short, long) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(
                model.switching_probability(Amps::new(i), Seconds::new(short))
                    <= model.switching_probability(Amps::new(i), Seconds::new(long)) + 1e-15
            );
        }

        #[test]
        fn prop_probability_is_a_probability(
            i in -100e-6f64..900e-6, tp in 1e-9f64..1e-6,
        ) {
            let model = SwitchingModel::date2010_typical();
            let p = model.switching_probability(Amps::new(i), Seconds::new(tp));
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
