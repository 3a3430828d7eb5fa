//! Circuit-level auto-zero comparator — the paper's sense amplifier.
//!
//! §V: "an auto-zero sense-amplifier with a built-in data latch is used to
//! eliminate the influence of device mismatch in sense amplifier". The
//! behavioural [`crate::SenseAmplifier::auto_zero`] model assumes a small
//! residual offset; this module *derives* that residual from an actual
//! offset-cancelling circuit built in the workspace's MNA engine:
//!
//! ```text
//!            C_az      ┌──────────┐
//!  v_in ──a──┤├── b ──▷│ +A (V_os)│──── out
//!                 │    └──────────┘      │
//!                 └───────[S_az]─────────┘
//! ```
//!
//! * **Auto-zero phase**: the input is held at the reference level
//!   (`v_minus`), S_az closes the unity-feedback loop, and node `b` settles
//!   to ≈ `−V_os` — the cap stores the reference *plus* the offset.
//! * **Compare phase**: S_az opens, the input steps to `v_plus`; `b` floats,
//!   so it moves by exactly `v_plus − v_minus`, and the amplifier sees
//!   `Δv − V_os/(A−1)`: the offset is cancelled down to a `1/(A−1)`
//!   residual.
//!
//! With A = 1000 a 10 mV latch offset becomes a 10 µV residual — which is
//! why the self-reference sensing paths can resolve single-digit-mV margins
//! that a plain latch comparator (8 mV usable threshold) cannot.

use stt_mna::{AnalysisError, Circuit, Node, SwitchSchedule, TranOptions, Waveform};
use stt_units::{Farads, Ohms, Seconds, Volts};

/// Configuration of the auto-zero comparator netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoZeroNetlist {
    /// Open-loop gain of the preamp.
    pub gain: f64,
    /// Input-referred offset of this amplifier instance.
    pub offset: Volts,
    /// Offset-storage capacitor.
    pub c_az: Farads,
    /// Auto-zero switch on-resistance.
    pub switch_r_on: Ohms,
    /// Auto-zero switch off-resistance.
    pub switch_r_off: Ohms,
    /// Duration of the auto-zero phase.
    pub az_time: Seconds,
    /// Duration of the compare phase.
    pub compare_time: Seconds,
    /// Transient step size.
    pub dt: Seconds,
}

impl AutoZeroNetlist {
    /// Defaults: gain 1000, 100 fF storage cap, 500 Ω switch, 2 ns per
    /// phase. The offset is zero — set a concrete instance's mismatch with
    /// [`AutoZeroNetlist::with_offset`].
    #[must_use]
    pub fn new() -> Self {
        Self {
            gain: 1000.0,
            offset: Volts::ZERO,
            c_az: Farads::from_femto(100.0),
            switch_r_on: Ohms::new(500.0),
            switch_r_off: Ohms::from_mega(100_000.0),
            az_time: Seconds::from_nano(2.0),
            compare_time: Seconds::from_nano(2.0),
            dt: Seconds::from_pico(5.0),
        }
    }

    /// Sets the instance's input-referred offset.
    #[must_use]
    pub fn with_offset(mut self, offset: Volts) -> Self {
        self.offset = offset;
        self
    }

    /// Runs the two-phase compare: auto-zero against `v_minus`, then
    /// compare `v_plus` against it.
    ///
    /// # Errors
    ///
    /// Propagates MNA failures (the shipped defaults always converge).
    pub fn run(&self, v_plus: Volts, v_minus: Volts) -> Result<AutoZeroOutcome, AnalysisError> {
        let total = self.az_time + self.compare_time;
        let edge = Seconds::from_pico(100.0);

        let mut circuit = Circuit::new();
        let input = circuit.node("input");
        let cap_b = circuit.node("cap_b");
        let sense = circuit.node("sense");
        let out = circuit.node("out");

        // Input: reference level during auto-zero, the sensed level after.
        circuit.voltage_source(
            input,
            Node::GROUND,
            Waveform::pwl(vec![
                (Seconds::ZERO, v_minus.get()),
                (self.az_time, v_minus.get()),
                (self.az_time + edge, v_plus.get()),
                (total, v_plus.get()),
            ]),
        );
        circuit.capacitor(input, cap_b, self.c_az);
        // The amplifier's input offset in series with its sense node.
        circuit.voltage_source(sense, cap_b, Waveform::Dc(self.offset.get()));
        circuit.vcvs(out, Node::GROUND, sense, Node::GROUND, self.gain);
        // Unity feedback during the auto-zero phase.
        circuit.switch(
            out,
            cap_b,
            self.switch_r_on,
            self.switch_r_off,
            SwitchSchedule::new(true, vec![(self.az_time, false)]),
        );

        let tran = circuit.transient(&TranOptions::new(total, self.dt).from_zero_state())?;
        let sample_at = total - Seconds::from_pico(200.0);
        let output = Volts::new(tran.voltage_at(out, sample_at));
        Ok(AutoZeroOutcome {
            output,
            effective_input: output / self.gain,
            decision: output.get() > 0.0,
        })
    }

    /// The plain (no auto-zero) latch decision for contrast: the comparator
    /// simply sees `Δv + V_os`.
    #[must_use]
    pub fn run_plain(&self, v_plus: Volts, v_minus: Volts) -> AutoZeroOutcome {
        let effective = v_plus - v_minus + self.offset;
        AutoZeroOutcome {
            output: effective * self.gain,
            effective_input: effective,
            decision: effective.get() > 0.0,
        }
    }

    /// Runs the circuit with equal inputs and reports the measured residual
    /// input-referred offset (should be ≈ `V_os/(A−1)`).
    ///
    /// # Errors
    ///
    /// Propagates MNA failures.
    pub fn measured_residual(&self) -> Result<Volts, AnalysisError> {
        let level = Volts::from_milli(500.0);
        Ok(self.run(level, level)?.effective_input)
    }
}

impl Default for AutoZeroNetlist {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of one auto-zero compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoZeroOutcome {
    /// Amplifier output at the latch instant.
    pub output: Volts,
    /// Output referred back to the input (`output / A`).
    pub effective_input: Volts,
    /// The latched decision (`true` = `v_plus` judged above `v_minus`).
    pub decision: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_offset_decides_by_sign() {
        let sa = AutoZeroNetlist::new();
        let base = Volts::from_milli(500.0);
        let above = sa
            .run(base + Volts::from_milli(3.0), base)
            .expect("transient");
        assert!(above.decision);
        let below = sa
            .run(base - Volts::from_milli(3.0), base)
            .expect("transient");
        assert!(!below.decision);
    }

    #[test]
    fn offset_larger_than_margin_breaks_plain_but_not_auto_zero() {
        // The paper's scenario: nondestructive margins (~9 mV) below a
        // plain latch's worst-case offset.
        let sa = AutoZeroNetlist::new().with_offset(Volts::from_milli(-12.0));
        let base = Volts::from_milli(500.0);
        let margin = Volts::from_milli(5.0);
        let plain = sa.run_plain(base + margin, base);
        assert!(!plain.decision, "plain latch must misread a 5 mV margin");
        let auto_zeroed = sa.run(base + margin, base).expect("transient");
        assert!(auto_zeroed.decision, "auto-zero must recover it");
    }

    #[test]
    fn residual_matches_analytic_prediction() {
        let sa = AutoZeroNetlist::new().with_offset(Volts::from_milli(10.0));
        let measured = sa.measured_residual().expect("transient");
        // During auto-zero node `b` settles to `−A·V_os/(A−1)`, so the
        // compare phase sees `Δv − V_os/(A−1)`: the residual is the offset
        // negated and attenuated by `A − 1`.
        let predicted = -(sa.offset / (sa.gain - 1.0));
        assert!(
            (measured.get() - predicted.get()).abs() < 3e-6,
            "measured {measured} vs predicted {predicted}"
        );
        // A 10 mV offset becomes ~10 µV.
        assert!(measured.abs().get() < 20e-6);
    }

    #[test]
    fn cancellation_works_across_offset_polarity() {
        let base = Volts::from_milli(400.0);
        let margin = Volts::from_milli(2.0);
        for offset_mv in [-20.0, -8.0, 8.0, 20.0] {
            let sa = AutoZeroNetlist::new().with_offset(Volts::from_milli(offset_mv));
            let outcome = sa.run(base + margin, base).expect("transient");
            assert!(
                outcome.decision,
                "offset {offset_mv} mV flipped a +2 mV margin"
            );
            let outcome = sa.run(base - margin, base).expect("transient");
            assert!(
                !outcome.decision,
                "offset {offset_mv} mV flipped a −2 mV margin"
            );
        }
    }

    #[test]
    fn justifies_the_behavioural_thresholds() {
        // The behavioural SenseAmplifier::auto_zero() claims a 1 mV usable
        // threshold. The circuit: even a 3-σ plain-latch offset (9 mV)
        // leaves a residual far below 1 mV.
        let sa = AutoZeroNetlist::new().with_offset(Volts::from_milli(9.0));
        let residual = sa.measured_residual().expect("transient").abs();
        assert!(
            residual < Volts::from_milli(0.1),
            "residual {residual} must sit well under the 1 mV threshold"
        );
    }

    #[test]
    fn gain_accuracy_on_the_differential() {
        // Output ≈ A·Δv once the offset is cancelled.
        let sa = AutoZeroNetlist::new().with_offset(Volts::from_milli(7.0));
        let base = Volts::from_milli(500.0);
        let margin = Volts::from_milli(4.0);
        let outcome = sa.run(base + margin, base).expect("transient");
        let implied_margin = outcome.effective_input;
        assert!(
            (implied_margin.get() - margin.get()).abs() < 0.1e-3,
            "implied margin {implied_margin} vs true {margin}"
        );
    }
}
