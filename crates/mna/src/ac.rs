//! AC (small-signal, frequency-domain) analysis.
//!
//! Linearises the circuit around a DC operating point (sources and switch
//! states evaluated at a chosen bias instant), replaces capacitors with
//! their `jωC` admittances, drives one designated voltage source with a
//! unit AC phasor, and solves the complex MNA system per frequency.
//!
//! In this workspace AC analysis cross-validates the time-domain results:
//! the bit-line/sample-capacitor pole predicted here must match the settling
//! the transient engine shows (see the integration tests), and it exposes
//! the bandwidth cost of loading the bit-line with the destructive scheme's
//! sample capacitors.

use stt_units::Seconds;

use crate::circuit::{Circuit, Element, Node, SourceId};
use crate::engine::{mosfet_linearisation, AnalysisError, GMIN};
use crate::matrix::{Complex, ComplexMatrix};

/// The small-signal stimulus of an AC sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AcStimulus {
    /// A designated voltage source carries a 1 V AC phasor.
    Voltage(SourceId),
    /// A 1 A AC phasor is injected into `pos` and returned from `neg`
    /// (the natural stimulus for the current-driven bit-lines here).
    Current {
        /// Injection node.
        pos: Node,
        /// Return node.
        neg: Node,
    },
}

/// Result of an AC sweep: one phasor per node per frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct AcResult {
    frequencies: Vec<f64>,
    /// `phasors[frequency_index][node_index]` (ground included as 0).
    phasors: Vec<Vec<Complex>>,
}

impl AcResult {
    /// The magnitude response of `node` across the sweep.
    #[must_use]
    pub fn magnitude(&self, node: Node) -> Vec<f64> {
        self.phasors
            .iter()
            .map(|row| row[node.index()].magnitude())
            .collect()
    }

    /// The first frequency (Hz) at which `node`'s magnitude falls below
    /// `1/√2` of its value at the lowest swept frequency (the −3 dB
    /// corner), interpolated in log-frequency. `None` when the response
    /// never rolls off within the sweep.
    #[must_use]
    pub fn corner_frequency(&self, node: Node) -> Option<f64> {
        let magnitudes = self.magnitude(node);
        let reference = magnitudes.first().copied()?;
        let target = reference / std::f64::consts::SQRT_2;
        for k in 1..magnitudes.len() {
            if magnitudes[k - 1] >= target && magnitudes[k] < target {
                let (f0, f1) = (self.frequencies[k - 1], self.frequencies[k]);
                let (m0, m1) = (magnitudes[k - 1], magnitudes[k]);
                let fraction = (m0 - target) / (m0 - m1);
                let log_f = f0.ln() + fraction * (f1.ln() - f0.ln());
                return Some(log_f.exp());
            }
        }
        None
    }
}

impl Circuit {
    /// Runs an AC sweep with a unit voltage stimulus on `ac_source`.
    /// Convenience wrapper over [`Circuit::ac_sweep_with`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] if the DC operating point fails or the
    /// complex system is singular at some frequency.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty or contains a non-positive value.
    pub fn ac_sweep(
        &self,
        ac_source: SourceId,
        frequencies: &[f64],
        bias_time: Seconds,
    ) -> Result<AcResult, AnalysisError> {
        self.ac_sweep_with(AcStimulus::Voltage(ac_source), frequencies, bias_time)
    }

    /// Runs an AC sweep: the chosen stimulus carries a unit AC phasor,
    /// every other independent source is AC-quiet, and nonlinear elements
    /// are linearised around the DC operating point with sources evaluated
    /// at `bias_time` (which also freezes switch states).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] if the DC operating point fails or the
    /// complex system is singular at some frequency.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty or contains a non-positive value.
    pub fn ac_sweep_with(
        &self,
        stimulus: AcStimulus,
        frequencies: &[f64],
        bias_time: Seconds,
    ) -> Result<AcResult, AnalysisError> {
        assert!(!frequencies.is_empty(), "AC sweep needs frequencies");
        assert!(
            frequencies.iter().all(|&f| f > 0.0),
            "AC frequencies must be positive"
        );
        let op = self.dc_operating_point(bias_time)?;
        let nodes = self.node_count();
        let dim = (nodes - 1) + self.vsource_count;

        let voltage_of = |node: Node| op.voltage(node);

        let mut phasors = Vec::with_capacity(frequencies.len());
        for &frequency in frequencies {
            let omega = 2.0 * std::f64::consts::PI * frequency;
            let mut matrix = ComplexMatrix::zeros(dim);
            let mut rhs = vec![Complex::ZERO; dim];

            let row = Self::node_row;
            let stamp_admittance = |matrix: &mut ComplexMatrix, a: Node, b: Node, y: Complex| {
                if let Some(row_a) = row(a) {
                    matrix.stamp(row_a, row_a, y);
                    if let Some(row_b) = row(b) {
                        matrix.stamp(row_a, row_b, -y);
                        matrix.stamp(row_b, row_a, -y);
                    }
                }
                if let Some(row_b) = row(b) {
                    matrix.stamp(row_b, row_b, y);
                }
            };

            for node_row in 0..(nodes - 1) {
                matrix.stamp(node_row, node_row, Complex::real(GMIN));
            }
            if let AcStimulus::Current { pos, neg } = stimulus {
                if let Some(r) = Self::node_row(pos) {
                    rhs[r] += Complex::ONE;
                }
                if let Some(r) = Self::node_row(neg) {
                    rhs[r] -= Complex::ONE;
                }
            }

            for element in &self.elements {
                match element {
                    Element::Resistor { a, b, ohms } => {
                        stamp_admittance(&mut matrix, *a, *b, Complex::real(1.0 / ohms));
                    }
                    Element::Switch {
                        a,
                        b,
                        r_on,
                        r_off,
                        schedule,
                    } => {
                        let resistance = if schedule.state_at(bias_time) {
                            *r_on
                        } else {
                            *r_off
                        };
                        stamp_admittance(&mut matrix, *a, *b, Complex::real(1.0 / resistance));
                    }
                    Element::Capacitor { a, b, farads } => {
                        stamp_admittance(&mut matrix, *a, *b, Complex::imaginary(omega * farads));
                    }
                    Element::VoltageSource {
                        pos, neg, branch, ..
                    } => {
                        let branch_row = (nodes - 1) + branch;
                        if let Some(r) = row(*pos) {
                            matrix.stamp(r, branch_row, Complex::ONE);
                            matrix.stamp(branch_row, r, Complex::ONE);
                        }
                        if let Some(r) = row(*neg) {
                            matrix.stamp(r, branch_row, -Complex::ONE);
                            matrix.stamp(branch_row, r, -Complex::ONE);
                        }
                        if let AcStimulus::Voltage(source) = stimulus {
                            if *branch == source.0 {
                                rhs[branch_row] = Complex::ONE;
                            }
                        }
                    }
                    Element::CurrentSource { .. } => {
                        // AC-quiet: contributes nothing to the small-signal
                        // system.
                    }
                    Element::Mosfet {
                        drain,
                        gate,
                        source,
                        params,
                    } => {
                        let lin = mosfet_linearisation(
                            params,
                            voltage_of(*drain),
                            voltage_of(*gate),
                            voltage_of(*source),
                        );
                        let (d, s) = if lin.swapped {
                            (*source, *drain)
                        } else {
                            (*drain, *source)
                        };
                        let gm = Complex::real(lin.gm);
                        let gds = Complex::real(lin.gds);
                        if let Some(row_d) = row(d) {
                            if let Some(row_g) = row(*gate) {
                                matrix.stamp(row_d, row_g, gm);
                            }
                            matrix.stamp(row_d, row_d, gds);
                            if let Some(row_s) = row(s) {
                                matrix.stamp(row_d, row_s, -(gm + gds));
                            }
                        }
                        if let Some(row_s) = row(s) {
                            if let Some(row_g) = row(*gate) {
                                matrix.stamp(row_s, row_g, -gm);
                            }
                            if let Some(row_d) = row(d) {
                                matrix.stamp(row_s, row_d, -gds);
                            }
                            matrix.stamp(row_s, row_s, gm + gds);
                        }
                    }
                    Element::Nonlinear { a, b, law } => {
                        let v = voltage_of(*a) - voltage_of(*b);
                        let g = law.conductance(v).max(GMIN);
                        stamp_admittance(&mut matrix, *a, *b, Complex::real(g));
                    }
                    Element::Vcvs {
                        out_pos,
                        out_neg,
                        in_pos,
                        in_neg,
                        gain,
                        branch,
                    } => {
                        let branch_row = (nodes - 1) + branch;
                        if let Some(r) = row(*out_pos) {
                            matrix.stamp(r, branch_row, Complex::ONE);
                            matrix.stamp(branch_row, r, Complex::ONE);
                        }
                        if let Some(r) = row(*out_neg) {
                            matrix.stamp(r, branch_row, -Complex::ONE);
                            matrix.stamp(branch_row, r, -Complex::ONE);
                        }
                        if let Some(r) = row(*in_pos) {
                            matrix.stamp(branch_row, r, Complex::real(-gain));
                        }
                        if let Some(r) = row(*in_neg) {
                            matrix.stamp(branch_row, r, Complex::real(*gain));
                        }
                    }
                }
            }

            let solution = matrix
                .solve(&rhs)
                .map_err(|source| AnalysisError::Singular {
                    source,
                    time: bias_time,
                })?;
            let mut node_phasors = vec![Complex::ZERO; nodes];
            node_phasors[1..nodes].copy_from_slice(&solution[..(nodes - 1)]);
            phasors.push(node_phasors);
        }

        Ok(AcResult {
            frequencies: frequencies.to_vec(),
            phasors,
        })
    }
}

/// Builds a logarithmic frequency grid from `start` to `stop` Hz with
/// `points_per_decade` points per decade.
///
/// # Panics
///
/// Panics unless `0 < start < stop` and `points_per_decade > 0`.
#[must_use]
pub fn log_frequency_grid(start: f64, stop: f64, points_per_decade: usize) -> Vec<f64> {
    assert!(start > 0.0 && start < stop, "need 0 < start < stop");
    assert!(points_per_decade > 0, "need at least one point per decade");
    let decades = (stop / start).log10();
    let total = (decades * points_per_decade as f64).ceil() as usize;
    (0..=total)
        .map(|k| start * 10f64.powf(k as f64 / points_per_decade as f64))
        .take_while(|&f| f <= stop * (1.0 + 1e-12))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use stt_units::{Farads, Ohms};

    #[test]
    fn rc_lowpass_corner_matches_analytic() {
        // R = 1 kΩ, C = 1 pF ⇒ f_c = 1/(2πRC) ≈ 159.15 MHz.
        let mut circuit = Circuit::new();
        let input = circuit.node("in");
        let output = circuit.node("out");
        let source = circuit.voltage_source(input, Node::GROUND, Waveform::Dc(0.0));
        circuit.resistor(input, output, Ohms::from_kilo(1.0));
        circuit.capacitor(output, Node::GROUND, Farads::from_pico(1.0));
        let grid = log_frequency_grid(1e6, 1e10, 40);
        let result = circuit
            .ac_sweep(source, &grid, Seconds::ZERO)
            .expect("linear sweep");
        // Low-frequency gain is unity.
        assert!((result.magnitude(output)[0] - 1.0).abs() < 1e-3);
        let f_c = result.corner_frequency(output).expect("rolls off");
        let analytic = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-12);
        assert!(
            (f_c / analytic - 1.0).abs() < 0.05,
            "corner {f_c} vs analytic {analytic}"
        );
    }

    #[test]
    fn phase_at_the_corner_is_minus_45_degrees() {
        let mut circuit = Circuit::new();
        let input = circuit.node("in");
        let output = circuit.node("out");
        let source = circuit.voltage_source(input, Node::GROUND, Waveform::Dc(0.0));
        circuit.resistor(input, output, Ohms::from_kilo(1.0));
        circuit.capacitor(output, Node::GROUND, Farads::from_pico(1.0));
        let f_c = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-12);
        let result = circuit
            .ac_sweep(source, &[f_c], Seconds::ZERO)
            .expect("single point");
        let phase = result.phasors[0][output.index()].phase().to_degrees();
        assert!((phase + 45.0).abs() < 1.0, "phase {phase}°");
    }

    #[test]
    fn divider_is_frequency_flat() {
        let mut circuit = Circuit::new();
        let input = circuit.node("in");
        let tap = circuit.node("tap");
        let source = circuit.voltage_source(input, Node::GROUND, Waveform::Dc(0.0));
        circuit.resistor(input, tap, Ohms::from_mega(10.0));
        circuit.resistor(tap, Node::GROUND, Ohms::from_mega(10.0));
        let result = circuit
            .ac_sweep(source, &log_frequency_grid(1e3, 1e9, 10), Seconds::ZERO)
            .expect("sweep");
        for magnitude in result.magnitude(tap) {
            // GMIN on the tap node shifts a 10 MΩ divider by ~5 ppm.
            assert!((magnitude - 0.5).abs() < 1e-5, "divider gain {magnitude}");
        }
        assert!(result.corner_frequency(tap).is_none(), "no corner to find");
    }

    #[test]
    fn vcvs_gain_is_flat_and_real() {
        let mut circuit = Circuit::new();
        let input = circuit.node("in");
        let out = circuit.node("out");
        let source = circuit.voltage_source(input, Node::GROUND, Waveform::Dc(0.0));
        circuit.vcvs(out, Node::GROUND, input, Node::GROUND, 42.0);
        circuit.resistor(out, Node::GROUND, Ohms::from_kilo(1.0));
        let result = circuit
            .ac_sweep(source, &[1e6, 1e9], Seconds::ZERO)
            .expect("sweep");
        for index in 0..2 {
            let phasor = result.phasors[index][out.index()];
            assert!((phasor.re - 42.0).abs() < 1e-9);
            assert!(phasor.im.abs() < 1e-9);
        }
    }

    #[test]
    fn switch_state_follows_bias_time() {
        use crate::circuit::SwitchSchedule;
        let mut circuit = Circuit::new();
        let input = circuit.node("in");
        let output = circuit.node("out");
        let source = circuit.voltage_source(input, Node::GROUND, Waveform::Dc(0.0));
        circuit.switch(
            input,
            output,
            Ohms::new(1.0),
            Ohms::from_mega(1_000_000.0),
            SwitchSchedule::closed_during(Seconds::from_nano(5.0), Seconds::from_nano(10.0)),
        );
        circuit.resistor(output, Node::GROUND, Ohms::from_kilo(1.0));
        let open = circuit
            .ac_sweep(source, &[1e6], Seconds::ZERO)
            .expect("open");
        let closed = circuit
            .ac_sweep(source, &[1e6], Seconds::from_nano(7.0))
            .expect("closed");
        assert!(open.magnitude(output)[0] < 1e-3);
        assert!((closed.magnitude(output)[0] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn current_stimulus_sees_the_impedance() {
        // A 1 A AC current into R ∥ C reads the node impedance directly:
        // |Z| = R/√(1+(ωRC)²), with the corner at 1/(2πRC).
        let mut circuit = Circuit::new();
        let node = circuit.node("bl");
        circuit.resistor(node, Node::GROUND, Ohms::from_kilo(3.0));
        circuit.capacitor(node, Node::GROUND, Farads::from_femto(200.0));
        let grid = log_frequency_grid(1e6, 1e12, 30);
        let result = circuit
            .ac_sweep_with(
                AcStimulus::Current {
                    pos: node,
                    neg: Node::GROUND,
                },
                &grid,
                Seconds::ZERO,
            )
            .expect("sweep");
        // Low-frequency magnitude = R.
        assert!((result.magnitude(node)[0] - 3000.0).abs() < 1.0);
        let f_c = result.corner_frequency(node).expect("pole");
        let analytic = 1.0 / (2.0 * std::f64::consts::PI * 3000.0 * 200e-15);
        assert!(
            (f_c / analytic - 1.0).abs() < 0.05,
            "corner {f_c} vs {analytic}"
        );
    }

    #[test]
    fn voltage_and_current_stimulus_agree_through_thevenin() {
        // Driving a resistor divider with 1 V vs 1 A through the Norton
        // equivalent must produce proportional node responses.
        let build = || {
            let mut circuit = Circuit::new();
            let a = circuit.node("a");
            let b = circuit.node("b");
            circuit.resistor(a, b, Ohms::from_kilo(1.0));
            circuit.resistor(b, Node::GROUND, Ohms::from_kilo(1.0));
            (circuit, a, b)
        };
        // Voltage drive at node a.
        let (mut vc, a, b) = build();
        let source = vc.voltage_source(a, Node::GROUND, crate::waveform::Waveform::Dc(0.0));
        let v = vc.ac_sweep(source, &[1e6], Seconds::ZERO).expect("v");
        let gain_v = v.phasors[0][b.index()].magnitude() / v.phasors[0][a.index()].magnitude();
        // Current drive into node a.
        let (ic, a2, b2) = build();
        let i = ic
            .ac_sweep_with(
                AcStimulus::Current {
                    pos: a2,
                    neg: Node::GROUND,
                },
                &[1e6],
                Seconds::ZERO,
            )
            .expect("i");
        let gain_i = i.phasors[0][b2.index()].magnitude() / i.phasors[0][a2.index()].magnitude();
        assert!((gain_v - 0.5).abs() < 1e-9);
        assert!(
            (gain_v - gain_i).abs() < 1e-9,
            "transfer ratio is drive-independent"
        );
    }

    #[test]
    fn log_grid_shape() {
        let grid = log_frequency_grid(1e3, 1e6, 10);
        assert_eq!(grid.len(), 31);
        assert!((grid[0] - 1e3).abs() < 1e-9);
        assert!((grid[30] - 1e6).abs() / 1e6 < 1e-9);
        // Evenly spaced in log: constant ratio.
        let ratio = grid[1] / grid[0];
        for pair in grid.windows(2) {
            assert!((pair[1] / pair[0] - ratio).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_frequency() {
        let mut circuit = Circuit::new();
        let a = circuit.node("a");
        let source = circuit.voltage_source(a, Node::GROUND, Waveform::Dc(0.0));
        circuit.resistor(a, Node::GROUND, Ohms::new(1.0));
        let _ = circuit.ac_sweep(source, &[0.0], Seconds::ZERO);
    }
}
