//! Circuit-level validation: the Fig. 5 netlist and the Fig. 10 transient.
//!
//! The analytic margins of [`crate::margins`] assume ideal sampling and
//! settling. This module builds the paper's nondestructive sensing circuit
//! (Fig. 5) as an [`stt_mna`] netlist — read-current source, bit-line
//! capacitance, the 1T1J cell (bias-dependent MTJ via [`MtjLaw`] + level-1
//! access transistor), switch transistors SLT1/SLT2, sample capacitor C1 and
//! the high-impedance voltage divider — and runs the full two-phase read as
//! a transient, reproducing Fig. 10's "whole read operation can complete in
//! about 15 ns".

use std::sync::Arc;

use stt_array::Cell;
use stt_mna::{
    AnalysisError, Circuit, DeviceLaw, MosfetParams, Node, SwitchSchedule, TranOptions, TranResult,
    Waveform,
};
use stt_mtj::{MtjDevice, ResistanceModel, ResistanceState};
use stt_units::{Amps, Farads, Ohms, Seconds, Volts};

use crate::design::NondestructiveDesign;
use crate::timing::ChipTiming;

/// Adapts an [`MtjDevice`] (a bias-dependent resistance `R(I)`) into the
/// [`DeviceLaw`] `I(V)` form the MNA engine stamps.
///
/// The junction voltage satisfies `V = I·R(I)`, which is strictly increasing
/// in `I` for physical parameters, so the law is solved by monotone
/// bisection; odd symmetry (`I(−V) = −I(V)`) comes from solving on `|V|`.
#[derive(Debug, Clone)]
pub struct MtjLaw {
    device: MtjDevice,
    state: ResistanceState,
}

impl MtjLaw {
    /// Wraps a device pinned to the given stored state.
    #[must_use]
    pub fn new(device: MtjDevice, state: ResistanceState) -> Self {
        Self { device, state }
    }

    /// Solves `I` such that `I·R(I) = v` for `v ≥ 0`.
    fn solve_current(&self, v: f64) -> f64 {
        if v <= 0.0 {
            return 0.0;
        }
        let curve = self.device.curve();
        let voltage_at = |i: f64| i * curve.resistance(self.state, Amps::new(i)).get();
        // Bracket: start at the zero-bias estimate and double until the
        // junction voltage exceeds the target.
        let mut hi = v / curve.resistance(self.state, Amps::ZERO).get();
        let mut guard = 0;
        while voltage_at(hi) < v {
            hi *= 2.0;
            guard += 1;
            assert!(guard < 80, "MTJ law failed to bracket I for V = {v}");
        }
        let mut lo = 0.0;
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if voltage_at(mid) < v {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

impl DeviceLaw for MtjLaw {
    fn current(&self, v: f64) -> f64 {
        let magnitude = self.solve_current(v.abs());
        magnitude.copysign(v)
    }

    fn conductance(&self, v: f64) -> f64 {
        // Central difference on the solved I(V); the law is smooth.
        let dv = (v.abs() * 1e-4).max(1e-7);
        (self.current(v + dv) - self.current(v - dv)) / (2.0 * dv)
    }
}

/// Configuration of the Fig. 5 transient read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientRead {
    /// The nondestructive design point being exercised.
    pub design: NondestructiveDesign,
    /// Chip timing (phase durations, supply).
    pub timing: ChipTiming,
    /// Sample capacitor C1.
    pub c1: Farads,
    /// Lumped bit-line capacitance.
    pub bl_cap: Farads,
    /// Total divider impedance (the paper: "tens of MΩ", far above the
    /// cell, so its leakage is negligible).
    pub divider_total: Ohms,
    /// Switch transistor on-resistance.
    pub switch_r_on: Ohms,
    /// Switch transistor off-resistance.
    pub switch_r_off: Ohms,
    /// Word-line boost voltage driving the access transistor's gate.
    ///
    /// Memory arrays routinely boost the word-line above VDD; here it also
    /// keeps the access device deep in triode so its effective resistance
    /// shifts less between the two read currents (the self-induced `ΔR_T`
    /// that Fig. 7 shows the scheme is sensitive to).
    pub wl_boost: Volts,
    /// Access-transistor threshold voltage.
    pub vt: Volts,
    /// Transient step size.
    pub dt: Seconds,
}

impl TransientRead {
    /// Defaults matching the paper's test-chip description: C1 = 25 fF,
    /// ≈0.2 pF bit-line, 20 MΩ divider, 500 Ω switches.
    #[must_use]
    pub fn new(design: NondestructiveDesign) -> Self {
        Self {
            design,
            timing: ChipTiming::date2010(),
            c1: Farads::from_femto(25.0),
            bl_cap: Farads::from_femto(192.0),
            divider_total: Ohms::from_mega(20.0),
            switch_r_on: Ohms::new(500.0),
            switch_r_off: Ohms::from_mega(100_000.0),
            wl_boost: Volts::new(1.8),
            vt: Volts::new(0.4),
            dt: Seconds::from_pico(10.0),
        }
    }

    /// The level-1 parameters of the access transistor as instantiated in
    /// the netlist: calibrated so the *small-signal* on-resistance at the
    /// boosted gate drive equals the cell's nominal `R_T`.
    fn access_params(&self, cell: &Cell) -> MosfetParams {
        MosfetParams::with_on_resistance(
            cell.transistor().r_nominal(),
            self.wl_boost.get(),
            self.vt.get(),
        )
    }

    /// Builds the Fig. 5 netlist and returns the probe nodes.
    fn build_circuit(&self, cell: &Cell, state: ResistanceState) -> (Circuit, Fig5Nodes) {
        let timing = &self.timing;
        let t_read1_start = timing.decode;
        let t_read1_end = t_read1_start + timing.read_settle;
        let t_read2_end = t_read1_end + timing.read_settle;
        let t_sense_end = t_read2_end + timing.sense;
        let total = t_sense_end + timing.latch;
        let edge = Seconds::from_nano(0.2);

        let mut circuit = Circuit::new();
        let bl = circuit.node("bl");
        let cell_mid = circuit.node("cell_mid");
        let wl = circuit.node("wl");
        let c1_top = circuit.node("c1_top");
        let div_top = circuit.node("div_top");
        let v_bo = circuit.node("v_bo");

        // Read-current driver: I_R1 during the first window, I_R2 during
        // the second.
        let i1 = self.design.i_r1.get();
        let i2 = self.design.i_r2.get();
        circuit.current_source(
            bl,
            Node::GROUND,
            Waveform::pwl(vec![
                (t_read1_start, 0.0),
                (t_read1_start + edge, i1),
                (t_read1_end, i1),
                (t_read1_end + edge, i2),
                (t_read2_end, i2),
                (t_read2_end + edge, 0.0),
            ]),
        );
        circuit.capacitor(bl, Node::GROUND, self.bl_cap);

        // The 1T1J cell: MTJ (bias-dependent) in series with the access
        // transistor, word-line asserted for the whole operation.
        let law = MtjLaw::new(cell.device().clone(), state);
        circuit.nonlinear(bl, cell_mid, Arc::new(law));
        circuit.voltage_source(
            wl,
            Node::GROUND,
            Waveform::pulse(
                0.0,
                self.wl_boost.get(),
                Seconds::from_nano(0.1),
                Seconds::from_nano(0.1),
                Seconds::from_nano(0.1),
                total,
            ),
        );
        circuit.mosfet(cell_mid, wl, Node::GROUND, self.access_params(cell));

        // SLT1: samples V_BL1 onto C1 during the first read.
        circuit.switch(
            bl,
            c1_top,
            self.switch_r_on,
            self.switch_r_off,
            SwitchSchedule::closed_during(t_read1_start, t_read1_end),
        );
        circuit.capacitor(c1_top, Node::GROUND, self.c1);

        // SLT2 + divider: V_BO = α·V_BL during the second read.
        circuit.switch(
            bl,
            div_top,
            self.switch_r_on,
            self.switch_r_off,
            SwitchSchedule::closed_during(t_read1_end, t_read2_end + timing.sense),
        );
        let upper = self.divider_total * (1.0 - self.design.alpha);
        let lower = self.divider_total * self.design.alpha;
        circuit.resistor(div_top, v_bo, upper);
        circuit.resistor(v_bo, Node::GROUND, lower);

        (circuit, Fig5Nodes { bl, c1_top, v_bo })
    }

    /// Runs the Fig. 5 circuit for `cell` pinned to `state`.
    ///
    /// # Errors
    ///
    /// Propagates MNA analysis failures (which indicate a malformed
    /// configuration — the shipped defaults always converge).
    pub fn run(
        &self,
        cell: &Cell,
        state: ResistanceState,
    ) -> Result<TransientReadResult, AnalysisError> {
        let timing = &self.timing;
        let t_read1_end = timing.decode + timing.read_settle;
        let t_read2_end = t_read1_end + timing.read_settle;
        let total = t_read2_end + timing.sense + timing.latch;

        let (circuit, nodes) = self.build_circuit(cell, state);
        let tran = circuit.transient(&TranOptions::new(total, self.dt).from_zero_state())?;

        // SenEn fires at the end of the second read, while the current is
        // still applied.
        let t_sample = t_read2_end - Seconds::from_pico(50.0);
        let v_c1 = Volts::new(tran.voltage_at(nodes.c1_top, t_sample));
        let v_bo_sampled = Volts::new(tran.voltage_at(nodes.v_bo, t_sample));
        let differential = v_c1 - v_bo_sampled;
        Ok(TransientReadResult {
            tran,
            bl: nodes.bl,
            c1_top: nodes.c1_top,
            v_bo: nodes.v_bo,
            v_c1,
            v_bo_sampled,
            differential,
            bit: differential.get() > 0.0,
            total_time: total,
        })
    }
}

/// The probe nodes of the Fig. 5 netlist.
struct Fig5Nodes {
    bl: Node,
    c1_top: Node,
    v_bo: Node,
}

/// Configuration of the Fig. 3 (destructive self-reference) circuit, run as
/// a two-phase transient.
///
/// Phase A samples `V_BL1` onto C1 through SLT1 with the cell in its stored
/// state. The erase pulse is not electrically simulated (the write driver is
/// outside Fig. 3's sensing path; its time and energy are accounted by
/// [`ChipTiming`]). Phase B re-runs the bit-line with the cell pinned to the
/// erased (parallel) state at `I_R2`, sampling `V_BL2` onto C2 — **which
/// loads the bit-line**, the §V RC penalty. Each phase is its own
/// zero-state transient: C1 is off the line in phase B, so it is not
/// simulated there, and the `V_BL1` it holds is phase A's sampled voltage,
/// carried to the comparison as a number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DestructiveTransientRead {
    /// The destructive design point.
    pub design: crate::design::DestructiveDesign,
    /// Chip timing (phase durations, supply, write slots).
    pub timing: ChipTiming,
    /// Sample capacitors C1 and C2.
    pub sample_cap: Farads,
    /// Lumped bit-line capacitance.
    pub bl_cap: Farads,
    /// Switch transistor on-resistance.
    pub switch_r_on: Ohms,
    /// Switch transistor off-resistance.
    pub switch_r_off: Ohms,
    /// Word-line boost voltage.
    pub wl_boost: Volts,
    /// Access-transistor threshold voltage.
    pub vt: Volts,
    /// Transient step size.
    pub dt: Seconds,
}

impl DestructiveTransientRead {
    /// Defaults matching [`TransientRead::new`] (same bit-line, same
    /// switches) with 25 fF sample caps.
    #[must_use]
    pub fn new(design: crate::design::DestructiveDesign) -> Self {
        Self {
            design,
            timing: ChipTiming::date2010(),
            sample_cap: Farads::from_femto(25.0),
            bl_cap: Farads::from_femto(192.0),
            switch_r_on: Ohms::new(500.0),
            switch_r_off: Ohms::from_mega(100_000.0),
            wl_boost: Volts::new(1.8),
            vt: Volts::new(0.4),
            dt: Seconds::from_pico(10.0),
        }
    }

    fn access_params(&self, cell: &Cell) -> MosfetParams {
        MosfetParams::with_on_resistance(
            cell.transistor().r_nominal(),
            self.wl_boost.get(),
            self.vt.get(),
        )
    }

    /// One sampling phase: force `i_read` into the bit-line with the cell
    /// in `state`, close the sampling switch onto an empty cap, and return
    /// the sampled voltage plus the bit-line's 99 %-settling time.
    fn sampling_phase(
        &self,
        cell: &Cell,
        state: ResistanceState,
        i_read: Amps,
        extra_bl_load: Option<f64>,
    ) -> Result<PhaseOutcome, AnalysisError> {
        let settle = self.timing.read_settle;
        let start = Seconds::from_nano(0.2);
        let total = start + settle;
        let edge = Seconds::from_nano(0.1);

        let mut circuit = Circuit::new();
        let bl = circuit.node("bl");
        let cell_mid = circuit.node("cell_mid");
        let wl = circuit.node("wl");
        let hold = circuit.node("hold");

        circuit.current_source(
            bl,
            Node::GROUND,
            Waveform::pwl(vec![
                (start, 0.0),
                (start + edge, i_read.get()),
                (total, i_read.get()),
            ]),
        );
        circuit.capacitor(bl, Node::GROUND, self.bl_cap);
        circuit.nonlinear(
            bl,
            cell_mid,
            Arc::new(MtjLaw::new(cell.device().clone(), state)),
        );
        circuit.voltage_source(
            wl,
            Node::GROUND,
            Waveform::pulse(
                0.0,
                self.wl_boost.get(),
                Seconds::from_nano(0.05),
                Seconds::from_nano(0.05),
                Seconds::from_nano(0.05),
                total,
            ),
        );
        circuit.mosfet(cell_mid, wl, Node::GROUND, self.access_params(cell));
        circuit.switch(
            bl,
            hold,
            self.switch_r_on,
            self.switch_r_off,
            SwitchSchedule::closed_during(start, total),
        );
        circuit.capacitor(hold, Node::GROUND, self.sample_cap);
        // The *other* sample cap still hangs on the bit-line through its
        // off switch in phase A; in phase B the previously-charged C1 is
        // represented by its held value and is off the line. The §V loading
        // penalty is modelled by the extra load when present.
        if let Some(load) = extra_bl_load {
            circuit.capacitor(bl, Node::GROUND, Farads::new(load));
        }

        let tran = circuit.transient(&TranOptions::new(total, self.dt).from_zero_state())?;
        let sample_at = total - Seconds::from_pico(50.0);
        let sampled = Volts::new(tran.voltage_at(hold, sample_at));
        // 99 % settling time of the bit-line, measured from current-on.
        let final_v = tran.voltage_at(bl, sample_at);
        let threshold = 0.99 * final_v;
        let crossed = tran.crossing_time(bl, threshold, true).unwrap_or(total);
        Ok(PhaseOutcome {
            sampled,
            settle: crossed - start,
        })
    }

    /// Runs the two sampling phases and the comparison.
    ///
    /// # Errors
    ///
    /// Propagates MNA analysis failures.
    pub fn run(
        &self,
        cell: &Cell,
        state: ResistanceState,
    ) -> Result<DestructiveTransientResult, AnalysisError> {
        // Phase A: first read of the stored state, C1 samples; C2's off
        // switch leaves only negligible loading (ignored).
        let phase_a = self.sampling_phase(cell, state, self.design.i_r1, None)?;
        // Phase B: after the erase the cell is parallel; C2 samples at
        // I_R2. C1 (charged) is held off the line; C2 itself *is* the
        // sampling cap, and the line additionally carries C1's off-switch
        // parasitic — the §V penalty is dominated by C2, already included
        // as the sampling cap.
        let phase_b =
            self.sampling_phase(cell, ResistanceState::Parallel, self.design.i_r2, None)?;
        let differential = phase_a.sampled - phase_b.sampled;
        Ok(DestructiveTransientResult {
            v_c1: phase_a.sampled,
            v_c2: phase_b.sampled,
            differential,
            bit: differential.get() > 0.0,
            read1_settle: phase_a.settle,
            read2_settle: phase_b.settle,
        })
    }
}

/// One sampling phase's outcome.
struct PhaseOutcome {
    sampled: Volts,
    settle: Seconds,
}

/// Outcome of the Fig. 3 two-phase destructive transient read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DestructiveTransientResult {
    /// `V_BL1` sampled on C1 (stored state at `I_R1`).
    pub v_c1: Volts,
    /// `V_BL2` sampled on C2 (erased state at `I_R2`).
    pub v_c2: Volts,
    /// Comparator differential `V_C1 − V_C2`.
    pub differential: Volts,
    /// The latched bit.
    pub bit: bool,
    /// Bit-line 99 %-settling time of the first read.
    pub read1_settle: Seconds,
    /// Bit-line 99 %-settling time of the second read (C2 loads the line).
    pub read2_settle: Seconds,
}

/// The outcome of a Fig. 10 transient read, with full waveforms.
#[derive(Debug, Clone)]
pub struct TransientReadResult {
    /// The full transient (every node, every step).
    pub tran: TranResult,
    /// Bit-line node handle (for waveform extraction).
    pub bl: Node,
    /// C1 top-plate node handle.
    pub c1_top: Node,
    /// Divider-output node handle.
    pub v_bo: Node,
    /// Sampled C1 voltage at SenEn.
    pub v_c1: Volts,
    /// Divider output at SenEn.
    pub v_bo_sampled: Volts,
    /// Comparator differential `V_C1 − V_BO`.
    pub differential: Volts,
    /// The latched bit.
    pub bit: bool,
    /// End-to-end operation time.
    pub total_time: Seconds,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPoint;
    use stt_array::CellSpec;

    fn setup() -> (Cell, NondestructiveDesign) {
        let cell = CellSpec::date2010_chip().nominal_cell();
        let design = DesignPoint::date2010(&cell).nondestructive;
        (cell, design)
    }

    /// The *effective* access-transistor resistance (`V_DS / I_D`) of the
    /// netlist's level-1 device at drain current `i`. The triode law
    /// `I = k·(V_OV·V_DS − V_DS²/2)` is not linear, so the device adds a
    /// built-in `ΔR_T = R_T(I_R2) − R_T(I_R1)` of its own: the physical
    /// mechanism behind the paper's Fig. 7 sensitivity.
    fn effective_transistor_resistance(reader: &TransientRead, cell: &Cell, i: Amps) -> Ohms {
        let params = reader.access_params(cell);
        let vov = reader.wl_boost.get() - reader.vt.get();
        let discriminant = vov * vov - 2.0 * i.get() / params.k;
        assert!(
            discriminant > 0.0,
            "read current {i} exceeds the access device's triode range"
        );
        let v_ds = vov - discriminant.sqrt();
        Ohms::new(v_ds / i.get())
    }

    /// Analytic margins with the netlist's access device folded in: the
    /// cell's flat `R_T` becomes a linear fit through the effective
    /// resistances at the two read currents, so the closed form sees the
    /// same `R_T1`/`R_T2` the transient does.
    fn analytic_margins_with_access_device(
        reader: &TransientRead,
        cell: &Cell,
    ) -> crate::margins::SenseMargins {
        let design = &reader.design;
        let r_t1 = effective_transistor_resistance(reader, cell, design.i_r1);
        let r_t2 = effective_transistor_resistance(reader, cell, design.i_r2);
        let slope = (r_t2 - r_t1).get() / (design.i_r2 - design.i_r1).get();
        let r_at_zero = Ohms::new(r_t1.get() - slope * design.i_r1.get());
        let adapted = Cell::new(
            cell.device().clone(),
            stt_array::AccessTransistor::new(r_at_zero, slope),
        );
        design.margins(&adapted, &crate::margins::Perturbations::NONE)
    }

    /// −3 dB corner of `V_BO` mid-read-2: the Fig. 5 netlist biased with
    /// SLT2 closed and `I_R2` flowing (the MTJ linearised at its operating
    /// point), driven by a unit AC current into the bit-line.
    fn bitline_bandwidth(reader: &TransientRead, cell: &Cell, state: ResistanceState) -> f64 {
        let timing = &reader.timing;
        let bias = timing.decode + timing.read_settle * 1.5;
        let (circuit, nodes) = reader.build_circuit(cell, state);
        let sweep = circuit
            .ac_sweep_with(
                stt_mna::AcStimulus::Current {
                    pos: nodes.bl,
                    neg: Node::GROUND,
                },
                &stt_mna::log_frequency_grid(1e5, 1e12, 20),
                bias,
            )
            .expect("ac converges");
        sweep.corner_frequency(nodes.v_bo).unwrap_or(f64::INFINITY)
    }

    #[test]
    fn mtj_law_round_trips_through_resistance() {
        let (cell, _) = setup();
        let law = MtjLaw::new(cell.device().clone(), ResistanceState::AntiParallel);
        // At 200 µA the high state is 2450 Ω ⇒ V = 0.49 V.
        let v = 200e-6 * 2450.0;
        let i = law.current(v);
        assert!((i - 200e-6).abs() < 1e-9, "solved current {i}");
        // Odd symmetry.
        assert!((law.current(-v) + i).abs() < 1e-12);
        // Conductance is near 1/R but above it (R falls with I).
        let g = law.conductance(v);
        assert!(g > 1.0 / 2450.0);
        assert!(g < 1.5 / 2450.0, "conductance {g}");
    }

    #[test]
    fn mtj_law_zero_voltage_zero_current() {
        let (cell, _) = setup();
        let law = MtjLaw::new(cell.device().clone(), ResistanceState::Parallel);
        assert_eq!(law.current(0.0), 0.0);
        assert!(law.conductance(0.0) > 0.0);
    }

    #[test]
    fn transient_read_recovers_both_states() {
        let (cell, design) = setup();
        let reader = TransientRead::new(design);
        let high = reader
            .run(&cell, ResistanceState::AntiParallel)
            .expect("transient converges");
        assert!(high.bit, "stored 1 must read 1: diff {}", high.differential);
        let low = reader
            .run(&cell, ResistanceState::Parallel)
            .expect("transient converges");
        assert!(!low.bit, "stored 0 must read 0: diff {}", low.differential);
    }

    #[test]
    fn transient_completes_in_about_15ns() {
        let (cell, design) = setup();
        let result = TransientRead::new(design)
            .run(&cell, ResistanceState::AntiParallel)
            .expect("transient converges");
        let t = result.total_time.get();
        assert!((13e-9..16e-9).contains(&t), "paper: ≈15 ns; got {t}");
    }

    #[test]
    fn transient_differential_matches_analytic_margin() {
        // The circuit-level differential must agree with the closed form —
        // once the closed form is given the same access device the netlist
        // instantiates (whose triode curvature contributes a built-in ΔR_T;
        // the flat-R_T idealisation is several mV off, which is itself the
        // Fig. 7 robustness message).
        let (cell, design) = setup();
        let reader = TransientRead::new(design);
        let analytic = analytic_margins_with_access_device(&reader, &cell);
        let high = reader
            .run(&cell, ResistanceState::AntiParallel)
            .expect("transient converges");
        let err1 = (high.differential.get() - analytic.margin1.get()).abs();
        assert!(
            err1 < 1e-3,
            "stored-1 differential {} vs analytic {}",
            high.differential,
            analytic.margin1
        );
        let low = reader
            .run(&cell, ResistanceState::Parallel)
            .expect("transient converges");
        let err0 = (low.differential.abs().get() - analytic.margin0.get()).abs();
        assert!(
            err0 < 1e-3,
            "stored-0 differential {} vs analytic {}",
            low.differential,
            analytic.margin0
        );
    }

    #[test]
    fn bitline_bandwidth_supports_the_read_window() {
        // The −3 dB corner of V_BO mid-read-2 must clear the settling
        // requirement of the 5 ns window by a wide margin: for 1 % settling
        // in 5 ns, τ ≤ 5 ns / ln(100) ⇒ f_c ≥ ln(100)/(2π·5 ns) ≈ 147 MHz.
        let (cell, design) = setup();
        let reader = TransientRead::new(design);
        let f_c = bitline_bandwidth(&reader, &cell, ResistanceState::AntiParallel);
        let required = 100f64.ln() / (2.0 * std::f64::consts::PI * 5e-9);
        assert!(
            f_c > required,
            "corner {f_c:.3e} Hz below the {required:.3e} Hz settling requirement"
        );
        // Sanity: the pole is set by the cell driving the bit-line cap —
        // a few hundred MHz, not tens of GHz.
        assert!(f_c < 20e9, "corner {f_c:.3e} Hz suspiciously high");
    }

    #[test]
    fn access_device_induces_its_own_delta_rt() {
        // The triode law's curvature: R_T(I_R2) > R_T(I_R1). With the
        // boosted word-line the shift stays within the scheme's allowable
        // ΔR_T window (≈ ±93 Ω on this device, Table II).
        let (cell, design) = setup();
        let reader = TransientRead::new(design);
        let r_t1 = effective_transistor_resistance(&reader, &cell, design.i_r1);
        let r_t2 = effective_transistor_resistance(&reader, &cell, design.i_r2);
        assert!(r_t2 > r_t1);
        let delta = (r_t2 - r_t1).get();
        assert!(
            (10.0..90.0).contains(&delta),
            "self-induced ΔR_T = {delta} Ω"
        );
        // Without the boost (gate at VDD = 1.2 V) the shift would be about
        // twice as large — the reason the netlist boosts the word-line.
        let mut unboosted = reader;
        unboosted.wl_boost = Volts::new(1.2);
        let delta_unboosted = (effective_transistor_resistance(&unboosted, &cell, design.i_r2)
            - effective_transistor_resistance(&unboosted, &cell, design.i_r1))
        .get();
        assert!(
            delta_unboosted > 1.5 * delta,
            "unboosted ΔR_T {delta_unboosted}"
        );
    }

    #[test]
    fn c1_holds_its_sample_through_the_second_read() {
        let (cell, design) = setup();
        let reader = TransientRead::new(design);
        let result = reader
            .run(&cell, ResistanceState::AntiParallel)
            .expect("transient converges");
        let timing = reader.timing;
        let t_hold_start = timing.decode + timing.read_settle;
        let v_at_open = result.tran.voltage_at(result.c1_top, t_hold_start);
        let droop = (v_at_open - result.v_c1.get()).abs();
        assert!(droop < 1e-3, "C1 droop {droop} V during hold");
    }

    #[test]
    fn destructive_transient_recovers_both_states() {
        let (cell, _) = setup();
        let design = DesignPoint::date2010(&cell).destructive;
        let reader = DestructiveTransientRead::new(design);
        let high = reader
            .run(&cell, ResistanceState::AntiParallel)
            .expect("transient converges");
        assert!(high.bit, "stored 1: differential {}", high.differential);
        let low = reader
            .run(&cell, ResistanceState::Parallel)
            .expect("transient converges");
        assert!(!low.bit, "stored 0: differential {}", low.differential);
    }

    #[test]
    fn destructive_transient_matches_analytic_margin_scale() {
        // The destructive differential is the ~90 mV margin — an order of
        // magnitude above the nondestructive one, as in Table I.
        let (cell, _) = setup();
        let design = DesignPoint::date2010(&cell);
        let destructive = DestructiveTransientRead::new(design.destructive)
            .run(&cell, ResistanceState::AntiParallel)
            .expect("transient converges");
        let nondestructive = TransientRead::new(design.nondestructive)
            .run(&cell, ResistanceState::AntiParallel)
            .expect("transient converges");
        let ratio = destructive.differential.get() / nondestructive.differential.get();
        assert!(
            (5.0..30.0).contains(&ratio),
            "margin ratio {ratio} (destructive {} vs nondestructive {})",
            destructive.differential,
            nondestructive.differential
        );
    }

    #[test]
    fn second_read_settles_slower_with_the_sample_cap() {
        // §V: C2 on the bit-line slows the destructive second read, while
        // the nondestructive divider loads the line negligibly. Compare the
        // destructive phase-B settle against a divider-loaded read at the
        // same current.
        let (cell, _) = setup();
        let design = DesignPoint::date2010(&cell);
        let destructive = DestructiveTransientRead::new(design.destructive)
            .run(&cell, ResistanceState::Parallel)
            .expect("transient converges");
        // The sampling cap adds to the charging burden: settle must exceed
        // the bare-line RC estimate but stay inside the 5 ns window.
        assert!(destructive.read2_settle.get() > 1e-9);
        assert!(destructive.read2_settle < reader_settle_budget());
        // And the second read (bigger cap-to-settle at higher current)
        // settles no faster than the first.
        assert!(destructive.read2_settle.get() > 0.8 * destructive.read1_settle.get());
    }

    fn reader_settle_budget() -> Seconds {
        ChipTiming::date2010().read_settle
    }

    #[test]
    fn bitline_steps_up_between_reads_for_stored_one() {
        // V_BL(I_R2) > V_BL(I_R1): the second read pushes the bit-line up
        // even though R_H falls — the current more than doubles.
        let (cell, design) = setup();
        let result = TransientRead::new(design)
            .run(&cell, ResistanceState::AntiParallel)
            .expect("transient converges");
        let timing = ChipTiming::date2010();
        let mid_read1 = timing.decode + timing.read_settle * 0.9;
        let mid_read2 = timing.decode + timing.read_settle * 1.9;
        let v1 = result.tran.voltage_at(result.bl, mid_read1);
        let v2 = result.tran.voltage_at(result.bl, mid_read2);
        assert!(v2 > v1, "V_BL2 {v2} should exceed V_BL1 {v1}");
    }
}
