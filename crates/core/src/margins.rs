//! Sense-margin arithmetic — the analytical core of the paper.
//!
//! All three schemes reduce, per bit, to comparing two voltages; the *sense
//! margin* for a stored value is how far the comparison sits on the correct
//! side. With the cell's bias-dependent resistances `R_{H,L}(I)` and access
//! transistor `R_T(I)` (Eq. 1: `V_BL = I·(R + R_T)`):
//!
//! * **Conventional** (shared reference `V_REF`):
//!   `SM1 = V_BL(H, I_R) − V_REF`, `SM0 = V_REF − V_BL(L, I_R)` — Eq. (2).
//! * **Destructive self-reference** (second read on the erased, low state):
//!   `SM1 = V_BL(H, I_R1) − V_BL2`, `SM0 = V_BL2 − V_BL(L, I_R1)` with
//!   `V_BL2 = I_R2·(R_L(I_R2) + R_T2)` — Eqs. (3)/(4).
//! * **Nondestructive self-reference** (divided second read of the *same*
//!   state): `SM1 = V_BL(H, I_R1) − α·V_BL(H, I_R2)`,
//!   `SM0 = α·V_BL(L, I_R2) − V_BL(L, I_R1)` — Eqs. (8)/(9).
//!
//! [`Perturbations`] carries the three disturbance knobs of the robustness
//! analysis (§IV): the read-current-ratio deviation is expressed through the
//! design point itself, the transistor shift `ΔR_T = R_T2 − R_T1` applies to
//! the second read (Eqs. 18/19), and the divider deviation `Δr` scales α
//! (Eq. 20).

use stt_array::Cell;
use stt_mtj::ResistanceState;
use stt_units::{Amps, Ohms, Volts};

use crate::design::{ConventionalDesign, DestructiveDesign, NondestructiveDesign};

/// The two per-bit sense margins (positive = read correctly, with slack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseMargins {
    /// Margin when the stored value is "0" (parallel / low resistance).
    pub margin0: Volts,
    /// Margin when the stored value is "1" (anti-parallel / high resistance).
    pub margin1: Volts,
}

impl SenseMargins {
    /// The worst of the two margins — the quantity yield analyses threshold.
    #[must_use]
    pub fn min(&self) -> Volts {
        self.margin0.min(self.margin1)
    }

    /// The margin relevant for a specific stored state.
    #[must_use]
    pub fn for_state(&self, state: ResistanceState) -> Volts {
        match state {
            ResistanceState::Parallel => self.margin0,
            ResistanceState::AntiParallel => self.margin1,
        }
    }

    /// How unbalanced the design is (`0` at the equal-margin optimum).
    #[must_use]
    pub fn imbalance(&self) -> Volts {
        (self.margin1 - self.margin0).abs()
    }

    /// `true` when both margins are strictly positive (the bit reads
    /// correctly with an ideal comparator).
    #[must_use]
    pub fn both_positive(&self) -> bool {
        self.margin0.get() > 0.0 && self.margin1.get() > 0.0
    }
}

/// Disturbances applied to the nominal sensing conditions (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Perturbations {
    /// Shift of the access-transistor resistance seen by the *second* read:
    /// the paper's `ΔR_T = R_T2 − R_T1` (Figs. 7, Eqs. 18/19). May be
    /// negative.
    pub delta_r_t: Ohms,
    /// Relative deviation of the divider's voltage ratio: `α → α·(1 + Δr)`
    /// (Fig. 8, Eq. 20). Only affects the nondestructive scheme.
    pub alpha_deviation: f64,
}

impl Perturbations {
    /// No disturbance.
    pub const NONE: Self = Self {
        delta_r_t: Ohms::ZERO,
        alpha_deviation: 0.0,
    };

    /// Only a transistor-resistance shift.
    #[must_use]
    pub fn with_delta_r_t(delta_r_t: Ohms) -> Self {
        Self {
            delta_r_t,
            ..Self::NONE
        }
    }

    /// Only a divider-ratio deviation.
    #[must_use]
    pub fn with_alpha_deviation(alpha_deviation: f64) -> Self {
        Self {
            alpha_deviation,
            ..Self::NONE
        }
    }
}

/// `V_BL` for the first read: `I_R1 · (R(state, I_R1) + R_T(I_R1))`.
#[must_use]
pub fn first_read_voltage(cell: &Cell, state: ResistanceState, i_r1: Amps) -> Volts {
    i_r1 * cell.series_resistance_for(state, i_r1)
}

/// `V_BL` for the second read, including the ΔR_T perturbation:
/// `I_R2 · (R(state, I_R2) + R_T(I_R2) + ΔR_T)`.
fn second_read_voltage(cell: &Cell, state: ResistanceState, i_r2: Amps, delta_r_t: Ohms) -> Volts {
    i_r2 * (cell.series_resistance_for(state, i_r2) + delta_r_t)
}

impl ConventionalDesign {
    /// Sense margins of conventional (shared-reference) sensing for `cell`.
    ///
    /// The perturbation knobs do not apply — there is no second read and no
    /// divider — so this takes none.
    #[must_use]
    pub fn margins(&self, cell: &Cell) -> SenseMargins {
        SenseMargins {
            margin0: self.margin(cell, ResistanceState::Parallel),
            margin1: self.margin(cell, ResistanceState::AntiParallel),
        }
    }

    /// The one margin of [`Self::margins`] for a stored `state`, evaluating
    /// only that state's bit-line voltage.
    #[must_use]
    pub fn margin(&self, cell: &Cell, state: ResistanceState) -> Volts {
        let v_bl = first_read_voltage(cell, state, self.i_read);
        match state {
            ResistanceState::Parallel => self.v_ref - v_bl,
            ResistanceState::AntiParallel => v_bl - self.v_ref,
        }
    }
}

impl DestructiveDesign {
    /// Sense margins of the conventional (destructive) self-reference
    /// scheme for `cell` under `perturb` (the divider deviation is ignored —
    /// this scheme has no divider).
    #[must_use]
    pub fn margins(&self, cell: &Cell, perturb: &Perturbations) -> SenseMargins {
        SenseMargins {
            margin0: self.margin(cell, ResistanceState::Parallel, perturb),
            margin1: self.margin(cell, ResistanceState::AntiParallel, perturb),
        }
    }

    /// The one margin of [`Self::margins`] for a stored `state`, evaluating
    /// only that state's first read and the reference.
    #[must_use]
    pub fn margin(&self, cell: &Cell, state: ResistanceState, perturb: &Perturbations) -> Volts {
        // After the erase the cell is in the low state regardless of the
        // stored value, so the reference is always V_BL2(L).
        let v_bl2 = second_read_voltage(
            cell,
            ResistanceState::Parallel,
            self.i_r2,
            perturb.delta_r_t,
        );
        let v_bl1 = first_read_voltage(cell, state, self.i_r1);
        match state {
            ResistanceState::Parallel => v_bl2 - v_bl1,
            ResistanceState::AntiParallel => v_bl1 - v_bl2,
        }
    }
}

impl NondestructiveDesign {
    /// Sense margins of the nondestructive self-reference scheme for `cell`
    /// under `perturb` — Eqs. (8)/(9) with the §IV disturbances folded in.
    #[must_use]
    pub fn margins(&self, cell: &Cell, perturb: &Perturbations) -> SenseMargins {
        SenseMargins {
            margin0: self.margin(cell, ResistanceState::Parallel, perturb),
            margin1: self.margin(cell, ResistanceState::AntiParallel, perturb),
        }
    }

    /// The one margin of [`Self::margins`] for a stored `state`, evaluating
    /// only that state's two reads.
    #[must_use]
    pub fn margin(&self, cell: &Cell, state: ResistanceState, perturb: &Perturbations) -> Volts {
        let alpha = self.alpha * (1.0 + perturb.alpha_deviation);
        let divided = second_read_voltage(cell, state, self.i_r2, perturb.delta_r_t) * alpha;
        let v_bl1 = first_read_voltage(cell, state, self.i_r1);
        match state {
            ResistanceState::Parallel => divided - v_bl1,
            ResistanceState::AntiParallel => v_bl1 - divided,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPoint;
    use proptest::prelude::*;
    use stt_array::CellSpec;

    fn nominal_cell() -> Cell {
        CellSpec::date2010_chip().nominal_cell()
    }

    #[test]
    fn first_read_voltage_matches_eq1() {
        let cell = nominal_cell();
        let i = Amps::from_micro(93.9);
        let v = first_read_voltage(&cell, ResistanceState::AntiParallel, i);
        // R_H(93.9 µA) = 3050 − 600·0.4695 = 2768.3 Ω; + 917 Ω.
        let expected = 93.9e-6 * (3050.0 - 600.0 * 0.4695 + 917.0);
        assert!((v.get() - expected).abs() < 1e-6);
    }

    #[test]
    fn delta_rt_shifts_second_read_only() {
        let cell = nominal_cell();
        let i2 = Amps::from_micro(200.0);
        let base = second_read_voltage(&cell, ResistanceState::Parallel, i2, Ohms::ZERO);
        let shifted = second_read_voltage(&cell, ResistanceState::Parallel, i2, Ohms::new(100.0));
        assert!((shifted.get() - base.get() - 200e-6 * 100.0).abs() < 1e-12);
    }

    #[test]
    fn all_three_schemes_have_positive_margins_at_design_point() {
        let cell = nominal_cell();
        let design = DesignPoint::date2010(&cell);
        assert!(design.conventional.margins(&cell).both_positive());
        assert!(design
            .destructive
            .margins(&cell, &Perturbations::NONE)
            .both_positive());
        assert!(design
            .nondestructive
            .margins(&cell, &Perturbations::NONE)
            .both_positive());
    }

    #[test]
    fn destructive_margins_reconstruct_paper_magnitudes() {
        // DESIGN.md §5: ≈90 mV at the equal-margin design point (paper:
        // 76.6 mV on their device — same order, same shape).
        let cell = nominal_cell();
        let design = DesignPoint::date2010(&cell);
        let margins = design.destructive.margins(&cell, &Perturbations::NONE);
        assert!(margins.imbalance().get() < 1e-6, "equal-margin optimum");
        let m = margins.min().get();
        assert!((0.07..0.11).contains(&m), "destructive margin {m}");
    }

    #[test]
    fn nondestructive_margins_reconstruct_paper_magnitudes() {
        // DESIGN.md §5: ≈9.3 mV (paper: 12.1 mV — same order; ~8× below the
        // destructive scheme's margin).
        let cell = nominal_cell();
        let design = DesignPoint::date2010(&cell);
        let margins = design.nondestructive.margins(&cell, &Perturbations::NONE);
        assert!(margins.imbalance().get() < 1e-6, "equal-margin optimum");
        let m = margins.min().get();
        assert!((0.006..0.014).contains(&m), "nondestructive margin {m}");
        let destructive = design
            .destructive
            .margins(&cell, &Perturbations::NONE)
            .min()
            .get();
        let ratio = destructive / m;
        assert!((5.0..14.0).contains(&ratio), "margin ratio {ratio}");
    }

    #[test]
    fn margins_for_state_selects_correctly() {
        let margins = SenseMargins {
            margin0: Volts::from_milli(3.0),
            margin1: Volts::from_milli(7.0),
        };
        assert_eq!(margins.for_state(ResistanceState::Parallel).get(), 3e-3);
        assert_eq!(margins.for_state(ResistanceState::AntiParallel).get(), 7e-3);
        assert_eq!(margins.min().get(), 3e-3);
        assert!((margins.imbalance().get() - 4e-3).abs() < 1e-15);
    }

    #[test]
    fn positive_delta_rt_helps_zero_and_hurts_one() {
        // Raising R_T2 raises the second-read voltage: the "0" margin grows,
        // the "1" margin shrinks — the mechanism behind Fig. 7.
        let cell = nominal_cell();
        let design = DesignPoint::date2010(&cell);
        let base = design.nondestructive.margins(&cell, &Perturbations::NONE);
        let shifted = design
            .nondestructive
            .margins(&cell, &Perturbations::with_delta_r_t(Ohms::new(50.0)));
        assert!(shifted.margin0 > base.margin0);
        assert!(shifted.margin1 < base.margin1);
    }

    #[test]
    fn positive_alpha_deviation_helps_zero_and_hurts_one() {
        let cell = nominal_cell();
        let design = DesignPoint::date2010(&cell);
        let base = design.nondestructive.margins(&cell, &Perturbations::NONE);
        let shifted = design
            .nondestructive
            .margins(&cell, &Perturbations::with_alpha_deviation(0.02));
        assert!(shifted.margin0 > base.margin0);
        assert!(shifted.margin1 < base.margin1);
    }

    #[test]
    fn common_mode_variation_does_not_break_self_reference() {
        // The defining property: scale the whole R–I curve by a common
        // factor (the dominant process variation) and both self-reference
        // schemes keep positive margins, because the reference tracks the
        // bit itself.
        let spec = CellSpec::date2010_chip();
        let nominal = spec.nominal_cell();
        let design = DesignPoint::date2010(&nominal);
        for factor in [0.7, 0.85, 1.0, 1.2, 1.4] {
            let varied = stt_mtj::SampledMtj {
                ra_factor: factor,
                tmr_factor: 1.0,
            };
            let cell = Cell::new(
                spec.mtj.varied(&varied).into_device(),
                *nominal.transistor(),
            );
            assert!(
                design
                    .destructive
                    .margins(&cell, &Perturbations::NONE)
                    .both_positive(),
                "destructive at factor {factor}"
            );
            assert!(
                design
                    .nondestructive
                    .margins(&cell, &Perturbations::NONE)
                    .both_positive(),
                "nondestructive at factor {factor}"
            );
        }
    }

    #[test]
    fn conventional_sensing_breaks_under_common_mode_variation() {
        // …while the shared-reference scheme does not survive the same
        // spread: a −25 % bit reads "1" as "0".
        let spec = CellSpec::date2010_chip();
        let nominal = spec.nominal_cell();
        let design = DesignPoint::date2010(&nominal);
        let varied = stt_mtj::SampledMtj {
            ra_factor: 0.75,
            tmr_factor: 1.0,
        };
        let weak_cell = Cell::new(
            spec.mtj.varied(&varied).into_device(),
            *nominal.transistor(),
        );
        let margins = design.conventional.margins(&weak_cell);
        assert!(
            margins.margin1.get() < 0.0,
            "a −25% bit must misread under the shared reference: {margins:?}"
        );
    }

    proptest! {
        #[test]
        fn prop_margins_scale_with_read_current(scale in 0.5f64..1.0) {
            // Shrinking both read currents by the same factor shrinks
            // nondestructive margins (roll-off gets smaller too).
            let cell = nominal_cell();
            let design = DesignPoint::date2010(&cell);
            let base = design.nondestructive.margins(&cell, &Perturbations::NONE);
            let mut smaller = design.nondestructive;
            smaller.i_r1 = smaller.i_r1 * scale;
            smaller.i_r2 = smaller.i_r2 * scale;
            let shrunk = smaller.margins(&cell, &Perturbations::NONE);
            prop_assert!(shrunk.min() <= base.min() + Volts::new(1e-12));
        }

        #[test]
        fn prop_destructive_margin_sum_is_state_separation(beta in 1.05f64..2.0) {
            // SM0 + SM1 telescopes to V_BL(H, I_R1) − V_BL(L, I_R1): the
            // reference cancels. A good invariant for the implementation.
            let cell = nominal_cell();
            let i_max = Amps::from_micro(200.0);
            let design = DestructiveDesign { i_r1: i_max / beta, i_r2: i_max };
            let margins = design.margins(&cell, &Perturbations::NONE);
            let separation = first_read_voltage(&cell, ResistanceState::AntiParallel, design.i_r1)
                - first_read_voltage(&cell, ResistanceState::Parallel, design.i_r1);
            let sum = margins.margin0 + margins.margin1;
            prop_assert!((sum.get() - separation.get()).abs() < 1e-12);
        }
    }
}
