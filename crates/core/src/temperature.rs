//! Sense margins across die temperature — an extension experiment.
//!
//! The paper evaluates at room temperature. Heating the die attacks the
//! nondestructive scheme from two sides at once:
//!
//! * **TMR collapse** (Bloch `T^{3/2}` polarisation loss) shrinks the
//!   high-state roll-off the scheme senses;
//! * **thermal-stability loss** (`Δ ∝ 1/T`) shrinks the disturb-safe read
//!   current budget `I_max`, and the margin scales superlinearly with
//!   `I_max` (see the `repro imax` experiment).
//!
//! [`TemperatureSweep::run`] quantifies both: per temperature it re-derives the
//! safe read budget from the disturb target, re-optimises β, and reports
//! the equal margin at the fixed room-temperature budget *and* at the
//! temperature-derated budget.

use stt_array::{Cell, CellSpec};
use stt_mtj::ThermalModel;
use stt_units::{Amps, Seconds, Volts};

use crate::design::NondestructiveDesign;
use crate::margins::Perturbations;

/// One temperature point of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperaturePoint {
    /// Die temperature (K).
    pub t_kelvin: f64,
    /// Zero-bias TMR at this temperature.
    pub tmr: f64,
    /// Disturb-safe read budget at this temperature (for the configured
    /// read duration and disturb target).
    pub i_max_safe: Amps,
    /// Optimal β at the derated budget.
    pub beta: f64,
    /// Equal margin at the *fixed* room-temperature budget (ignores the
    /// disturb derating — the optimistic view).
    pub margin_fixed_budget: Volts,
    /// Equal margin at the temperature-derated budget (the honest view).
    pub margin_derated: Volts,
}

/// Configuration of the temperature sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperatureSweep {
    /// Read exposure per operation used for the disturb constraint.
    pub read_duration: Seconds,
    /// Acceptable per-read disturb probability.
    pub disturb_target: f64,
    /// Divider ratio.
    pub alpha: f64,
    /// Room-temperature read budget.
    pub i_max_reference: Amps,
}

impl TemperatureSweep {
    /// The paper-consistent configuration: 15 ns reads, 10⁻⁹ disturb
    /// target, α = 0.5, 200 µA at room temperature.
    #[must_use]
    pub fn date2010() -> Self {
        Self {
            read_duration: Seconds::from_nano(15.0),
            disturb_target: 1e-9,
            alpha: 0.5,
            i_max_reference: Amps::from_micro(200.0),
        }
    }

    /// Evaluates the sweep over the given die temperatures.
    ///
    /// # Panics
    ///
    /// Panics if a temperature is outside the thermal model's validity
    /// range.
    #[must_use]
    pub fn run(
        &self,
        reference: &CellSpec,
        thermal: &ThermalModel,
        temperatures: &[f64],
    ) -> Vec<TemperaturePoint> {
        temperatures
            .iter()
            .map(|&t_kelvin| {
                let spec_at_t = thermal.spec_at(&reference.mtj, t_kelvin);
                let cell = Cell::new(spec_at_t.clone().into_device(), reference.transistor);
                let tmr = cell.device().tmr(Amps::ZERO);
                let i_max_safe = spec_at_t
                    .switching
                    .max_safe_read_current(self.read_duration, self.disturb_target)
                    .min(self.i_max_reference * 2.0);

                let fixed = NondestructiveDesign::optimize(&cell, self.i_max_reference, self.alpha);
                let margin_fixed_budget = fixed.margins(&cell, &Perturbations::NONE).min();

                let derated = NondestructiveDesign::optimize(&cell, i_max_safe, self.alpha);
                let margin_derated = derated.margins(&cell, &Perturbations::NONE).min();

                TemperaturePoint {
                    t_kelvin,
                    tmr,
                    i_max_safe,
                    beta: derated.beta(),
                    margin_fixed_budget,
                    margin_derated,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(temps: &[f64]) -> Vec<TemperaturePoint> {
        TemperatureSweep::date2010().run(
            &CellSpec::date2010_chip(),
            &ThermalModel::date2010_mgo(),
            temps,
        )
    }

    #[test]
    fn room_temperature_matches_the_paper_design_point() {
        let points = sweep(&[300.0]);
        let point = &points[0];
        assert!((point.tmr - 1.0).abs() < 1e-9);
        assert!((point.margin_fixed_budget.get() - 9.32e-3).abs() < 0.2e-3);
    }

    #[test]
    fn margins_shrink_with_temperature() {
        let points = sweep(&[250.0, 300.0, 350.0, 400.0]);
        for pair in points.windows(2) {
            assert!(
                pair[1].margin_fixed_budget < pair[0].margin_fixed_budget,
                "fixed-budget margin must fall with T: {pair:?}"
            );
            assert!(
                pair[1].margin_derated < pair[0].margin_derated,
                "derated margin must fall with T: {pair:?}"
            );
        }
    }

    #[test]
    fn derating_bites_harder_when_hot() {
        let points = sweep(&[300.0, 400.0]);
        let penalty = |p: &TemperaturePoint| {
            (p.margin_fixed_budget - p.margin_derated) / p.margin_fixed_budget
        };
        // At 400 K the disturb budget shrinks, so the derated margin loses
        // a larger fraction than at 300 K.
        assert!(penalty(&points[1]) > penalty(&points[0]));
        assert!(points[1].i_max_safe < points[0].i_max_safe);
    }

    #[test]
    fn cold_operation_gains_margin() {
        let points = sweep(&[250.0, 300.0]);
        assert!(points[0].margin_derated > points[1].margin_derated);
        assert!(points[0].i_max_safe > points[1].i_max_safe);
    }

    #[test]
    fn beta_stays_in_a_sane_band_across_temperature() {
        for point in sweep(&[250.0, 300.0, 350.0, 400.0]) {
            assert!(
                (2.0..2.6).contains(&point.beta),
                "β at {} K drifted to {}",
                point.t_kelvin,
                point.beta
            );
        }
    }
}
