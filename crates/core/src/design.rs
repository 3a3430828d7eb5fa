//! Design points for the three sensing schemes and the read-current
//! optimisers of the paper's §II-C.2 and §III-B.
//!
//! Both self-reference schemes fix the *second* read at the largest
//! non-disturbing current `I_R2 = I_max` (§V-A: that maximises the sense
//! margin) and choose the current ratio `β = I_R2 / I_R1` so the margins for
//! stored "0" and "1" are equal — Eq. (5) for the destructive scheme and
//! Eq. (10) for the nondestructive one. Those equations are solved here
//! numerically (bisection on the margin imbalance), which also works for
//! the physical and tabulated resistance models where no closed form
//! exists.

use stt_array::Cell;
use stt_mtj::ResistanceState;
use stt_units::{Amps, Volts};

use crate::margins::{first_read_voltage, Perturbations};

/// Conventional (shared-reference) sensing design: one read current and the
/// chip-wide reference voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConventionalDesign {
    /// The read current.
    pub i_read: Amps,
    /// The shared reference voltage (Eq. 2's `V_REF`).
    pub v_ref: Volts,
}

impl ConventionalDesign {
    /// Builds the conventional design with `V_REF` at the midpoint of the
    /// *nominal* cell's two bit-line voltages — the best a shared reference
    /// can do without per-bit knowledge.
    #[must_use]
    fn midpoint(nominal_cell: &Cell, i_read: Amps) -> Self {
        let v_high = first_read_voltage(nominal_cell, ResistanceState::AntiParallel, i_read);
        let v_low = first_read_voltage(nominal_cell, ResistanceState::Parallel, i_read);
        Self {
            i_read,
            v_ref: (v_high + v_low) * 0.5,
        }
    }

    /// Test-stage reference trim: sets `V_REF` to the *median* of the
    /// sampled cells' own midpoints.
    ///
    /// This is what a real chip's trim fuses can do for a shared reference —
    /// and the instructive limit of it: trimming absorbs a *die-level*
    /// shift (all cells moved together) perfectly, but is powerless against
    /// *within-die* bit-to-bit spread, which is exactly the failure
    /// mechanism the paper's self-reference schemes defeat.
    ///
    /// # Panics
    ///
    /// Panics if the calibration sample is empty.
    #[must_use]
    pub fn trimmed(sample: &[Cell], i_read: Amps) -> Self {
        assert!(!sample.is_empty(), "trim needs a calibration sample");
        let mut midpoints: Vec<f64> = sample
            .iter()
            .map(|cell| {
                let v_high = first_read_voltage(cell, ResistanceState::AntiParallel, i_read);
                let v_low = first_read_voltage(cell, ResistanceState::Parallel, i_read);
                (v_high + v_low).get() * 0.5
            })
            .collect();
        midpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite voltages"));
        let median = midpoints[midpoints.len() / 2];
        Self {
            i_read,
            v_ref: Volts::new(median),
        }
    }
}

/// Conventional (destructive) self-reference design — Jeong et al., JSSC
/// 2003, the paper's §II-C baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DestructiveDesign {
    /// First read current (on the stored value).
    pub i_r1: Amps,
    /// Second read current (on the erased, low state); `I_R2 = β·I_R1`.
    pub i_r2: Amps,
}

impl DestructiveDesign {
    /// The current ratio `β = I_R2 / I_R1`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.i_r2 / self.i_r1
    }

    /// Solves the equal-margin optimum of Eq. (5): with `I_R2 = i_max`
    /// fixed, finds β such that `SM0 = SM1` on `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `i_max` is non-positive or no equal-margin β exists in
    /// `(1, 8)` (which cannot happen for a physical MTJ with `R_H > R_L`).
    #[must_use]
    pub fn optimize(cell: &Cell, i_max: Amps) -> Self {
        assert!(i_max.get() > 0.0, "maximum read current must be positive");
        let imbalance = |beta: f64| {
            let design = DestructiveDesign {
                i_r1: i_max / beta,
                i_r2: i_max,
            };
            let margins = design.margins(cell, &Perturbations::NONE);
            (margins.margin1 - margins.margin0).get()
        };
        let beta = bisect_root(imbalance, 1.0 + 1e-9, 8.0);
        Self {
            i_r1: i_max / beta,
            i_r2: i_max,
        }
    }
}

/// The paper's nondestructive self-reference design (§III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NondestructiveDesign {
    /// First read current.
    pub i_r1: Amps,
    /// Second read current; `β = I_R2 / I_R1`.
    pub i_r2: Amps,
    /// Voltage-divider ratio (`V_BLO = α·V_BL2`); the paper fixes 0.5 for a
    /// symmetric divider that minimises mismatch sensitivity.
    pub alpha: f64,
}

impl NondestructiveDesign {
    /// The current ratio `β = I_R2 / I_R1`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.i_r2 / self.i_r1
    }

    /// Solves the equal-margin optimum of Eq. (10): with `I_R2 = i_max` and
    /// the divider ratio fixed at `alpha`, finds β such that `SM0 = SM1` on
    /// `cell`.
    ///
    /// # Examples
    ///
    /// ```
    /// use stt_array::CellSpec;
    /// use stt_sense::NondestructiveDesign;
    /// use stt_units::Amps;
    ///
    /// let cell = CellSpec::date2010_chip().nominal_cell();
    /// let design = NondestructiveDesign::optimize(&cell, Amps::from_micro(200.0), 0.5);
    /// // The paper's Table I: β* = 2.13 at α = 0.5.
    /// assert!((design.beta() - 2.13).abs() < 0.01);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `i_max` is non-positive or `alpha` is not in `(0, 1)`.
    #[must_use]
    pub fn optimize(cell: &Cell, i_max: Amps, alpha: f64) -> Self {
        assert!(i_max.get() > 0.0, "maximum read current must be positive");
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "divider ratio must be in (0, 1)"
        );
        let imbalance = |beta: f64| {
            let design = NondestructiveDesign {
                i_r1: i_max / beta,
                i_r2: i_max,
                alpha,
            };
            let margins = design.margins(cell, &Perturbations::NONE);
            (margins.margin1 - margins.margin0).get()
        };
        // β must at least exceed 1/α for SM0 to have any chance (αβ > 1).
        let low = (1.0 / alpha).max(1.0) * (1.0 + 1e-9);
        let beta = bisect_root(imbalance, low, 8.0 / alpha);
        Self {
            i_r1: i_max / beta,
            i_r2: i_max,
            alpha,
        }
    }

    /// Test-stage β trim (§V): pick β to *maximise the worst-case minimum
    /// margin* across a calibration sample of cells, instead of equalising
    /// the nominal margins. The paper: "the current ratio β of read current
    /// driver can be adjusted in testing stage to compensate the voltage
    /// ratio α variation."
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty, `i_max` is non-positive, or `alpha`
    /// is not in `(0, 1)`.
    #[must_use]
    pub fn trimmed(sample: &[Cell], i_max: Amps, alpha: f64) -> Self {
        assert!(!sample.is_empty(), "trim needs a calibration sample");
        assert!(i_max.get() > 0.0, "maximum read current must be positive");
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "divider ratio must be in (0, 1)"
        );
        let worst_margin = |beta: f64| -> f64 {
            let design = NondestructiveDesign {
                i_r1: i_max / beta,
                i_r2: i_max,
                alpha,
            };
            sample
                .iter()
                .map(|cell| design.margins(cell, &Perturbations::NONE).min().get())
                .fold(f64::INFINITY, f64::min)
        };
        // The worst-case margin is unimodal in β (one margin family rises,
        // the other falls): golden-section search over a generous bracket.
        let low = (1.0 / alpha).max(1.0) * (1.0 + 1e-6);
        let high = 6.0 / alpha;
        let beta = golden_section_max(worst_margin, low, high, 1e-6);
        Self {
            i_r1: i_max / beta,
            i_r2: i_max,
            alpha,
        }
    }
}

/// The three designs for one chip, derived from the same cell and current
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Shared-reference sensing.
    pub conventional: ConventionalDesign,
    /// Destructive self-reference.
    pub destructive: DestructiveDesign,
    /// Nondestructive self-reference (the contribution).
    pub nondestructive: NondestructiveDesign,
}

impl DesignPoint {
    /// Builds all three designs for a cell under a read-current budget
    /// `i_max` and divider ratio `alpha`.
    #[must_use]
    pub fn for_limits(cell: &Cell, i_max: Amps, alpha: f64) -> Self {
        Self {
            conventional: ConventionalDesign::midpoint(cell, i_max),
            destructive: DestructiveDesign::optimize(cell, i_max),
            nondestructive: NondestructiveDesign::optimize(cell, i_max, alpha),
        }
    }

    /// The paper's design point: `I_max` = 200 µA (40 % of the 4 ns
    /// switching current), α = 0.5.
    #[must_use]
    pub fn date2010(cell: &Cell) -> Self {
        Self::for_limits(cell, Amps::from_micro(200.0), 0.5)
    }
}

/// Bisection for a root of a strictly monotone (decreasing) function.
///
/// # Panics
///
/// Panics if the bracket does not contain a sign change.
fn bisect_root<F: Fn(f64) -> f64>(f: F, mut low: f64, mut high: f64) -> f64 {
    let f_low = f(low);
    let f_high = f(high);
    assert!(
        f_low.signum() != f_high.signum(),
        "bisection bracket [{low}, {high}] does not contain a root \
         (f(low) = {f_low:.3e}, f(high) = {f_high:.3e})"
    );
    for _ in 0..200 {
        let mid = 0.5 * (low + high);
        let f_mid = f(mid);
        if f_mid == 0.0 || (high - low) < 1e-12 * mid.abs().max(1.0) {
            return mid;
        }
        if f_mid.signum() == f_low.signum() {
            low = mid;
        } else {
            high = mid;
        }
    }
    0.5 * (low + high)
}

/// Golden-section search for the maximum of a unimodal function.
fn golden_section_max<F: Fn(f64) -> f64>(f: F, mut low: f64, mut high: f64, tol: f64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let mut x1 = high - INV_PHI * (high - low);
    let mut x2 = low + INV_PHI * (high - low);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    while (high - low) > tol {
        if f1 >= f2 {
            high = x2;
            x2 = x1;
            f2 = f1;
            x1 = high - INV_PHI * (high - low);
            f1 = f(x1);
        } else {
            low = x1;
            x1 = x2;
            f1 = f2;
            x2 = low + INV_PHI * (high - low);
            f2 = f(x2);
        }
    }
    0.5 * (low + high)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stt_array::CellSpec;

    fn nominal_cell() -> Cell {
        CellSpec::date2010_chip().nominal_cell()
    }

    const I_MAX: Amps = Amps::new(200e-6);

    #[test]
    fn conventional_midpoint_splits_the_states() {
        let cell = nominal_cell();
        let design = ConventionalDesign::midpoint(&cell, I_MAX);
        let margins = design.margins(&cell);
        assert!((margins.margin0.get() - margins.margin1.get()).abs() < 1e-12);
        // Half the 200 µA state separation: 200 µA × (2450−1425)/2 Ω.
        let expected = 200e-6 * (2450.0 - 1425.0) / 2.0;
        assert!((margins.margin0.get() - expected).abs() < 1e-9);
    }

    #[test]
    fn reference_trim_absorbs_die_shift_but_not_spread() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let spec = CellSpec::date2010_chip();
        let nominal = spec.nominal_cell();

        // A die where every device sits 30 % high (a die-to-die corner)
        // with the usual within-die spread on top.
        let mut rng = StdRng::seed_from_u64(77);
        let die_shift = 1.3;
        let cells: Vec<Cell> = (0..512)
            .map(|_| {
                let factors = spec.mtj_variation.sample(&mut rng);
                let shifted = stt_mtj::SampledMtj {
                    ra_factor: factors.ra_factor * die_shift,
                    tmr_factor: factors.tmr_factor,
                };
                Cell::new(
                    spec.mtj.varied(&shifted).into_device(),
                    *nominal.transistor(),
                )
            })
            .collect();

        let untrimmed = ConventionalDesign::midpoint(&nominal, I_MAX);
        let trimmed = ConventionalDesign::trimmed(&cells, I_MAX);
        let failures = |design: &ConventionalDesign| {
            cells
                .iter()
                .filter(|cell| !design.margins(cell).both_positive())
                .count()
        };
        let untrimmed_failures = failures(&untrimmed);
        let trimmed_failures = failures(&trimmed);
        // The die shift slaughters the untrimmed reference…
        assert!(
            untrimmed_failures > cells.len() / 5,
            "untrimmed failures {untrimmed_failures}"
        );
        // …trim recovers most of it…
        assert!(
            trimmed_failures < untrimmed_failures / 4,
            "trimmed {trimmed_failures} vs untrimmed {untrimmed_failures}"
        );
        // …but within-die spread still defeats the shared reference, while
        // self-reference reads every one of the same cells.
        let nondes = NondestructiveDesign::optimize(&nominal, I_MAX, 0.5);
        let nondes_failures = cells
            .iter()
            .filter(|cell| {
                !nondes
                    .margins(cell, &crate::margins::Perturbations::NONE)
                    .both_positive()
            })
            .count();
        assert_eq!(nondes_failures, 0, "self-reference shrugs off the shift");
        assert!(trimmed_failures > 0, "trim cannot fix bit-to-bit spread");
    }

    #[test]
    fn destructive_beta_matches_paper_band() {
        // Paper: β* = 1.22 on their device; the DESIGN.md §5 reconstruction
        // predicts ≈1.25 on ours.
        let design = DestructiveDesign::optimize(&nominal_cell(), I_MAX);
        let beta = design.beta();
        assert!((1.15..1.35).contains(&beta), "destructive beta {beta}");
        assert!((design.i_r2.get() - 200e-6).abs() < 1e-18);
    }

    #[test]
    fn nondestructive_beta_matches_paper_band() {
        // Paper: β* = 2.13 at α = 0.5; the reconstruction was solved to land
        // there (DESIGN.md §5).
        let design = NondestructiveDesign::optimize(&nominal_cell(), I_MAX, 0.5);
        let beta = design.beta();
        assert!((2.0..2.3).contains(&beta), "nondestructive beta {beta}");
        // αβ slightly above 1: the divider output must sit *above* the
        // first-read low voltage.
        assert!(design.alpha * beta > 1.0);
    }

    #[test]
    fn optimized_designs_have_equal_margins() {
        let cell = nominal_cell();
        let design = DesignPoint::date2010(&cell);
        let destructive = design.destructive.margins(&cell, &Perturbations::NONE);
        assert!(destructive.imbalance().get() < 1e-9);
        let nondestructive = design.nondestructive.margins(&cell, &Perturbations::NONE);
        assert!(nondestructive.imbalance().get() < 1e-9);
    }

    #[test]
    fn optimizer_works_on_physical_resistance_model() {
        // No closed form exists for the conductance model; the numeric
        // optimiser must still find an equal-margin β nearby.
        let spec = CellSpec::date2010_chip();
        let cell = Cell::new(
            spec.mtj.clone().into_physical_device(),
            *spec.nominal_cell().transistor(),
        );
        let design = NondestructiveDesign::optimize(&cell, I_MAX, 0.5);
        let margins = design.margins(&cell, &Perturbations::NONE);
        assert!(margins.imbalance().get() < 1e-9);
        assert!(margins.both_positive());
        let linear_beta = NondestructiveDesign::optimize(&nominal_cell(), I_MAX, 0.5).beta();
        assert!(
            (design.beta() - linear_beta).abs() < 0.4,
            "physical-model beta {} vs linear {linear_beta}",
            design.beta()
        );
    }

    #[test]
    fn asymmetric_alpha_changes_beta_consistently() {
        // α·β at the optimum is nearly invariant (it is pinned by the device
        // curves), so halving α should roughly double β.
        let cell = nominal_cell();
        let half = NondestructiveDesign::optimize(&cell, I_MAX, 0.5);
        let quarter = NondestructiveDesign::optimize(&cell, I_MAX, 0.25);
        let product_half = half.alpha * half.beta();
        let product_quarter = quarter.alpha * quarter.beta();
        assert!(
            (product_half - product_quarter).abs() < 0.05,
            "αβ invariance: {product_half} vs {product_quarter}"
        );
    }

    #[test]
    fn trim_maximises_worst_case_margin() {
        let spec = CellSpec::date2010_chip();
        let mut rng = StdRng::seed_from_u64(99);
        let sample: Vec<Cell> = (0..64).map(|_| spec.sample_cell(&mut rng)).collect();
        let nominal = NondestructiveDesign::optimize(&spec.nominal_cell(), I_MAX, 0.5);
        let trimmed = NondestructiveDesign::trimmed(&sample, I_MAX, 0.5);
        let worst = |design: &NondestructiveDesign| {
            sample
                .iter()
                .map(|cell| design.margins(cell, &Perturbations::NONE).min().get())
                .fold(f64::INFINITY, f64::min)
        };
        assert!(
            worst(&trimmed) >= worst(&nominal) - 1e-12,
            "trim must not be worse than the nominal design: {} vs {}",
            worst(&trimmed),
            worst(&nominal)
        );
        assert!(worst(&trimmed) > 0.0, "trimmed design reads every sample");
    }

    #[test]
    fn beta_accessor_consistent_with_currents() {
        let design = DestructiveDesign {
            i_r1: Amps::from_micro(164.0),
            i_r2: Amps::from_micro(200.0),
        };
        assert!((design.beta() - 200.0 / 164.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "divider ratio")]
    fn rejects_bad_alpha() {
        let _ = NondestructiveDesign::optimize(&nominal_cell(), I_MAX, 1.5);
    }

    mod random_devices {
        use super::*;
        use proptest::prelude::*;
        use stt_array::AccessTransistor;
        use stt_mtj::{LinearRolloff, MtjDevice, SwitchingModel};
        use stt_units::Ohms;

        /// Builds a physically sensible random device: MgO-class TMR,
        /// asymmetric roll-off, sane transistor.
        fn random_cell(
            r_low: f64,
            tmr: f64,
            dr_low_frac: f64,
            dr_high_frac: f64,
            r_t: f64,
        ) -> Cell {
            let r_high = r_low * (1.0 + tmr);
            let resistance = LinearRolloff::new(
                Ohms::new(r_low),
                Ohms::new(r_high),
                Ohms::new(r_low * dr_low_frac),
                Ohms::new(r_high * dr_high_frac),
                I_MAX,
            );
            Cell::new(
                MtjDevice::new(resistance, SwitchingModel::date2010_typical()),
                AccessTransistor::new(Ohms::new(r_t), 0.0),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_optimizers_equalize_margins_on_random_devices(
                r_low in 800.0f64..4000.0,
                tmr in 0.5f64..1.5,
                dr_low_frac in 0.0f64..0.05,
                dr_high_frac in 0.12f64..0.28,
                r_t in 400.0f64..1500.0,
            ) {
                let cell = random_cell(r_low, tmr, dr_low_frac, dr_high_frac, r_t);
                let destructive = DestructiveDesign::optimize(&cell, I_MAX);
                let margins = destructive.margins(&cell, &Perturbations::NONE);
                prop_assert!(margins.both_positive());
                prop_assert!(margins.imbalance().get() < 1e-9);
                let nondestructive = NondestructiveDesign::optimize(&cell, I_MAX, 0.5);
                let margins = nondestructive.margins(&cell, &Perturbations::NONE);
                prop_assert!(margins.both_positive());
                prop_assert!(margins.imbalance().get() < 1e-9);
                // The paper's ordering: the nondestructive optimum always
                // needs the larger current ratio.
                prop_assert!(nondestructive.beta() > destructive.beta());
            }

            #[test]
            fn prop_design_beta_sits_inside_its_valid_window(
                r_low in 800.0f64..4000.0,
                tmr in 0.5f64..1.5,
                dr_low_frac in 0.0f64..0.05,
                dr_high_frac in 0.12f64..0.28,
                r_t in 400.0f64..1500.0,
            ) {
                use crate::robustness::{
                    valid_beta_destructive, valid_beta_nondestructive,
                };
                let cell = random_cell(r_low, tmr, dr_low_frac, dr_high_frac, r_t);
                let destructive = DestructiveDesign::optimize(&cell, I_MAX);
                let window = valid_beta_destructive(&cell, I_MAX);
                prop_assert!(window.contains(destructive.beta()));
                let nondestructive = NondestructiveDesign::optimize(&cell, I_MAX, 0.5);
                let window = valid_beta_nondestructive(&cell, I_MAX, 0.5);
                prop_assert!(window.contains(nondestructive.beta()));
            }

            #[test]
            fn prop_delta_rt_window_scales_with_margin(
                r_low in 800.0f64..4000.0,
                tmr in 0.5f64..1.5,
                dr_high_frac in 0.12f64..0.28,
            ) {
                use crate::robustness::allowable_delta_rt_nondestructive;
                let cell = random_cell(r_low, tmr, 0.02, dr_high_frac, 917.0);
                let design = NondestructiveDesign::optimize(&cell, I_MAX, 0.5);
                let margin = design.margins(&cell, &Perturbations::NONE).min();
                let window = allowable_delta_rt_nondestructive(&cell, &design);
                // Exact identity: window edge = margin / (α·I_R2).
                let predicted = margin.get() / (design.alpha * design.i_r2.get());
                prop_assert!((window.high / predicted - 1.0).abs() < 1e-6);
                prop_assert!((window.low / -predicted - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn bisect_root_finds_known_root() {
        let root = bisect_root(|x| 4.0 - x * x, 0.0, 10.0);
        assert!((root - 2.0).abs() < 1e-9);
    }

    #[test]
    fn golden_section_finds_known_maximum() {
        let max = golden_section_max(|x| -(x - 3.0) * (x - 3.0), 0.0, 10.0, 1e-9);
        assert!((max - 3.0).abs() < 1e-6);
    }
}
