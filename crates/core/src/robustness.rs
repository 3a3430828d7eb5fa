//! Robustness analysis (§IV): Figs. 6–8 sweeps and the Table II summary.
//!
//! Three disturbances bound a self-reference design:
//!
//! * the read-current ratio β drifting from its design value (read-driver
//!   process variation) — Fig. 6, Eqs. (11)–(17);
//! * the NMOS access-transistor resistance shifting between the two reads
//!   (`ΔR_T = R_T2 − R_T1`) — Fig. 7, Eqs. (18)/(19);
//! * the divider ratio deviating (`α → α(1+Δr)`), nondestructive scheme
//!   only — Fig. 8, Eq. (20).
//!
//! For each, the *valid range* is the interval over which both sense
//! margins stay positive. The paper's headline: the nondestructive scheme
//! trades markedly tighter tolerances (≈ ±130 Ω vs ±468 Ω on ΔR_T, a
//! ±5 % divider window) for its speed and nonvolatility.

use stt_array::Cell;
use stt_units::{Amps, Ohms};

use crate::design::{DestructiveDesign, NondestructiveDesign};
use crate::margins::{Perturbations, SenseMargins};

/// A closed interval of a swept design/disturbance variable over which both
/// sense margins are positive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidRange {
    /// Lower edge (margin for "0" crosses zero here).
    pub low: f64,
    /// Upper edge (margin for "1" crosses zero here).
    pub high: f64,
}

impl ValidRange {
    /// Width of the range.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.high - self.low
    }

    /// `true` when `x` lies inside the range.
    #[must_use]
    pub fn contains(&self, x: f64) -> bool {
        (self.low..=self.high).contains(&x)
    }
}

/// One point of the Fig. 6 sweep: margins of both self-reference schemes at
/// a given current ratio β (with `I_R2 = I_max` held fixed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaSweepPoint {
    /// The swept current ratio.
    pub beta: f64,
    /// Destructive-scheme margins at this β.
    pub destructive: SenseMargins,
    /// Nondestructive-scheme margins at this β.
    pub nondestructive: SenseMargins,
}

/// Sweeps the current ratio β over `[lo, hi]` for both self-reference
/// schemes (Fig. 6). `I_R2` is pinned at `i_max`; `I_R1 = i_max / β`.
///
/// # Panics
///
/// Panics if the sweep bounds are not `1 ≤ lo < hi` or `steps == 0`.
#[must_use]
pub fn beta_sweep(
    cell: &Cell,
    i_max: Amps,
    alpha: f64,
    lo: f64,
    hi: f64,
    steps: usize,
) -> Vec<BetaSweepPoint> {
    assert!(lo >= 1.0 && lo < hi, "sweep needs 1 ≤ lo < hi");
    assert!(steps > 0, "sweep needs at least one step");
    stt_stats::fill_indexed(steps + 1, |k| {
        let beta = lo + (hi - lo) * k as f64 / steps as f64;
        let destructive = DestructiveDesign {
            i_r1: i_max / beta,
            i_r2: i_max,
        };
        let nondestructive = NondestructiveDesign {
            i_r1: i_max / beta,
            i_r2: i_max,
            alpha,
        };
        BetaSweepPoint {
            beta,
            destructive: destructive.margins(cell, &Perturbations::NONE),
            nondestructive: nondestructive.margins(cell, &Perturbations::NONE),
        }
    })
}

/// The β interval with both margins positive for the destructive scheme —
/// Eq. (12). The lower edge sits at β = 1 (Table II's "~1").
#[must_use]
pub fn valid_beta_destructive(cell: &Cell, i_max: Amps) -> ValidRange {
    let margin0 = |beta: f64| {
        DestructiveDesign {
            i_r1: i_max / beta,
            i_r2: i_max,
        }
        .margins(cell, &Perturbations::NONE)
        .margin0
        .get()
    };
    let margin1 = |beta: f64| {
        DestructiveDesign {
            i_r1: i_max / beta,
            i_r2: i_max,
        }
        .margins(cell, &Perturbations::NONE)
        .margin1
        .get()
    };
    ValidRange {
        low: bisect_zero(&margin0, 0.5, 4.0),
        high: bisect_zero(&margin1, 1.0, 20.0),
    }
}

/// The β interval with both margins positive for the nondestructive scheme
/// — Eqs. (15)–(17).
#[must_use]
pub fn valid_beta_nondestructive(cell: &Cell, i_max: Amps, alpha: f64) -> ValidRange {
    let design = |beta: f64| NondestructiveDesign {
        i_r1: i_max / beta,
        i_r2: i_max,
        alpha,
    };
    let margin0 = |beta: f64| {
        design(beta)
            .margins(cell, &Perturbations::NONE)
            .margin0
            .get()
    };
    let margin1 = |beta: f64| {
        design(beta)
            .margins(cell, &Perturbations::NONE)
            .margin1
            .get()
    };
    ValidRange {
        low: bisect_zero(&margin0, 1.0, 8.0 / alpha),
        high: bisect_zero(&margin1, 1.0, 8.0 / alpha),
    }
}

/// One point of the Fig. 7 sweep: margins of both self-reference schemes at
/// a given transistor-resistance shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaRtSweepPoint {
    /// The swept `ΔR_T = R_T2 − R_T1`.
    pub delta_r_t: Ohms,
    /// Destructive-scheme margins.
    pub destructive: SenseMargins,
    /// Nondestructive-scheme margins.
    pub nondestructive: SenseMargins,
}

/// Sweeps `ΔR_T` at the given design points (Fig. 7).
///
/// # Panics
///
/// Panics if `lo >= hi` or `steps == 0`.
#[must_use]
pub fn delta_rt_sweep(
    cell: &Cell,
    destructive: &DestructiveDesign,
    nondestructive: &NondestructiveDesign,
    lo: Ohms,
    hi: Ohms,
    steps: usize,
) -> Vec<DeltaRtSweepPoint> {
    assert!(lo < hi, "sweep needs lo < hi");
    assert!(steps > 0, "sweep needs at least one step");
    stt_stats::fill_indexed(steps + 1, |k| {
        let delta_r_t = lo + (hi - lo) * (k as f64 / steps as f64);
        let perturb = Perturbations::with_delta_r_t(delta_r_t);
        DeltaRtSweepPoint {
            delta_r_t,
            destructive: destructive.margins(cell, &perturb),
            nondestructive: nondestructive.margins(cell, &perturb),
        }
    })
}

/// The allowable `ΔR_T` window (in ohms) of the destructive scheme at its
/// design point — Eq. (18). Margins are exactly linear in `ΔR_T`, so the
/// edges are solved from one finite difference.
#[must_use]
pub fn allowable_delta_rt_destructive(cell: &Cell, design: &DestructiveDesign) -> ValidRange {
    linear_window(|delta: f64| {
        design.margins(cell, &Perturbations::with_delta_r_t(Ohms::new(delta)))
    })
}

/// The allowable `ΔR_T` window (in ohms) of the nondestructive scheme at
/// its design point — Eq. (19).
#[must_use]
pub fn allowable_delta_rt_nondestructive(cell: &Cell, design: &NondestructiveDesign) -> ValidRange {
    linear_window(|delta: f64| {
        design.margins(cell, &Perturbations::with_delta_r_t(Ohms::new(delta)))
    })
}

/// One point of the Fig. 8 sweep: nondestructive margins at a divider
/// deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaDeviationSweepPoint {
    /// The swept relative deviation `Δr` (e.g. `−0.05` = −5 %).
    pub deviation: f64,
    /// Nondestructive-scheme margins.
    pub nondestructive: SenseMargins,
}

/// Sweeps the divider deviation `Δr` (Fig. 8).
///
/// # Panics
///
/// Panics if `lo >= hi` or `steps == 0`.
#[must_use]
pub fn alpha_deviation_sweep(
    cell: &Cell,
    design: &NondestructiveDesign,
    lo: f64,
    hi: f64,
    steps: usize,
) -> Vec<AlphaDeviationSweepPoint> {
    assert!(lo < hi, "sweep needs lo < hi");
    assert!(steps > 0, "sweep needs at least one step");
    stt_stats::fill_indexed(steps + 1, |k| {
        let deviation = lo + (hi - lo) * k as f64 / steps as f64;
        AlphaDeviationSweepPoint {
            deviation,
            nondestructive: design.margins(cell, &Perturbations::with_alpha_deviation(deviation)),
        }
    })
}

/// The allowable divider-deviation window of the nondestructive scheme —
/// Eq. (20). (The destructive scheme has no divider; the paper marks it
/// "N/A".)
#[must_use]
pub fn allowable_alpha_deviation(cell: &Cell, design: &NondestructiveDesign) -> ValidRange {
    linear_window(|deviation: f64| {
        design.margins(cell, &Perturbations::with_alpha_deviation(deviation))
    })
}

/// The Table II robustness summary for one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessSummary {
    /// Valid β range, destructive scheme.
    pub destructive_beta: ValidRange,
    /// Valid β range, nondestructive scheme.
    pub nondestructive_beta: ValidRange,
    /// Allowable `ΔR_T` (ohms), destructive scheme.
    pub destructive_delta_rt: ValidRange,
    /// Allowable `ΔR_T` (ohms), nondestructive scheme.
    pub nondestructive_delta_rt: ValidRange,
    /// Allowable divider deviation `Δr`, nondestructive scheme (the
    /// destructive scheme has no divider).
    pub nondestructive_alpha_deviation: ValidRange,
}

/// Computes the full Table II for `cell` at the equal-margin design points.
///
/// # Examples
///
/// ```
/// use stt_array::CellSpec;
/// use stt_sense::robustness::robustness_summary;
/// use stt_units::Amps;
///
/// let cell = CellSpec::date2010_chip().nominal_cell();
/// let summary = robustness_summary(&cell, Amps::from_micro(200.0), 0.5);
/// // The paper's Table II shape: the nondestructive ΔR_T window is several
/// // times tighter than the destructive one.
/// assert!(summary.destructive_delta_rt.high > 3.0 * summary.nondestructive_delta_rt.high);
/// ```
#[must_use]
pub fn robustness_summary(cell: &Cell, i_max: Amps, alpha: f64) -> RobustnessSummary {
    let destructive = DestructiveDesign::optimize(cell, i_max);
    let nondestructive = NondestructiveDesign::optimize(cell, i_max, alpha);
    RobustnessSummary {
        destructive_beta: valid_beta_destructive(cell, i_max),
        nondestructive_beta: valid_beta_nondestructive(cell, i_max, alpha),
        destructive_delta_rt: allowable_delta_rt_destructive(cell, &destructive),
        nondestructive_delta_rt: allowable_delta_rt_nondestructive(cell, &nondestructive),
        nondestructive_alpha_deviation: allowable_alpha_deviation(cell, &nondestructive),
    }
}

/// One point of the α-choice ablation (DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaChoicePoint {
    /// The divider ratio under evaluation.
    pub alpha: f64,
    /// The equal-margin β at this α.
    pub beta: f64,
    /// The (equal) sense margin.
    pub margin: stt_units::Volts,
    /// Allowable relative divider deviation window.
    pub deviation_window: ValidRange,
    /// Mismatch-induced σ of the relative deviation Δr for the given
    /// single-resistor matching σ.
    pub sigma_deviation: f64,
    /// Robustness score: the narrower window edge divided by 3σ(Δr).
    /// Above 1, a 3σ divider excursion still reads correctly.
    pub margin_over_3_sigma: f64,
}

/// Sweeps the divider ratio α, re-optimising β at each point, and scores
/// each choice against divider mismatch — the paper's §III-A argument that
/// "we choose α = 0.5 (a symmetric structure of voltage divider) to
/// minimize the impact of process variation", made quantitative.
///
/// The trade this exposes: raising α lets `I_R1 = I_max·α/(αβ)` grow (more
/// signal) but pushes `I_R1` towards `I_R2`, shrinking the roll-off
/// difference being sensed. The margin is therefore *unimodal* in α with
/// its maximum almost exactly at the paper's 0.5 (≈0.55 on the calibrated
/// device, within 0.3 % of the 0.5 value) — and the symmetric divider's
/// superior matching independently favours 0.5 as well. The paper's choice
/// is doubly right.
///
/// Mismatch model: a divider of two resistors with per-resistor matching
/// σ `sigma_resistor` gives `σ(Δr) = (1−α)·√2·σ_R`, and unequal resistors
/// match worse than identical ones (different geometry defeats
/// common-centroid layout): `σ_R(α) = σ_resistor·(1 + γ·|ln((1−α)/α)|)`
/// with γ = 1.
///
/// # Panics
///
/// Panics if `alphas` is empty, any α is outside `(0, 1)`, or
/// `sigma_resistor` is not positive.
#[must_use]
pub fn alpha_choice_sweep(
    cell: &Cell,
    i_max: Amps,
    alphas: &[f64],
    sigma_resistor: f64,
) -> Vec<AlphaChoicePoint> {
    assert!(!alphas.is_empty(), "sweep needs at least one α");
    assert!(sigma_resistor > 0.0, "matching σ must be positive");
    // Validate before fanning out: a panic inside a scoped worker would
    // surface as an opaque "worker panicked" instead of this message.
    for &alpha in alphas {
        assert!(alpha > 0.0 && alpha < 1.0, "α must be in (0, 1)");
    }
    stt_stats::fill_indexed(alphas.len(), |k| {
        let alpha = alphas[k];
        let design = NondestructiveDesign::optimize(cell, i_max, alpha);
        let margins = design.margins(cell, &Perturbations::NONE);
        let window = allowable_alpha_deviation(cell, &design);
        let geometry_penalty = 1.0 + ((1.0 - alpha) / alpha).ln().abs();
        let sigma_deviation =
            (1.0 - alpha) * std::f64::consts::SQRT_2 * sigma_resistor * geometry_penalty;
        let narrow_edge = window.high.min(window.low.abs());
        AlphaChoicePoint {
            alpha,
            beta: design.beta(),
            margin: margins.min(),
            deviation_window: window,
            sigma_deviation,
            margin_over_3_sigma: narrow_edge / (3.0 * sigma_deviation),
        }
    })
}

/// For margins *linear* in the disturbance: returns the window over which
/// both stay positive, solved exactly from value + slope.
fn linear_window<F: Fn(f64) -> SenseMargins>(margins_at: F) -> ValidRange {
    let base = margins_at(0.0);
    let probe = margins_at(1.0);
    let slope0 = probe.margin0.get() - base.margin0.get();
    let slope1 = probe.margin1.get() - base.margin1.get();
    // SM0 rises with the disturbance and SM1 falls (or vice versa); each
    // zero crossing is one window edge.
    let root0 = -base.margin0.get() / slope0;
    let root1 = -base.margin1.get() / slope1;
    ValidRange {
        low: root0.min(root1),
        high: root0.max(root1),
    }
}

/// Bisection for a zero of a monotone margin function.
fn bisect_zero<F: Fn(f64) -> f64>(f: &F, mut low: f64, mut high: f64) -> f64 {
    let f_low = f(low);
    let f_high = f(high);
    assert!(
        f_low.signum() != f_high.signum(),
        "margin zero bracket [{low}, {high}] has no sign change \
         (f(low) = {f_low:.3e}, f(high) = {f_high:.3e})"
    );
    for _ in 0..200 {
        let mid = 0.5 * (low + high);
        if (high - low) < 1e-12 * mid.abs().max(1.0) {
            return mid;
        }
        if f(mid).signum() == f_low.signum() {
            low = mid;
        } else {
            high = mid;
        }
    }
    0.5 * (low + high)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPoint;
    use stt_array::CellSpec;

    fn nominal_cell() -> Cell {
        CellSpec::date2010_chip().nominal_cell()
    }

    const I_MAX: Amps = Amps::new(200e-6);

    #[test]
    fn fig6_shape_margins_cross_over_beta() {
        let cell = nominal_cell();
        let sweep = beta_sweep(&cell, I_MAX, 0.5, 1.0, 3.0, 40);
        assert_eq!(sweep.len(), 41);
        // Destructive SM1 decreases along β while SM0 increases.
        let first = &sweep[0];
        let last = &sweep[40];
        assert!(first.destructive.margin1 > last.destructive.margin1);
        assert!(first.destructive.margin0 < last.destructive.margin0);
        // Nondestructive margins only become simultaneously positive past
        // β = 1/α = 2 (the paper's "valid β" band sits to the right of the
        // destructive one).
        assert!(!sweep[0].nondestructive.both_positive());
        let valid_point = sweep
            .iter()
            .find(|point| point.nondestructive.both_positive())
            .expect("some β must be valid");
        assert!(valid_point.beta > 2.0);
    }

    #[test]
    fn table2_beta_ranges() {
        let cell = nominal_cell();
        let destructive = valid_beta_destructive(&cell, I_MAX);
        let nondestructive = valid_beta_nondestructive(&cell, I_MAX, 0.5);
        // Destructive: valid from ~1 (Table II "Min β ~1").
        assert!(
            (destructive.low - 1.0).abs() < 0.05,
            "low {}",
            destructive.low
        );
        assert!(
            destructive.high > 1.5 && destructive.high < 3.0,
            "high {}",
            destructive.high
        );
        // Nondestructive: a strictly tighter window at larger β
        // (Table II: min ≈ 2).
        assert!(
            (nondestructive.low - 2.0).abs() < 0.2,
            "low {}",
            nondestructive.low
        );
        assert!(nondestructive.high > nondestructive.low);
        assert!(
            nondestructive.width() < destructive.width(),
            "nondestructive window must be tighter: {} vs {}",
            nondestructive.width(),
            destructive.width()
        );
        // The design β of each scheme sits inside its window.
        let design = DesignPoint::date2010(&cell);
        assert!(destructive.contains(design.destructive.beta()));
        assert!(nondestructive.contains(design.nondestructive.beta()));
    }

    #[test]
    fn fig7_shape_and_table2_delta_rt() {
        let cell = nominal_cell();
        let design = DesignPoint::date2010(&cell);
        let destructive = allowable_delta_rt_destructive(&cell, &design.destructive);
        let nondestructive = allowable_delta_rt_nondestructive(&cell, &design.nondestructive);
        // Symmetric about zero at the equal-margin design point.
        assert!((destructive.low + destructive.high).abs() < 1.0);
        assert!((nondestructive.low + nondestructive.high).abs() < 1.0);
        // DESIGN.md §5: ≈ ±450 Ω (paper ±468 Ω) vs ≈ ±93 Ω (paper ±130 Ω).
        assert!(
            (400.0..520.0).contains(&destructive.high),
            "destr {}",
            destructive.high
        );
        assert!(
            (70.0..160.0).contains(&nondestructive.high),
            "nondes {}",
            nondestructive.high
        );
        // The paper's qualitative claim: the nondestructive window is
        // several times tighter.
        assert!(destructive.high / nondestructive.high > 3.0);
    }

    #[test]
    fn fig7_sweep_is_linear_and_consistent_with_window() {
        let cell = nominal_cell();
        let design = DesignPoint::date2010(&cell);
        let sweep = delta_rt_sweep(
            &cell,
            &design.destructive,
            &design.nondestructive,
            Ohms::new(-600.0),
            Ohms::new(600.0),
            24,
        );
        // Linearity: second differences vanish.
        let values: Vec<f64> = sweep.iter().map(|p| p.destructive.margin1.get()).collect();
        for window in values.windows(3) {
            let second_diff = window[2] - 2.0 * window[1] + window[0];
            assert!(second_diff.abs() < 1e-12, "nonlinear margin vs ΔR_T");
        }
        // Window consistency: inside → both positive, outside → not.
        let window = allowable_delta_rt_nondestructive(&cell, &design.nondestructive);
        for point in &sweep {
            let inside = window.contains(point.delta_r_t.get());
            assert_eq!(
                point.nondestructive.both_positive(),
                inside,
                "at ΔR_T = {}",
                point.delta_r_t
            );
        }
    }

    #[test]
    fn fig8_shape_and_table2_alpha_window() {
        let cell = nominal_cell();
        let design = DesignPoint::date2010(&cell);
        let window = allowable_alpha_deviation(&cell, &design.nondestructive);
        // Paper: +4.13 % / −5.71 % — asymmetric with the negative side
        // wider; reconstruction predicts ≈ +2.8 % / −4.0 %.
        assert!(
            window.high > 0.015 && window.high < 0.06,
            "high {}",
            window.high
        );
        assert!(
            window.low < -0.02 && window.low > -0.08,
            "low {}",
            window.low
        );
        assert!(
            window.low.abs() > window.high,
            "negative side must be wider: {window:?}"
        );
    }

    #[test]
    fn fig8_sweep_brackets_the_window() {
        let cell = nominal_cell();
        let design = DesignPoint::date2010(&cell);
        let sweep = alpha_deviation_sweep(&cell, &design.nondestructive, -0.06, 0.05, 22);
        let window = allowable_alpha_deviation(&cell, &design.nondestructive);
        for point in &sweep {
            assert_eq!(
                point.nondestructive.both_positive(),
                window.contains(point.deviation),
                "at Δr = {}",
                point.deviation
            );
        }
    }

    #[test]
    fn summary_is_self_consistent() {
        let cell = nominal_cell();
        let summary = robustness_summary(&cell, I_MAX, 0.5);
        assert!(summary.destructive_beta.width() > 0.0);
        assert!(summary.nondestructive_beta.width() > 0.0);
        assert!(summary.destructive_delta_rt.width() > summary.nondestructive_delta_rt.width());
        assert!(summary.nondestructive_alpha_deviation.contains(0.0));
    }

    #[test]
    fn alpha_ablation_prefers_the_symmetric_divider() {
        // Paper §III-A: α = 0.5 is chosen for matching, not margin. The
        // sweep exposes the real trade: larger α buys absolute margin
        // (I_R1 = I_max·α/(αβ) grows), but the symmetric divider's superior
        // matching wins the robustness score.
        let cell = nominal_cell();
        let alphas = [0.3, 0.4, 0.5, 0.6, 0.7];
        let sweep = alpha_choice_sweep(&cell, I_MAX, &alphas, 0.01);
        // Margin is unimodal in α with the maximum essentially at 0.5: it
        // rises from 0.3 to 0.5 and falls from 0.6 to 0.7.
        assert!(sweep[0].margin < sweep[1].margin);
        assert!(sweep[1].margin < sweep[2].margin);
        assert!(sweep[3].margin > sweep[4].margin);
        let peak = sweep
            .iter()
            .map(|p| p.margin.get())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            sweep[2].margin.get() > 0.99 * peak,
            "α = 0.5 sits within 1 % of the margin peak"
        );
        // αβ is (nearly) pinned by the device across the sweep.
        let product = |point: &AlphaChoicePoint| point.alpha * point.beta;
        for point in &sweep {
            assert!(
                (product(point) / product(&sweep[2]) - 1.0).abs() < 0.03,
                "αβ at α={} drifted",
                point.alpha
            );
        }
        // …but the robustness score still peaks at the symmetric divider.
        let best = sweep
            .iter()
            .max_by(|a, b| {
                a.margin_over_3_sigma
                    .partial_cmp(&b.margin_over_3_sigma)
                    .expect("finite scores")
            })
            .expect("non-empty sweep");
        assert_eq!(best.alpha, 0.5, "symmetric divider must score best");
        // And at 1 % matching the design survives a 3σ divider excursion.
        assert!(
            best.margin_over_3_sigma > 1.0,
            "score {}",
            best.margin_over_3_sigma
        );
    }

    #[test]
    fn valid_range_accessors() {
        let range = ValidRange {
            low: -2.0,
            high: 3.0,
        };
        assert_eq!(range.width(), 5.0);
        assert!(range.contains(0.0));
        assert!(!range.contains(3.5));
    }
}
