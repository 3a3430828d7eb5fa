//! Process-variation modelling and device sampling.
//!
//! The paper's motivating failure mechanism: "MTJ resistance increases by 8 %
//! when the thickness of oxide barrier in the MTJ changes from 14 Å to
//! 14.1 Å". Tunnel resistance is exponential in barrier thickness, so
//! thickness variation produces a *multiplicative lognormal* spread common to
//! both resistance states (the resistance–area product moves; TMR is largely
//! preserved). A second, smaller, independent lognormal factor on the high
//! state models interface-polarisation (TMR) variation.
//!
//! [`VariationModel`] samples those two factors per bit, and
//! [`OxideSensitivity`] converts thickness numbers into resistance factors so
//! the σ used in experiments can be traced back to the paper's 8 %/0.1 Å
//! statement.

use rand::Rng;

use crate::model::LinearRolloff;

/// Draws a standard normal via Box–Muller over the crate's `rand` uniform
/// source (the `rand_distr` crate is outside the allowed dependency set).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Exponential sensitivity of tunnel resistance to barrier thickness.
///
/// `R ∝ exp(t / λ)`, with λ calibrated from a known (Δt, factor) pair.
///
/// # Examples
///
/// ```
/// use stt_mtj::OxideSensitivity;
///
/// // The paper's anchor: +0.1 Å of MgO → ×1.08 resistance, so a 0.1 Å
/// // thickness spread is a lognormal resistance σ of ln 1.08.
/// let mgo = OxideSensitivity::date2010_mgo();
/// assert!((mgo.lognormal_sigma(0.1) - 1.08f64.ln()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OxideSensitivity {
    /// Characteristic decay length λ in ångström.
    lambda_angstrom: f64,
}

impl OxideSensitivity {
    /// Calibrates λ from a measured pair: a thickness change of
    /// `delta_angstrom` multiplies the resistance by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `delta_angstrom` is zero or `factor` is not positive and
    /// different from 1 (no sensitivity could be inferred).
    fn from_measurement(delta_angstrom: f64, factor: f64) -> Self {
        assert!(delta_angstrom != 0.0, "thickness change must be nonzero");
        assert!(
            factor > 0.0 && factor != 1.0,
            "resistance factor must be positive and not exactly 1"
        );
        Self {
            lambda_angstrom: delta_angstrom / factor.ln(),
        }
    }

    /// The paper's MgO anchor point: ×1.08 per +0.1 Å.
    #[must_use]
    pub fn date2010_mgo() -> Self {
        Self::from_measurement(0.1, 1.08)
    }

    /// The lognormal σ of the resistance factor induced by a Gaussian
    /// thickness spread of `sigma_angstrom`.
    ///
    /// Because `ln R` is linear in thickness, σ(ln R) = σ_t / λ.
    #[must_use]
    pub fn lognormal_sigma(&self, sigma_angstrom: f64) -> f64 {
        (sigma_angstrom / self.lambda_angstrom).abs()
    }
}

/// Per-bit multiplicative variation factors drawn for one MTJ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledMtj {
    /// Common-mode (resistance–area) factor applied to both states.
    pub ra_factor: f64,
    /// Independent factor applied to the high state only (TMR variation).
    pub tmr_factor: f64,
}

impl SampledMtj {
    /// The nominal (unvaried) device.
    pub const NOMINAL: Self = Self {
        ra_factor: 1.0,
        tmr_factor: 1.0,
    };

    /// Applies the factors to a nominal resistance calibration.
    #[must_use]
    pub fn apply(&self, nominal: &LinearRolloff) -> LinearRolloff {
        nominal
            .scaled(self.ra_factor)
            .with_high_scaled(self.tmr_factor)
    }
}

/// Bit-to-bit MTJ variation: lognormal common mode plus lognormal TMR mode.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
/// use stt_mtj::VariationModel;
///
/// let model = VariationModel::date2010_chip();
/// let mut rng = StdRng::seed_from_u64(7);
/// let sample = model.sample(&mut rng);
/// assert!(sample.ra_factor > 0.0 && sample.tmr_factor > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    sigma_ra: f64,
    sigma_tmr: f64,
}

impl VariationModel {
    /// Creates a variation model from the lognormal σ of the common-mode
    /// (RA-product) factor and of the independent high-state (TMR) factor.
    ///
    /// # Panics
    ///
    /// Panics if either σ is negative or ≥ 1 (a lognormal σ that large makes
    /// the high/low state ordering unreliable and is far outside any
    /// manufacturable process).
    #[must_use]
    pub fn new(sigma_ra: f64, sigma_tmr: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&sigma_ra),
            "common-mode sigma must be in [0, 1)"
        );
        assert!(
            (0.0..1.0).contains(&sigma_tmr),
            "TMR sigma must be in [0, 1)"
        );
        Self {
            sigma_ra,
            sigma_tmr,
        }
    }

    /// No variation: every sample is the nominal device.
    #[must_use]
    pub fn none() -> Self {
        Self::new(0.0, 0.0)
    }

    /// The calibration used for the Fig. 11 chip experiment: 9 % common
    /// mode, 2 % TMR mode (see DESIGN.md §5 — chosen so conventional
    /// fixed-reference sensing fails ≈1 % of bits while both self-reference
    /// schemes pass, matching the paper's measured 16 kb chip).
    #[must_use]
    pub fn date2010_chip() -> Self {
        Self::new(0.09, 0.02)
    }

    /// Common-mode lognormal σ.
    #[must_use]
    pub fn sigma_ra(&self) -> f64 {
        self.sigma_ra
    }

    /// TMR-mode lognormal σ.
    #[must_use]
    pub fn sigma_tmr(&self) -> f64 {
        self.sigma_tmr
    }

    /// Draws variation factors for two *adjacent* junctions with spatial
    /// correlation `rho` on the common-mode (RA) factor.
    ///
    /// Neighbouring devices share most of their process environment, so a
    /// complementary 2T-2MTJ cell pair sees highly correlated RA factors
    /// (ρ ≈ 0.9 at one cell pitch); the TMR perturbations stay independent
    /// (interface roughness is local).
    ///
    /// # Panics
    ///
    /// Panics if `rho` is outside `[0, 1]`.
    pub fn sample_pair<R: Rng + ?Sized>(&self, rho: f64, rng: &mut R) -> (SampledMtj, SampledMtj) {
        assert!((0.0..=1.0).contains(&rho), "correlation must be in [0, 1]");
        let shared = standard_normal(rng);
        let draw = |rng: &mut R| {
            let own = standard_normal(rng);
            let z = rho.sqrt() * shared + (1.0 - rho).sqrt() * own;
            SampledMtj {
                ra_factor: (self.sigma_ra * z).exp(),
                tmr_factor: (self.sigma_tmr * standard_normal(rng)).exp(),
            }
        };
        let first = draw(rng);
        let second = draw(rng);
        (first, second)
    }

    /// Draws the variation factors for one bit.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SampledMtj {
        SampledMtj {
            ra_factor: (self.sigma_ra * standard_normal(rng)).exp(),
            tmr_factor: (self.sigma_tmr * standard_normal(rng)).exp(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ResistanceModel;
    use crate::ResistanceState;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stt_units::{Amps, Ohms};

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
    fn oxide_sigma_conversion_is_linear_in_thickness() {
        let mgo = OxideSensitivity::date2010_mgo();
        let one = mgo.lognormal_sigma(0.1);
        let two = mgo.lognormal_sigma(0.2);
        assert!((two - 2.0 * one).abs() < 1e-12);
        // 0.1 Å of spread is ~7.7 % of resistance spread: 0.1/λ = ln(1.08).
        assert!((one - 1.08f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn nominal_sample_is_identity() {
        let device = SampledMtj::NOMINAL.apply(&typical_linear());
        assert_eq!(device, typical_linear());
    }

    #[test]
    fn zero_sigma_always_samples_nominal() {
        let model = VariationModel::none();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..32 {
            let sample = model.sample(&mut rng);
            assert_eq!(sample.ra_factor, 1.0);
            assert_eq!(sample.tmr_factor, 1.0);
        }
    }

    #[test]
    fn sample_statistics_match_requested_sigma() {
        let model = VariationModel::date2010_chip();
        let mut rng = StdRng::seed_from_u64(2024);
        let n = 20_000;
        let log_factors: Vec<f64> = (0..n)
            .map(|_| model.sample(&mut rng).ra_factor.ln())
            .collect();
        let mean = log_factors.iter().sum::<f64>() / n as f64;
        let var = log_factors.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.005, "log-mean drift {mean}");
        assert!(
            (var.sqrt() - 0.09).abs() < 0.005,
            "log-sigma {} should be ~0.09",
            var.sqrt()
        );
    }

    #[test]
    fn applied_variation_scales_resistances() {
        let nominal = typical_linear();
        let sample = SampledMtj {
            ra_factor: 1.2,
            tmr_factor: 0.9,
        };
        let varied = sample.apply(&nominal);
        let i = Amps::from_micro(100.0);
        let low_ratio = varied.resistance(ResistanceState::Parallel, i)
            / nominal.resistance(ResistanceState::Parallel, i);
        assert!((low_ratio - 1.2).abs() < 1e-12);
        let high_ratio = varied.resistance(ResistanceState::AntiParallel, i)
            / nominal.resistance(ResistanceState::AntiParallel, i);
        assert!((high_ratio - 1.2 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn pair_sampling_correlates_ra_factors() {
        let model = VariationModel::date2010_chip();
        let mut rng = StdRng::seed_from_u64(31);
        let n = 20_000;
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let (a, b) = model.sample_pair(0.9, &mut rng);
            xs.push(a.ra_factor.ln());
            ys.push(b.ra_factor.ln());
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mx, my) = (mean(&xs), mean(&ys));
        let mut sxy = 0.0;
        let mut sxx = 0.0;
        let mut syy = 0.0;
        for (x, y) in xs.iter().zip(&ys) {
            sxy += (x - mx) * (y - my);
            sxx += (x - mx).powi(2);
            syy += (y - my).powi(2);
        }
        let rho = sxy / (sxx * syy).sqrt();
        assert!((rho - 0.9).abs() < 0.02, "sampled correlation {rho}");
    }

    #[test]
    fn pair_sampling_extremes() {
        let model = VariationModel::date2010_chip();
        let mut rng = StdRng::seed_from_u64(5);
        // ρ = 1: identical RA factors.
        let (a, b) = model.sample_pair(1.0, &mut rng);
        assert!((a.ra_factor - b.ra_factor).abs() < 1e-12);
        // TMR factors stay independent even at ρ = 1.
        assert_ne!(a.tmr_factor, b.tmr_factor);
    }

    #[test]
    #[should_panic(expected = "common-mode sigma")]
    fn rejects_enormous_sigma() {
        let _ = VariationModel::new(1.5, 0.02);
    }

    proptest! {
        #[test]
        fn prop_sampled_factors_positive(seed in 0u64..1000) {
            let model = VariationModel::date2010_chip();
            let mut rng = StdRng::seed_from_u64(seed);
            let sample = model.sample(&mut rng);
            prop_assert!(sample.ra_factor > 0.0);
            prop_assert!(sample.tmr_factor > 0.0);
        }

        #[test]
        fn prop_varied_device_preserves_state_ordering(seed in 0u64..1000) {
            // With the chip calibration, the TMR mode is far too small to
            // flip the high/low ordering — the sensing schemes rely on that.
            let model = VariationModel::date2010_chip();
            let mut rng = StdRng::seed_from_u64(seed);
            let device = model.sample(&mut rng).apply(&typical_linear());
            let i = Amps::from_micro(200.0);
            prop_assert!(
                device.resistance(ResistanceState::AntiParallel, i)
                    > device.resistance(ResistanceState::Parallel, i)
            );
        }
    }
}
