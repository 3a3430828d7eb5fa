//! Probability distributions over `rand`'s uniform source.
//!
//! Only `rand` (not `rand_distr`) is in the allowed dependency set, so the
//! Gaussian machinery lives here: Box–Muller sampling, and the standard
//! normal CDF / quantile (Φ and Φ⁻¹) used to cross-check Monte-Carlo yields
//! against closed-form predictions.

use rand::Rng;

/// Draws a standard normal deviate via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let z = stt_stats::dist::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = box_muller_uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniform draws behind one [`standard_normal`] deviate, in draw
/// order: `u1` in `[f64::MIN_POSITIVE, 1)` (so its logarithm is finite) and
/// `u2` in `[0, 1)`.
///
/// Split out so a caller can draw exactly what [`standard_normal`] would —
/// leaving the RNG in the same place — and evaluate [`box_muller`] only when
/// it needs the deviate itself.
pub fn box_muller_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

/// The Box–Muller transform of two uniforms from [`box_muller_uniforms`]:
/// `√(−2 ln u1) · cos(2π u2)`.
#[must_use]
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The standard normal cumulative distribution function Φ(z).
///
/// Uses the complementary-error-function identity with an Abramowitz &
/// Stegun 7.1.26-style rational approximation (absolute error < 1.5 × 10⁻⁷,
/// ample for yield cross-checks).
#[must_use]
fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// The standard normal quantile function Φ⁻¹(p).
///
/// Acklam's rational approximation refined with one Newton step against
/// Φ (`normal_cdf`); relative error below 10⁻⁹ over `(0, 1)`.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
#[must_use]
#[allow(clippy::excessive_precision)] // Acklam's published coefficients, verbatim
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0, 1)");
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let mut x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Newton refinement: x -= (Φ(x) − p) / φ(x).
    let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
    if pdf > 0.0 {
        x -= (normal_cdf(x) - p) / pdf;
    }
    x
}

/// Complementary error function via the Numerical-Recipes Chebyshev fit
/// (fractional error < 1.2 × 10⁻⁷ everywhere).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Normal distribution `N(mean, sigma²)`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use stt_stats::Normal;
///
/// let dist = Normal::new(10.0, 2.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let x = dist.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    #[must_use]
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be finite and non-negative"
        );
        assert!(mean.is_finite(), "mean must be finite");
        Self { mean, sigma }
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sigma * standard_normal(rng)
    }

    /// The value below which a fraction `p` of the mass lies.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1)`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        self.mean + self.sigma * normal_quantile(p)
    }
}

/// Lognormal distribution: `exp(N(mu, sigma²))`.
///
/// The natural model for MTJ resistance spread — tunnel resistance is
/// exponential in barrier thickness, so Gaussian thickness noise produces a
/// lognormal resistance factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    log: Normal,
}

impl LogNormal {
    /// Creates a lognormal from the mean and σ of the *underlying* normal.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is not finite.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Self {
        Self {
            log: Normal::new(mu, sigma),
        }
    }

    /// Draws one sample (always positive).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.log.sample(rng).exp()
    }

    /// The distribution median, `exp(mu)`.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.log.mean().exp()
    }
}

/// Uniform distribution on `[low, high)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or either bound is not finite.
    #[must_use]
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low.is_finite() && high.is_finite(), "bounds must be finite");
        assert!(low < high, "low bound must be below high bound");
        Self { low, high }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.gen_range(self.low..self.high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn split_box_muller_is_standard_normal_bit_for_bit() {
        let mut split_rng = StdRng::seed_from_u64(41);
        let mut whole_rng = StdRng::seed_from_u64(41);
        for _ in 0..10_000 {
            let (u1, u2) = box_muller_uniforms(&mut split_rng);
            let z = standard_normal(&mut whole_rng);
            assert_eq!(box_muller(u1, u2).to_bits(), z.to_bits());
        }
        assert_eq!(split_rng.next_u64(), whole_rng.next_u64());
    }

    #[test]
    fn cdf_matches_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.0) - 0.841344746).abs() < 1e-6);
        assert!((normal_cdf(-1.0) - 0.158655254).abs() < 1e-6);
        assert!((normal_cdf(2.326347874) - 0.99).abs() < 1e-6);
        assert!(normal_cdf(8.0) > 1.0 - 1e-12);
        assert!(normal_cdf(-8.0) < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [1e-6, 0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6] {
            let z = normal_quantile(p);
            assert!(
                (normal_cdf(z) - p).abs() < 1e-7,
                "round trip failed at p={p}: z={z}, cdf={}",
                normal_cdf(z)
            );
        }
    }

    #[test]
    fn normal_sample_moments() {
        let dist = Normal::new(5.0, 3.0);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "sigma {}", var.sqrt());
    }

    #[test]
    fn degenerate_normal_is_a_point_mass() {
        let dist = Normal::new(2.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(dist.sample(&mut rng), 2.0);
    }

    #[test]
    fn lognormal_median_and_positivity() {
        let dist = LogNormal::new(0.0, 0.1);
        assert!((dist.median() - 1.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(3);
        let mut below = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let x = dist.sample(&mut rng);
            assert!(x > 0.0);
            if x < 1.0 {
                below += 1;
            }
        }
        let fraction_below_median = below as f64 / n as f64;
        assert!(
            (fraction_below_median - 0.5).abs() < 0.02,
            "median split {fraction_below_median}"
        );
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let dist = Uniform::new(-2.0, 7.0);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = dist.sample(&mut rng);
            assert!((-2.0..7.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "low bound must be below")]
    fn uniform_rejects_inverted_bounds() {
        let _ = Uniform::new(3.0, 3.0);
    }

    #[test]
    #[should_panic(expected = "quantile probability")]
    fn quantile_rejects_unit_probability() {
        let _ = normal_quantile(1.0);
    }

    proptest! {
        #[test]
        fn prop_cdf_monotone(a in -6.0f64..6.0, b in -6.0f64..6.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
        }

        #[test]
        fn prop_cdf_symmetry(z in -6.0f64..6.0) {
            prop_assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_quantile_round_trip(p in 0.0001f64..0.9999) {
            let z = normal_quantile(p);
            prop_assert!((normal_cdf(z) - p).abs() < 1e-7);
        }

        #[test]
        fn prop_normal_quantile_shifts_linearly(p in 0.01f64..0.99, mean in -5.0f64..5.0) {
            let base = Normal::new(0.0, 1.0).quantile(p);
            let shifted = Normal::new(mean, 1.0).quantile(p);
            prop_assert!((shifted - base - mean).abs() < 1e-9);
        }
    }
}
