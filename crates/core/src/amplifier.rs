//! Behavioural sense-amplifier models.
//!
//! The paper's test chip uses "an auto-zero sense-amplifier with a built-in
//! data latch … to eliminate the influence of device mismatch in sense
//! amplifier", and quotes "a sense margin about 8 mV" as the usable
//! resolution of the sensing path. Two behavioural models capture the two
//! sensing paths:
//!
//! * [`SenseAmplifier::plain_latch`] — a conventional latch comparator whose
//!   input-referred offset (σ ≈ 3 mV, usable threshold 8 mV) is what a
//!   shared-reference sensing path has to overcome;
//! * [`SenseAmplifier::auto_zero`] — the offset-cancelled SA used by both
//!   self-reference paths (residual σ ≈ 0.3 mV, usable threshold 1 mV).

use rand::Rng;
use stt_units::Volts;

/// A thresholded comparator with Gaussian input-referred offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseAmplifier {
    offset_sigma: Volts,
    usable_threshold: Volts,
}

impl SenseAmplifier {
    /// Creates a sense amplifier from its offset σ and the margin it needs
    /// to resolve reliably across process corners.
    ///
    /// # Panics
    ///
    /// Panics if either quantity is negative.
    #[must_use]
    pub fn new(offset_sigma: Volts, usable_threshold: Volts) -> Self {
        assert!(
            offset_sigma.get() >= 0.0,
            "offset sigma must be non-negative"
        );
        assert!(
            usable_threshold.get() >= 0.0,
            "usable threshold must be non-negative"
        );
        Self {
            offset_sigma,
            usable_threshold,
        }
    }

    /// A conventional latch comparator: σ = 3 mV offset, 8 mV usable
    /// threshold (the paper's quoted sensing-path resolution).
    #[must_use]
    pub fn plain_latch() -> Self {
        Self::new(Volts::from_milli(3.0), Volts::from_milli(8.0))
    }

    /// The paper's auto-zero SA with built-in data latch: offset cancelled
    /// to a σ = 0.3 mV residual, 1 mV usable threshold.
    #[must_use]
    pub fn auto_zero() -> Self {
        Self::new(Volts::from_milli(0.3), Volts::from_milli(1.0))
    }

    /// An ideal comparator (for analytic cross-checks).
    #[must_use]
    pub fn ideal() -> Self {
        Self::new(Volts::ZERO, Volts::ZERO)
    }

    /// The offset standard deviation.
    #[must_use]
    pub fn offset_sigma(&self) -> Volts {
        self.offset_sigma
    }

    /// The margin this SA needs to resolve reliably (yield criterion).
    #[must_use]
    pub fn usable_threshold(&self) -> Volts {
        self.usable_threshold
    }

    /// Draws one instance's input-referred offset.
    pub fn sample_offset<R: Rng + ?Sized>(&self, rng: &mut R) -> Volts {
        Volts::new(self.offset_sigma.get() * stt_stats::dist::standard_normal(rng))
    }

    /// Comparator decision with a concrete offset: `true` when
    /// `v_plus − v_minus + offset > 0`.
    #[must_use]
    pub fn resolve(&self, differential: Volts, offset: Volts) -> bool {
        (differential + offset).get() > 0.0
    }

    /// Yield criterion: does a margin clear this SA's usable threshold?
    #[must_use]
    pub fn clears_threshold(&self, margin: Volts) -> bool {
        margin > self.usable_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_amplifier_is_a_sign_function() {
        let sa = SenseAmplifier::ideal();
        assert!(sa.resolve(Volts::from_milli(0.001), Volts::ZERO));
        assert!(!sa.resolve(-Volts::from_milli(0.001), Volts::ZERO));
        assert!(sa.clears_threshold(Volts::from_milli(0.001)));
    }

    #[test]
    fn offset_shifts_the_decision() {
        let sa = SenseAmplifier::plain_latch();
        let differential = Volts::from_milli(2.0);
        assert!(sa.resolve(differential, Volts::ZERO));
        assert!(!sa.resolve(differential, Volts::from_milli(-2.5)));
    }

    #[test]
    fn auto_zero_has_much_smaller_offset() {
        let plain = SenseAmplifier::plain_latch();
        let auto_zero = SenseAmplifier::auto_zero();
        assert!(auto_zero.offset_sigma() < plain.offset_sigma() * 0.2);
        assert!(auto_zero.usable_threshold() < plain.usable_threshold());
    }

    #[test]
    fn sampled_offsets_match_sigma() {
        let sa = SenseAmplifier::plain_latch();
        let mut rng = StdRng::seed_from_u64(8);
        let n = 20_000;
        let offsets: Vec<f64> = (0..n).map(|_| sa.sample_offset(&mut rng).get()).collect();
        let mean = offsets.iter().sum::<f64>() / n as f64;
        let sigma =
            (offsets.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt();
        assert!(mean.abs() < 1e-4, "offset mean {mean}");
        assert!((sigma - 3e-3).abs() < 1e-4, "offset sigma {sigma}");
    }

    #[test]
    fn threshold_is_exclusive() {
        let sa = SenseAmplifier::plain_latch();
        assert!(!sa.clears_threshold(Volts::from_milli(8.0)));
        assert!(sa.clears_threshold(Volts::from_milli(8.001)));
    }
}
