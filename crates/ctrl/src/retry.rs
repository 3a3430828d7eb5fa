//! Read-retry: the controller-side answer to marginal senses.
//!
//! A sense whose comparator input lands inside the amplifier's uncertainty
//! band is a coin flip — the same bits the Fig. 11 threshold experiment
//! counts as yield losses. A memory controller does not have to accept the
//! coin flip: it can re-sense. [`RetryPolicy`] accepts the first attempt
//! whose observed differential clears a guard band, re-senses up to a
//! bounded number of times otherwise, and falls back to the sign of the
//! mean observation when no attempt is ever confident.
//!
//! The policy **short-circuits on confidence**: a read whose first attempt
//! clears the guard band is returned untouched, so retrying can never flip
//! an already-confident read — a property the integration suite checks with
//! a proptest.

use stt_units::Volts;

use crate::sense::Sensed;

/// When to accept a sense and when to try again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Minimum `|observed|` for an attempt to be accepted outright.
    pub guard_band: Volts,
    /// Total sense attempts before falling back (≥ 1).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// The harness default: an 8 mV guard band (the plain latch SA's usable
    /// threshold, the paper's quoted sensing-path resolution) and up to 3
    /// attempts.
    #[must_use]
    pub fn date2010() -> Self {
        Self {
            guard_band: Volts::from_milli(8.0),
            max_attempts: 3,
        }
    }

    /// Resolves one read by calling `sense` up to [`Self::max_attempts`]
    /// times. `sense` is invoked once per attempt, in order, and **not at
    /// all** after a confident attempt.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn resolve<F: FnMut() -> Sensed>(&self, mut sense: F) -> ReadResolution {
        assert!(self.max_attempts > 0, "need at least one sense attempt");
        let mut observed_sum = 0.0;
        for attempt in 1..=self.max_attempts {
            let sensed = sense();
            observed_sum += sensed.observed.get();
            if sensed.is_confident(self.guard_band) {
                return ReadResolution {
                    bit: sensed.bit,
                    attempts: attempt,
                    confident: true,
                };
            }
        }
        // Every attempt was marginal: majority-vote via the mean
        // observation (equal-weight averaging of the comparator inputs).
        ReadResolution {
            bit: observed_sum > 0.0,
            attempts: self.max_attempts,
            confident: false,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::date2010()
    }
}

/// The controller's verdict on one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResolution {
    /// The bit delivered to the host.
    pub bit: bool,
    /// Sense attempts consumed (1 = no retry).
    pub attempts: u32,
    /// `false` when the fallback decided — the controller would flag this
    /// read to a scrub/ECC layer.
    pub confident: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensed(observed_mv: f64) -> Sensed {
        Sensed {
            bit: observed_mv > 0.0,
            observed: Volts::from_milli(observed_mv),
            correct: true,
        }
    }

    #[test]
    fn confident_first_attempt_short_circuits() {
        let policy = RetryPolicy::date2010();
        let mut calls = 0;
        let resolution = policy.resolve(|| {
            calls += 1;
            sensed(20.0)
        });
        assert_eq!(calls, 1);
        assert_eq!(
            resolution,
            ReadResolution {
                bit: true,
                attempts: 1,
                confident: true
            }
        );
    }

    #[test]
    fn marginal_attempts_trigger_retries() {
        let policy = RetryPolicy::date2010();
        let mut calls = 0;
        let outcomes = [2.0, -1.0, 30.0];
        let resolution = policy.resolve(|| {
            let out = sensed(outcomes[calls]);
            calls += 1;
            out
        });
        assert_eq!(calls, 3);
        assert!(resolution.confident);
        assert!(resolution.bit);
        assert_eq!(resolution.attempts, 3);
    }

    #[test]
    fn fallback_takes_the_sign_of_the_mean() {
        let policy = RetryPolicy::date2010();
        let mut calls = 0;
        // Individually ambiguous, negative on average.
        let outcomes = [1.0, -3.0, -1.0];
        let resolution = policy.resolve(|| {
            let out = sensed(outcomes[calls]);
            calls += 1;
            out
        });
        assert_eq!(calls, 3);
        assert!(!resolution.confident);
        assert!(!resolution.bit);
        assert_eq!(resolution.attempts, 3);
    }

    #[test]
    fn no_retry_accepts_anything() {
        // One attempt, no guard band: whatever it senses is accepted.
        let policy = RetryPolicy {
            guard_band: Volts::ZERO,
            max_attempts: 1,
        };
        let resolution = policy.resolve(|| sensed(0.001));
        assert_eq!(resolution.attempts, 1);
        assert!(resolution.confident);
    }
}
