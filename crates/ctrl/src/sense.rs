//! Runtime scheme dispatch for the controller's read path.
//!
//! The sensing crate exposes the three schemes as distinct types behind the
//! [`SenseScheme`] trait; a controller picks one per configuration at run
//! time, so this module wraps them in an enum and exposes the one operation
//! the engine needs: *sense this cell once, mutating the array exactly as
//! the scheme's hardware sequence would*.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use stt_array::{Address, Array};
use stt_sense::{
    ConventionalScheme, DesignPoint, DestructiveScheme, NondestructiveScheme, SchemeKind,
    SenseScheme,
};
use stt_stats::dist::{box_muller, box_muller_uniforms};
use stt_units::Volts;

use crate::retry::{ReadResolution, RetryPolicy};

/// Longest retry chain [`Scheme::resolve`] serves itself: it keeps every
/// unconfident attempt's draw for a possible fallback rebuild, in a fixed
/// buffer. Longer policies take [`RetryPolicy::resolve`] directly.
const KEPT_ATTEMPTS: usize = 8;

/// Relative slack of the settled-attempt bound, far above the few-ulp
/// rounding of the expressions it covers (see [`Settle`]).
const SETTLE_SLACK: f64 = 1e-9;

/// Smallest `room / σ` the settled-attempt bound is used for: below it,
/// `1 + k²/2` rounds too coarsely for [`SETTLE_SLACK`] to cover.
const SETTLE_MIN_K: f64 = 1e-3;

/// Smallest `room / g` the settled-attempt bound is used for: below it,
/// the slack left inside `room` can be under half an ulp of `g`.
const SETTLE_MIN_ROOM: f64 = 1e-6;

/// One sensing attempt, with the quantity the retry policy judges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sensed {
    /// The bit the comparator latched.
    pub bit: bool,
    /// What the comparator actually saw: differential **plus** this
    /// instance's sampled offset. `bit == (observed > 0)`.
    pub observed: Volts,
    /// Whether the latched bit matches the state the cell held when the
    /// attempt started.
    pub correct: bool,
}

impl Sensed {
    /// `true` when `observed` clears `guard_band` in magnitude — the read
    /// was unambiguous as far as the retry policy is concerned.
    #[must_use]
    pub fn is_confident(&self, guard_band: Volts) -> bool {
        self.observed.get().abs() >= guard_band.get()
    }
}

/// A run-time-selected sensing scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// Shared-reference sensing.
    Conventional(ConventionalScheme),
    /// Destructive self-reference (erase + write back on every read).
    Destructive(DestructiveScheme),
    /// The paper's nondestructive self-reference.
    Nondestructive(NondestructiveScheme),
}

impl Scheme {
    /// Builds the scheme of `kind` from a design point.
    #[must_use]
    pub fn for_kind(kind: SchemeKind, design: &DesignPoint) -> Self {
        match kind {
            SchemeKind::Conventional => {
                Scheme::Conventional(ConventionalScheme::new(design.conventional))
            }
            SchemeKind::Destructive => {
                Scheme::Destructive(DestructiveScheme::new(design.destructive))
            }
            SchemeKind::Nondestructive => {
                Scheme::Nondestructive(NondestructiveScheme::new(design.nondestructive))
            }
        }
    }

    /// Which scheme this is.
    #[must_use]
    pub fn kind(&self) -> SchemeKind {
        match self {
            Scheme::Conventional(s) => s.kind(),
            Scheme::Destructive(s) => s.kind(),
            Scheme::Nondestructive(s) => s.kind(),
        }
    }

    /// `true` if a read overwrites the cell (and must write it back).
    #[must_use]
    pub fn is_destructive(&self) -> bool {
        matches!(self, Scheme::Destructive(_))
    }

    /// Senses `addr` once, with this scheme's full hardware sequence.
    ///
    /// Conventional and nondestructive reads never touch cell state. A
    /// destructive read runs the §II-C sequence — sense, erase with a real
    /// programming pulse, write back the *sensed* value — so a mis-sense
    /// physically corrupts the cell, exactly the failure mode the paper
    /// describes.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn sense_once(&self, array: &mut Array, addr: Address, rng: &mut StdRng) -> Sensed {
        match self {
            Scheme::Conventional(s) => sense_analytic(s, array, addr, rng),
            Scheme::Nondestructive(s) => sense_analytic(s, array, addr, rng),
            Scheme::Destructive(s) => {
                let sensed = sense_analytic(s, array, addr, rng);
                array.write_bit_pulsed(addr, false, rng);
                array.write_bit_pulsed(addr, sensed.bit, rng);
                sensed
            }
        }
    }

    /// Resolves one read of `addr` through `retry`: the controller's read
    /// path.
    ///
    /// The result is exactly `retry.resolve(|| self.sense_once(array, addr,
    /// rng))` — the same [`ReadResolution`], the same RNG position
    /// afterwards and, for the destructive scheme, the same cell state;
    /// [`RetryPolicy::resolve`] is the reference semantics. Every attempt
    /// still draws its offset's two uniforms in order, but most attempts are
    /// decided from the settled differential and `u1` alone, without
    /// evaluating the Box–Muller transform (DESIGN.md §12 states the bound).
    ///
    /// # Panics
    ///
    /// Panics if `retry.max_attempts` is zero or the address is out of
    /// range.
    pub fn resolve(
        &self,
        retry: &RetryPolicy,
        array: &mut Array,
        addr: Address,
        rng: &mut StdRng,
    ) -> ReadResolution {
        assert!(retry.max_attempts > 0, "need at least one sense attempt");
        if retry.max_attempts as usize > KEPT_ATTEMPTS {
            return retry.resolve(|| self.sense_once(array, addr, rng));
        }
        match self {
            Scheme::Conventional(s) => resolve_settled(s, retry, array, addr, rng),
            Scheme::Destructive(s) => resolve_settled(s, retry, array, addr, rng),
            Scheme::Nondestructive(s) => resolve_settled(s, retry, array, addr, rng),
        }
    }

    /// The sense step alone, with no state mutation even for the
    /// destructive scheme.
    ///
    /// The fault injector needs this to build the destructive sequence as
    /// *separate* interruptible steps (sense, erase, write back) for
    /// [`stt_array::run_with_power_failure`].
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn sense_readonly(&self, array: &Array, addr: Address, rng: &mut StdRng) -> Sensed {
        match self {
            Scheme::Conventional(s) => sense_analytic(s, array, addr, rng),
            Scheme::Nondestructive(s) => sense_analytic(s, array, addr, rng),
            Scheme::Destructive(s) => sense_analytic(s, array, addr, rng),
        }
    }
}

/// The analytic sense shared by every scheme: settled differential from the
/// scheme's margins, plus a freshly sampled amplifier offset.
///
/// This mirrors [`SenseScheme::read`] but keeps the offset visible in
/// `observed`, because the retry policy needs the comparator's actual input,
/// not just the sign it latched.
fn sense_analytic<S: SenseScheme>(
    scheme: &S,
    array: &Array,
    addr: Address,
    rng: &mut StdRng,
) -> Sensed {
    let cell = array.cell(addr);
    let stored = cell.state();
    let differential = scheme.differential(cell, stored);
    let offset = scheme.amplifier().sample_offset(rng);
    let bit = scheme.amplifier().resolve(differential, offset);
    Sensed {
        bit,
        observed: differential + offset,
        correct: bit == stored.bit(),
    }
}

/// [`Scheme::resolve`] for one scheme type, with at most [`KEPT_ATTEMPTS`]
/// attempts.
///
/// The differential is computed once per chain — per attempt for a
/// destructive scheme, whose mis-sensed write-back can flip the state. Each
/// attempt draws `(u1, u2)` exactly as [`SenseAmplifier::sample_offset`]
/// would, so the RNG stream never moves, then asks [`Settle`] whether `u1`
/// already fixes the outcome; only the rest evaluate the exact observation.
///
/// An unconfident chain falls back on the sign of the summed observations.
/// Each settled unconfident observation has its differential's sign, so if
/// every attempt settled and all differentials share a sign, the sum has it
/// too. Otherwise the kept uniforms rebuild the exact observations, summed
/// in attempt order as [`RetryPolicy::resolve`] does.
///
/// [`SenseAmplifier::sample_offset`]: stt_sense::SenseAmplifier::sample_offset
fn resolve_settled<S: SenseScheme>(
    scheme: &S,
    retry: &RetryPolicy,
    array: &mut Array,
    addr: Address,
    rng: &mut StdRng,
) -> ReadResolution {
    let sigma = scheme.amplifier().offset_sigma().get();
    let guard = retry.guard_band.get();
    let mut differential = 0.0;
    let mut settle = Settle::EXACT;
    // (differential, u1, u2) of each unconfident attempt, in order.
    let mut kept = [(0.0, 0.0, 0.0); KEPT_ATTEMPTS];
    let mut all_settled = true;
    for attempt in 1..=retry.max_attempts {
        if attempt == 1 || scheme.is_destructive() {
            let cell = array.cell(addr);
            differential = scheme.differential(cell, cell.state()).get();
            settle = Settle::new(differential, guard, sigma);
        }
        let (u1, u2) = box_muller_uniforms(rng);
        let (bit, confident) = match settle.decide(u1) {
            Some(confident) => (differential > 0.0, confident),
            None => {
                all_settled = false;
                let observed = observed(differential, sigma, u1, u2);
                (observed > 0.0, observed.abs() >= guard)
            }
        };
        if scheme.is_destructive() {
            array.write_bit_pulsed(addr, false, rng);
            array.write_bit_pulsed(addr, bit, rng);
        }
        if confident {
            return ReadResolution {
                bit,
                attempts: attempt,
                confident: true,
            };
        }
        kept[attempt as usize - 1] = (differential, u1, u2);
    }
    let kept = &kept[..retry.max_attempts as usize];
    let positive = differential > 0.0;
    let bit = if all_settled && kept.iter().all(|&(d, _, _)| (d > 0.0) == positive) {
        positive
    } else {
        kept.iter()
            .fold(0.0, |sum, &(d, u1, u2)| sum + observed(d, sigma, u1, u2))
            > 0.0
    };
    ReadResolution {
        bit,
        attempts: retry.max_attempts,
        confident: false,
    }
}

/// The comparator input [`sense_analytic`] computes from these uniforms:
/// the differential plus `σ · box_muller(u1, u2)`, in the same operations.
fn observed(differential: f64, sigma: f64, u1: f64, u2: f64) -> f64 {
    (Volts::new(differential) + Volts::new(sigma * box_muller(u1, u2))).get()
}

/// What `u1` alone decides about an attempt on a settled differential `d`,
/// against guard band `g` and amplifier offset σ.
///
/// The attempt observes `d + σz` with `z = √(−2 ln u1) · cos(2π u2)`. Since
/// `|cos| ≤ 1` and `ln u ≥ 1 − 1/u`, `z² ≤ 2(1/u1 − 1)`, so
/// `u1 ≥ 1 / (1 + (1 − ε)k²/2)` with `k = room/σ` gives `σ|z| < room`:
///
/// * `room = |d| − g > 0`: `|d + σz| > g`, so the attempt is confident and
///   latches the sign of `d`;
/// * `room = min(g − |d|, |d|) > 0`: `|d + σz| < g` and `d + σz` has the
///   sign of `d`, so the attempt is unconfident and latches that sign.
///
/// Rounding: with `k ≥ 10⁻³`, `c = (1 − ε)k²/2 ≥ 5·10⁻⁷`, so rounding
/// `1 + c` and the division move the bound on `1/u1 − 1` by at most
/// `2⁻⁵²(1 + c) < 4.5·10⁻¹⁰ c`; `room` is exact near `g` (Sterbenz) and
/// within an ulp elsewhere; `ln`, `sqrt`, `cos` and the products add a few
/// ulps each. ε = 10⁻⁹ dominates them all and leaves the floating-point
/// `σz` at least `2·10⁻¹⁰ room` inside `room`. So the rounded `d + σz`
/// keeps the real sum's side of 0, and of `g`: a sum above `g` cannot round
/// below it, and with `room ≥ 10⁻⁶ g` a sum below it is more than half an
/// ulp of `g` away. Outside those limits, at σ = 0, or for `u1` under the
/// threshold, nothing is decided and the caller evaluates the exact
/// observation.
#[derive(Debug, Clone, Copy)]
struct Settle {
    /// Smallest `u1` the bound decides; infinite when it decides nothing.
    threshold: f64,
    /// Whether a decided attempt is confident.
    confident: bool,
}

impl Settle {
    /// Decides nothing.
    const EXACT: Self = Self {
        threshold: f64::INFINITY,
        confident: false,
    };

    fn new(differential: f64, guard: f64, sigma: f64) -> Self {
        let margin = differential.abs();
        let confident = margin > guard;
        let room = if confident {
            margin - guard
        } else {
            (guard - margin).min(margin)
        };
        let k = room / sigma;
        if !(sigma > 0.0 && k >= SETTLE_MIN_K && room >= SETTLE_MIN_ROOM * guard) {
            return Self::EXACT;
        }
        Self {
            threshold: 1.0 / (1.0 + (1.0 - SETTLE_SLACK) * k * k / 2.0),
            confident,
        }
    }

    /// `Some(confident)` when `u1` decides the attempt, `None` otherwise.
    fn decide(self, u1: f64) -> Option<bool> {
        (u1 >= self.threshold).then_some(self.confident)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stt_array::{ArraySpec, CellSpec};

    fn setup() -> (Array, DesignPoint, StdRng) {
        let mut rng = StdRng::seed_from_u64(21);
        let array = ArraySpec::small_test_array().sample(&mut rng);
        let nominal = CellSpec::date2010_chip().nominal_cell();
        (array, DesignPoint::date2010(&nominal), rng)
    }

    #[test]
    fn kinds_round_trip() {
        let (_, design, _) = setup();
        for kind in SchemeKind::ALL {
            let scheme = Scheme::for_kind(kind, &design);
            assert_eq!(scheme.kind(), kind);
            assert_eq!(scheme.is_destructive(), kind == SchemeKind::Destructive);
        }
    }

    #[test]
    fn observed_sign_matches_latched_bit() {
        let (mut array, design, mut rng) = setup();
        array.fill_with(|addr| addr.row % 2 == 0);
        for kind in SchemeKind::ALL {
            let scheme = Scheme::for_kind(kind, &design);
            for addr in array.addresses().collect::<Vec<_>>() {
                let sensed = scheme.sense_once(&mut array, addr, &mut rng);
                assert_eq!(sensed.bit, sensed.observed.get() > 0.0);
            }
        }
    }

    #[test]
    fn nondestructive_sense_never_mutates() {
        let (mut array, design, mut rng) = setup();
        array.fill_with(|addr| addr.col % 2 == 0);
        let before = array.clone();
        let scheme = Scheme::for_kind(SchemeKind::Nondestructive, &design);
        for addr in array.addresses().collect::<Vec<_>>() {
            scheme.sense_once(&mut array, addr, &mut rng);
        }
        assert_eq!(array, before);
    }

    #[test]
    fn destructive_sense_round_trips_state_on_success() {
        let (mut array, design, mut rng) = setup();
        let addr = Address::new(3, 3);
        array.write_bit(addr, true);
        let scheme = Scheme::for_kind(SchemeKind::Destructive, &design);
        let sensed = scheme.sense_once(&mut array, addr, &mut rng);
        assert!(sensed.correct);
        assert!(array.read_state(addr).bit());
    }

    #[test]
    fn confidence_is_a_guard_band_test() {
        let sensed = Sensed {
            bit: true,
            observed: Volts::from_milli(10.0),
            correct: true,
        };
        assert!(sensed.is_confident(Volts::from_milli(8.0)));
        assert!(!sensed.is_confident(Volts::from_milli(12.0)));
    }
}
