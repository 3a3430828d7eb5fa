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
use stt_mtj::ResistanceState;
use stt_sense::{
    ConventionalScheme, DesignPoint, DestructiveScheme, NondestructiveScheme, SchemeKind,
    SenseScheme,
};
use stt_stats::dist::{box_muller, box_muller_uniforms};
use stt_units::Volts;

use crate::retry::{ReadResolution, RetryPolicy};

/// Longest retry chain [`Scheme::resolve_cached`] serves itself: it keeps
/// every unconfident attempt's draw for a possible fallback rebuild, in a
/// fixed buffer. Longer policies take [`RetryPolicy::resolve`] directly.
const KEPT_ATTEMPTS: usize = 8;

/// Relative slack ε of the settle bound, far above the few-ulp rounding of
/// the expressions it covers (see [`settle_code`]).
const SETTLE_SLACK: f64 = 1e-9;

/// Smallest `room / σ` the settle bound is used for: below it, the
/// threshold `exp(−(1 − ε)k²/2)` sits within a few ulps of 1, too close for
/// [`SETTLE_SLACK`] to cover its rounding.
const SETTLE_MIN_K: f64 = 1e-3;

/// Smallest `room / g` the settle bound is used for: below it, the slack
/// left inside `room` can be under half an ulp of `g`.
const SETTLE_MIN_ROOM: f64 = 1e-6;

/// A settle code not computed yet.
const STALE: u32 = 0;

/// Settle-code flag: a decided attempt is confident.
const CONFIDENT: u32 = 1 << 30;

/// Settle-code flag: the differential is positive, so a decided attempt
/// latches a 1.
const POSITIVE: u32 = 1 << 31;

/// The settle code that decides nothing: a threshold of 1.5, above every
/// `u1`.
const NEVER: u32 = 0x3fc0_0000;

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
    /// [`RetryPolicy::resolve`] is the reference semantics. This computes
    /// the cell's settle codes on the fly; [`Self::resolve_cached`] keeps
    /// them across reads.
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
        let mut codes = SettleCodes::default();
        self.resolve_cached(
            retry,
            array,
            addr,
            rng,
            &mut codes,
            &mut SenseWork::default(),
        )
    }

    /// [`Self::resolve`], deciding attempts from `codes`, the settle codes
    /// of the cell at `addr` under this scheme and `retry`, and counting
    /// the work in `work`.
    ///
    /// Every attempt still draws its offset's two uniforms in order, but
    /// most are decided from the code of the state the attempt starts from
    /// and `u1` alone, without evaluating the Box–Muller transform
    /// (DESIGN.md §12 states the bound). A stale code is filled from the
    /// cell's differential; an undecided attempt evaluates the differential
    /// at most once per state and chain. The caller keeps `codes` per cell
    /// and clears them whenever the cell's device, the scheme or `retry`
    /// changes; a state flip needs no clearing, as each state has its own
    /// code.
    ///
    /// # Panics
    ///
    /// Panics if `retry.max_attempts` is zero or the address is out of
    /// range.
    pub fn resolve_cached(
        &self,
        retry: &RetryPolicy,
        array: &mut Array,
        addr: Address,
        rng: &mut StdRng,
        codes: &mut SettleCodes,
        work: &mut SenseWork,
    ) -> ReadResolution {
        assert!(retry.max_attempts > 0, "need at least one sense attempt");
        if retry.max_attempts as usize > KEPT_ATTEMPTS {
            let resolution = retry.resolve(|| self.sense_once(array, addr, rng));
            work.attempts += u64::from(resolution.attempts);
            work.exact += u64::from(resolution.attempts);
            return resolution;
        }
        match self {
            Scheme::Conventional(s) => resolve_coded(s, retry, array, addr, rng, codes, work),
            Scheme::Destructive(s) => resolve_coded(s, retry, array, addr, rng, codes, work),
            Scheme::Nondestructive(s) => resolve_coded(s, retry, array, addr, rng, codes, work),
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

/// One cell's settle codes under a scheme and retry policy, one per stored
/// state, for [`Scheme::resolve_cached`]. The default is stale: every code
/// is computed on first use.
///
/// A code packs what `u1` alone decides about an attempt (DESIGN.md §12
/// states the bound): bits 0–29 hold the smallest deciding `u1` as an `f32`
/// (every threshold is below 2.0, so its top two bits are clear), bit 30
/// whether a decided attempt is confident and bit 31 whether it latches a
/// 1. A threshold of 1.5 decides nothing, and 0 marks a stale code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SettleCodes([u32; 2]);

/// Deterministic work counts of [`Scheme::resolve_cached`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenseWork {
    /// Sense attempts.
    pub attempts: u64,
    /// Attempts that evaluated the exact Box–Muller observation.
    pub exact: u64,
    /// Stale settle codes filled.
    pub fills: u64,
}

/// [`Scheme::resolve_cached`] for one scheme type, with at most
/// [`KEPT_ATTEMPTS`] attempts.
///
/// Each attempt looks up the code of the state it starts from — a
/// destructive scheme's mis-sensed write-back can flip the state mid-chain
/// — and draws `(u1, u2)` exactly as [`SenseAmplifier::sample_offset`]
/// would, so the RNG stream never moves. Only attempts the code leaves
/// undecided evaluate the exact observation.
///
/// An unconfident chain falls back on the sign of the summed observations.
/// Each decided unconfident observation has its code's sign, so if every
/// attempt was decided and all their codes share a sign, the sum has it
/// too. Otherwise the kept uniforms rebuild the exact observations, summed
/// in attempt order as [`RetryPolicy::resolve`] does.
///
/// [`SenseAmplifier::sample_offset`]: stt_sense::SenseAmplifier::sample_offset
fn resolve_coded<S: SenseScheme>(
    scheme: &S,
    retry: &RetryPolicy,
    array: &mut Array,
    addr: Address,
    rng: &mut StdRng,
    codes: &mut SettleCodes,
    work: &mut SenseWork,
) -> ReadResolution {
    let sigma = scheme.amplifier().offset_sigma().get();
    let guard = retry.guard_band.get();
    // The exact differential of each state, evaluated at most once.
    let mut differentials = [None; 2];
    let mut differential = |array: &Array, state: usize| {
        *differentials[state].get_or_insert_with(|| {
            let stored = ResistanceState::from_bit(state == 1);
            scheme.differential(array.cell(addr), stored).get()
        })
    };
    // (state, u1, u2) of each unconfident attempt, in order.
    let mut kept = [(0, 0.0, 0.0); KEPT_ATTEMPTS];
    let mut all_decided = true;
    for attempt in 1..=retry.max_attempts {
        // Both states' codes are read before the state, so the two loads
        // (often cache misses on a large bank) do not wait on each other.
        let pair = codes.0;
        let state = usize::from(array.read_state(addr).bit());
        let mut code = pair[state];
        if code == STALE {
            code = settle_code(differential(array, state), guard, sigma);
            codes.0[state] = code;
            work.fills += 1;
        }
        let (u1, u2) = box_muller_uniforms(rng);
        work.attempts += 1;
        let (bit, confident) = if u1 >= threshold(code) {
            (code & POSITIVE != 0, code & CONFIDENT != 0)
        } else {
            work.exact += 1;
            all_decided = false;
            let observed = observed(differential(array, state), sigma, u1, u2);
            (observed > 0.0, observed.abs() >= guard)
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
        kept[attempt as usize - 1] = (state, u1, u2);
    }
    let kept = &kept[..retry.max_attempts as usize];
    let positive = |state: usize| codes.0[state] & POSITIVE != 0;
    let first = positive(kept[0].0);
    let bit = if all_decided && kept.iter().all(|&(state, _, _)| positive(state) == first) {
        first
    } else {
        kept.iter().fold(0.0, |sum, &(state, u1, u2)| {
            sum + observed(differential(array, state), sigma, u1, u2)
        }) > 0.0
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

/// The smallest `u1` that `code` decides.
fn threshold(code: u32) -> f64 {
    f64::from(f32::from_bits(code & !(CONFIDENT | POSITIVE)))
}

/// What `u1` alone decides about an attempt on differential `d`, against
/// guard band `g` and amplifier offset σ, packed as a [`SettleCodes`] code.
///
/// The attempt observes `d + σz` with `z = √(−2 ln u1) · cos(2π u2)`. Since
/// `|cos| ≤ 1`, `u1 ≥ exp(−(1 − ε)k²/2)` with `k = room/σ` gives
/// `|z| ≤ √(1 − ε)·k`, so `σ|z| < room`:
///
/// * `room = |d| − g > 0`: `|d + σz| > g`, so the attempt is confident and
///   latches the sign of `d`;
/// * `room = min(g − |d|, |d|) > 0`: `|d + σz| < g` and `d + σz` has the
///   sign of `d`, so the attempt is unconfident and latches that sign.
///
/// Rounding: with `k ≥ 10⁻³`, `x = (1 − ε)k²/2 ≥ 5·10⁻⁷`, so `exp`'s
/// one-ulp error moves `−ln` of the threshold by at most `2.3·10⁻¹⁶ <
/// 4.6·10⁻¹⁰ x`; `room` is exact near `g` (Sterbenz) and within an ulp
/// elsewhere; `k`, `k²`, `ln`, `sqrt`, `cos` and the products add a few
/// ulps each. ε = 10⁻⁹ dominates them all and leaves the floating-point
/// `σz` at least `2·10⁻¹⁰ room` inside `room`. So the rounded `d + σz`
/// keeps the real sum's side of 0, and of `g`: a sum above `g` cannot round
/// below it, and with `room ≥ 10⁻⁶ g` a sum below it is more than half an
/// ulp of `g` away. The threshold is stored as an `f32` rounded **up**,
/// which only shrinks the set of decided `u1`. Outside those limits, or at
/// σ = 0, the code decides nothing and every attempt evaluates the exact
/// observation.
fn settle_code(differential: f64, guard: f64, sigma: f64) -> u32 {
    let margin = differential.abs();
    let confident = margin > guard;
    let room = if confident {
        margin - guard
    } else {
        (guard - margin).min(margin)
    };
    let k = room / sigma;
    if !(sigma > 0.0 && k >= SETTLE_MIN_K && room >= SETTLE_MIN_ROOM * guard) {
        return NEVER;
    }
    let threshold = round_up_to_f32((-(1.0 - SETTLE_SLACK) * k * k / 2.0).exp());
    let mut code = threshold.to_bits();
    if confident {
        code |= CONFIDENT;
    }
    if differential > 0.0 {
        code |= POSITIVE;
    }
    code
}

/// The smallest positive `f32` at or above `x`, for `x` in `[0, 1]`.
fn round_up_to_f32(x: f64) -> f32 {
    #[allow(clippy::cast_possible_truncation)]
    let nearest = x as f32;
    if f64::from(nearest) < x || nearest == 0.0 {
        f32::from_bits(nearest.to_bits() + 1)
    } else {
        nearest
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

    /// Every decided code leaves the worst case of its smallest deciding
    /// `u1`, `σ·√(−2 ln u1)`, at least ε/4 of `room` inside `room`: the
    /// slack [`settle_code`]'s rounding argument spends on `ln`, `sqrt`,
    /// `cos` and the products. Swept over `k = room/σ` from the smallest
    /// decided 10⁻³ up to where the threshold leaves the `f32` range, on
    /// both sides of the guard band and both signs.
    #[test]
    fn settle_codes_keep_their_slack_inside_room() {
        let (sigma, guard) = (0.3e-3, 8e-3);
        let mut decided = 0;
        for n in 0..20_000 {
            let k = 1e-3 * 16_000f64.powf(f64::from(n) / 20_000.0);
            for (room, confident) in [(k * sigma, true), (k * sigma, false)] {
                let margin = if confident {
                    guard + room
                } else if room <= guard / 2.0 {
                    guard - room
                } else {
                    continue;
                };
                for differential in [margin, -margin] {
                    let code = settle_code(differential, guard, sigma);
                    let u1 = threshold(code);
                    assert!(u1 > 0.0, "k {k}: stale code");
                    if u1 >= 1.0 {
                        continue;
                    }
                    decided += 1;
                    assert_eq!(code & CONFIDENT != 0, confident, "k {k}");
                    assert_eq!(code & POSITIVE != 0, differential > 0.0, "k {k}");
                    let room = if confident {
                        differential.abs() - guard
                    } else {
                        (guard - differential.abs()).min(differential.abs())
                    };
                    let worst = sigma * (-2.0 * u1.ln()).sqrt();
                    assert!(
                        worst <= room * (1.0 - SETTLE_SLACK / 4.0),
                        "k {k}: worst case {worst} vs room {room} at u1 {u1}"
                    );
                }
            }
        }
        assert!(decided > 60_000, "only {decided} codes decided anything");
    }

    #[test]
    fn settle_codes_decide_nothing_without_offset_or_room() {
        let guard = 8e-3;
        for (differential, sigma) in [(10e-3, 0.0), (guard, 0.3e-3), (0.0, 0.3e-3)] {
            assert_eq!(settle_code(differential, guard, sigma), NEVER);
        }
        assert_eq!(NEVER, 1.5f32.to_bits());
        assert!(threshold(NEVER) > 1.0);
    }

    #[test]
    fn thresholds_round_up_to_f32() {
        for x in [0.0, 1e-300, 0.1, 1.0 / 3.0, 0.5, 1.0 - 1e-12, 1.0] {
            let up = round_up_to_f32(x);
            assert!(f64::from(up) >= x && up > 0.0, "{x} -> {up}");
            assert!(f64::from(f32::from_bits(up.to_bits() - 1)) < x || x == 0.0);
        }
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
