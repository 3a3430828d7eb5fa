//! Runtime scheme dispatch for the controller's read path.
//!
//! The sensing crate exposes the three schemes as distinct types behind the
//! [`SenseScheme`] trait; a controller picks one per configuration at run
//! time, so this module wraps them in an enum and exposes the one operation
//! the engine needs: *sense this cell once, mutating the array exactly as
//! the scheme's hardware sequence would*.

use std::ops::Range;

use rand::rngs::StdRng;
use stt_array::{Address, Array, Cell};
use stt_mtj::ResistanceState;
use stt_sense::{
    ConventionalScheme, DesignPoint, DestructiveScheme, NondestructiveScheme, SchemeKind,
    SenseAmplifier, SenseScheme,
};
use stt_stats::dist::{box_muller, box_muller_uniforms};
use stt_units::{Amps, Seconds, Volts};

use crate::retry::{ReadResolution, RetryPolicy};

/// Longest retry chain [`Scheme::resolve_span`] decides from settle codes:
/// it keeps every unconfident attempt's draw for a possible fallback
/// rebuild, in a fixed buffer. Longer policies evaluate every attempt
/// exactly through [`RetryPolicy::resolve`].
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
        let sensed = self.sense_readonly(array, addr, rng);
        if self.is_destructive() {
            array.write_bit_pulsed(addr, false, rng);
            array.write_bit_pulsed(addr, sensed.bit, rng);
        }
        sensed
    }

    /// The bank's read path: resolves one read of each cell of `cells`
    /// (row-major in `array`) through `retry`, in order, and hands the
    /// span's `k`-th cell to `each(k, resolution)`.
    ///
    /// Cell by cell this is exactly `retry.resolve(|| self.sense_once(array,
    /// addr, rng))`, the reference semantics: the same resolution, RNG
    /// position and cell state. Each attempt still draws its two uniforms,
    /// but most are decided from `u1` and the settle code of the state the
    /// attempt starts from (DESIGN.md §12), kept in `codes[k]`; the caller
    /// clears a cell's codes whenever its device, the scheme or `retry`
    /// changes. A read-only scheme under a short budget resolves a cell
    /// inline when its code decides the first attempt confident, from the
    /// array's state plane and `codes[k]` alone; any other cell goes on in
    /// an out-of-line retry chain, the only place its device is read
    /// besides a stale code's fill.
    ///
    /// # Panics
    ///
    /// Panics if `retry.max_attempts` is zero, `cells` runs past the array
    /// or `codes` is not one entry per cell.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve_span(
        &self,
        retry: &RetryPolicy,
        array: &mut Array,
        cells: Range<usize>,
        rng: &mut StdRng,
        codes: &mut [SettleCodes],
        work: &mut SenseWork,
        mut each: impl FnMut(usize, ReadResolution),
    ) {
        assert!(retry.max_attempts > 0, "need at least one sense attempt");
        assert_eq!(codes.len(), cells.len(), "one set of settle codes per cell");
        let write = (array.spec().write_current, array.spec().write_pulse);
        let start = cells.start;
        let (devices, states) = array.cells_and_states_mut();
        let cells = devices[cells].iter().zip(codes).enumerate();
        if self.is_destructive() || retry.max_attempts as usize > KEPT_ATTEMPTS {
            for (k, (cell, codes)) in cells {
                let mut stored = states.state(start + k);
                let chain = self.chain(retry, write, cell, &mut stored, rng, codes, work, None);
                states.set(start + k, stored.bit());
                each(k, chain);
            }
            return;
        }
        for (k, (cell, codes)) in cells {
            let (pair, bit) = (*codes, states.get(start + k));
            let state = usize::from(bit);
            let mut code = pair.get(state);
            if code == STALE {
                code = self.fill(retry, codes, state, self.differential(cell, state), work);
            }
            let (u1, u2) = box_muller_uniforms(rng);
            let resolution = if code & CONFIDENT != 0 && u1 >= threshold(code) {
                work.attempts += 1;
                let (bit, attempts, confident) = (code & POSITIVE != 0, 1, true);
                ReadResolution {
                    bit,
                    attempts,
                    confident,
                }
            } else {
                // A read-only chain leaves the stored state as it found it.
                let mut stored = ResistanceState::from_bit(bit);
                self.chain(
                    retry,
                    write,
                    cell,
                    &mut stored,
                    rng,
                    codes,
                    work,
                    Some((u1, u2)),
                )
            };
            each(k, resolution);
        }
    }

    /// The sense step alone, with no state mutation even for the
    /// destructive scheme.
    ///
    /// The power-cut read needs this: it senses, then runs the destructive
    /// scheme's erase on its own, and the cut falls before the write-back.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn sense_readonly(&self, array: &Array, addr: Address, rng: &mut StdRng) -> Sensed {
        self.sense_cell(array.cell(addr), array.read_state(addr), rng)
    }

    /// The analytic sense of `cell` holding `stored`, [`SenseScheme::read`]
    /// with the sampled offset kept in `observed`: the retry policy judges
    /// the comparator's input.
    fn sense_cell(&self, cell: &Cell, stored: ResistanceState, rng: &mut StdRng) -> Sensed {
        let differential = Volts::new(self.differential(cell, usize::from(stored.bit())));
        let offset = self.amplifier().sample_offset(rng);
        let bit = self.amplifier().resolve(differential, offset);
        Sensed {
            bit,
            observed: differential + offset,
            correct: bit == stored.bit(),
        }
    }

    fn amplifier(&self) -> &SenseAmplifier {
        match self {
            Scheme::Conventional(s) => s.amplifier(),
            Scheme::Destructive(s) => s.amplifier(),
            Scheme::Nondestructive(s) => s.amplifier(),
        }
    }

    /// The settled comparator differential of `cell` holding `state`.
    fn differential(&self, cell: &Cell, state: usize) -> f64 {
        let stored = ResistanceState::from_bit(state == 1);
        match self {
            Scheme::Conventional(s) => s.differential(cell, stored),
            Scheme::Destructive(s) => s.differential(cell, stored),
            Scheme::Nondestructive(s) => s.differential(cell, stored),
        }
        .get()
    }

    /// One read of `cell` holding `*stored`, out of the span loop, `first`
    /// holding the uniforms the loop drew for its first attempt, if it
    /// drew them; `write` is the array's write current and pulse, for a
    /// destructive write-back, which leaves its result in `*stored`.
    ///
    /// Each attempt takes the code of the state it starts from (a
    /// destructive write-back can flip it) and draws `(u1, u2)` as
    /// [`SenseAmplifier::sample_offset`] would; only attempts the code
    /// leaves undecided evaluate the exact observation. An unconfident
    /// chain falls back on the sign of the summed observations: if every
    /// attempt was decided and their codes share a sign, the sum has it
    /// too; otherwise the kept uniforms rebuild the observations, summed in
    /// attempt order as [`RetryPolicy::resolve`] does. A budget longer than
    /// [`KEPT_ATTEMPTS`] keeps nothing and senses every attempt exactly.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn chain(
        &self,
        retry: &RetryPolicy,
        write: (Amps, Seconds),
        cell: &Cell,
        stored: &mut ResistanceState,
        rng: &mut StdRng,
        codes: &mut SettleCodes,
        work: &mut SenseWork,
        mut first: Option<(f64, f64)>,
    ) -> ReadResolution {
        let sigma = self.amplifier().offset_sigma().get();
        let guard = retry.guard_band.get();
        if retry.max_attempts as usize > KEPT_ATTEMPTS {
            let resolution = retry.resolve(|| {
                let sensed = self.sense_cell(cell, *stored, rng);
                self.write_back(write, cell, stored, sensed.bit, rng);
                sensed
            });
            work.attempts += u64::from(resolution.attempts);
            work.exact += u64::from(resolution.attempts);
            return resolution;
        }
        // The exact differential of each state, evaluated at most once.
        let mut differentials = [None; 2];
        let mut differential = |cell: &Cell, state: usize| {
            *differentials[state].get_or_insert_with(|| self.differential(cell, state))
        };
        // (state, u1, u2) of each unconfident attempt, in order.
        let mut kept = [(0, 0.0, 0.0); KEPT_ATTEMPTS];
        let mut all_decided = true;
        for attempt in 1..=retry.max_attempts {
            let state = usize::from(stored.bit());
            let mut code = codes.get(state);
            if code == STALE {
                code = self.fill(retry, codes, state, differential(cell, state), work);
            }
            let (u1, u2) = first.take().unwrap_or_else(|| box_muller_uniforms(rng));
            work.attempts += 1;
            let (bit, confident) = if u1 >= threshold(code) {
                (code & POSITIVE != 0, code & CONFIDENT != 0)
            } else {
                work.exact += 1;
                all_decided = false;
                let observed = observed(differential(cell, state), sigma, u1, u2);
                (observed > 0.0, observed.abs() >= guard)
            };
            self.write_back(write, cell, stored, bit, rng);
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
        let positive = |state: usize| codes.get(state) & POSITIVE != 0;
        let first = positive(kept[0].0);
        let bit = if all_decided && kept.iter().all(|&(state, _, _)| positive(state) == first) {
            first
        } else {
            kept.iter().fold(0.0, |sum, &(state, u1, u2)| {
                sum + observed(differential(cell, state), sigma, u1, u2)
            }) > 0.0
        };
        ReadResolution {
            bit,
            attempts: retry.max_attempts,
            confident: false,
        }
    }

    /// Fills the stale (zero) code of `state` from its `differential`.
    fn fill(
        &self,
        retry: &RetryPolicy,
        codes: &mut SettleCodes,
        state: usize,
        differential: f64,
        work: &mut SenseWork,
    ) -> u32 {
        let sigma = self.amplifier().offset_sigma().get();
        let code = settle_code(differential, retry.guard_band.get(), sigma);
        codes.0 |= u64::from(code) << (32 * state);
        work.fills += 1;
        code
    }

    /// A destructive scheme's erase and write-back of the sensed `bit` into
    /// `cell` holding `*stored`.
    fn write_back(
        &self,
        write: (Amps, Seconds),
        cell: &Cell,
        stored: &mut ResistanceState,
        bit: bool,
        rng: &mut StdRng,
    ) {
        if self.is_destructive() {
            let (current, pulse) = write;
            cell.write_with_pulse(stored, ResistanceState::Parallel, current, pulse, rng);
            cell.write_with_pulse(stored, ResistanceState::from_bit(bit), current, pulse, rng);
        }
    }
}

/// One cell's settle codes under a scheme and retry policy, one per stored
/// state, for [`Scheme::resolve_span`]. The default is stale: every code
/// is computed on first use.
///
/// A code packs what `u1` alone decides about an attempt (DESIGN.md §12
/// states the bound): bits 0–29 hold the smallest deciding `u1` as an `f32`
/// (every threshold is below 2.0, so its top two bits are clear), bit 30
/// whether a decided attempt is confident and bit 31 whether it latches a
/// one. A threshold of 1.5 decides nothing, and 0 marks a stale code. Both
/// codes share one `u64`, state 1's in the high half, so a single load
/// brings them without waiting on the cell's state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SettleCodes(u64);

impl SettleCodes {
    #[allow(clippy::cast_possible_truncation)]
    fn get(self, state: usize) -> u32 {
        (self.0 >> (32 * state)) as u32
    }
}

/// Deterministic work counts of [`Scheme::resolve_span`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenseWork {
    /// Sense attempts.
    pub attempts: u64,
    /// Attempts that evaluated the exact Box–Muller observation.
    pub exact: u64,
    /// Stale settle codes filled.
    pub fills: u64,
}

/// The comparator input [`Scheme::sense_cell`] computes from these uniforms:
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
