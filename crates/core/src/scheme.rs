//! The [`SenseScheme`] trait and the three sensing schemes.
//!
//! * [`ConventionalScheme`] — one read against a chip-wide reference
//!   (§II-B): fast, but defenceless against bit-to-bit variation.
//! * [`DestructiveScheme`] — conventional self-reference (§II-C): read,
//!   erase to "0", read again, compare, write back. Variation-immune but
//!   slow, power hungry, and *destructive* — the data is lost if power
//!   fails before write-back.
//! * [`NondestructiveScheme`] — the paper's contribution (§III): two reads
//!   at different currents plus a resistive divider. Variation-immune *and*
//!   nonvolatile throughout.

use rand::Rng;
use serde::{Deserialize, Serialize};
use stt_array::{Address, Array, Cell};
use stt_mtj::ResistanceState;
use stt_units::Volts;

use crate::amplifier::SenseAmplifier;
use crate::design::{ConventionalDesign, DestructiveDesign, NondestructiveDesign};
use crate::margins::{Perturbations, SenseMargins};

/// Which of the three schemes a value refers to (used by timing/energy and
/// reporting code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeKind {
    /// Shared-reference sensing.
    Conventional,
    /// Destructive self-reference.
    Destructive,
    /// Nondestructive self-reference.
    Nondestructive,
}

impl SchemeKind {
    /// All three schemes, in the paper's presentation order — handy for
    /// sweeps (`for kind in SchemeKind::ALL { … }`).
    pub const ALL: [SchemeKind; 3] = [
        SchemeKind::Conventional,
        SchemeKind::Destructive,
        SchemeKind::Nondestructive,
    ];
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SchemeKind::Conventional => "conventional sensing",
            SchemeKind::Destructive => "destructive self-reference",
            SchemeKind::Nondestructive => "nondestructive self-reference",
        };
        write!(f, "{name}")
    }
}

/// The result of sensing one bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadOutcome {
    /// The bit the sense amplifier latched.
    pub bit: bool,
    /// The differential the comparator saw (before its offset): positive
    /// means "1".
    pub differential: Volts,
    /// Whether the latched bit matches the stored state.
    pub correct: bool,
}

/// A sensing scheme: everything needed to read one bit and to analyse the
/// read's robustness.
pub trait SenseScheme {
    /// Which scheme this is.
    fn kind(&self) -> SchemeKind;

    /// `true` if the scheme overwrites the cell during a read (and must
    /// write the value back).
    fn is_destructive(&self) -> bool;

    /// The sense amplifier in this scheme's path.
    fn amplifier(&self) -> &SenseAmplifier;

    /// Analytic sense margins for `cell` (no perturbations).
    fn margins(&self, cell: &Cell) -> SenseMargins;

    /// The settled comparator differential when `cell` holds `state`:
    /// `margin1` for anti-parallel and `−margin0` for parallel, so a
    /// positive value reads "1".
    ///
    /// Bit-identical to the value taken from [`Self::margins`]; the three
    /// schemes override it to evaluate only `state`'s voltages.
    fn differential(&self, cell: &Cell, state: ResistanceState) -> Volts {
        signed_margin(self.margins(cell).for_state(state), state)
    }

    /// Senses `cell` holding `stored` with a sampled SA offset.
    ///
    /// This is the *analytic* read — the settled comparator differential
    /// plus offset. (For the full circuit-level read of the nondestructive
    /// scheme see [`crate::netlist::TransientRead`].)
    fn read<R: Rng + ?Sized>(
        &self,
        cell: &Cell,
        stored: ResistanceState,
        rng: &mut R,
    ) -> ReadOutcome
    where
        Self: Sized,
    {
        let differential = self.differential(cell, stored);
        let offset = self.amplifier().sample_offset(rng);
        let bit = self.amplifier().resolve(differential, offset);
        ReadOutcome {
            bit,
            differential,
            correct: bit == stored.bit(),
        }
    }
}

/// A stored state's margin as a comparator differential: positive reads
/// "1", so the parallel state's margin is negated.
fn signed_margin(margin: Volts, state: ResistanceState) -> Volts {
    match state {
        ResistanceState::AntiParallel => margin,
        ResistanceState::Parallel => -margin,
    }
}

/// Conventional shared-reference sensing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConventionalScheme {
    /// The design point (read current + reference voltage).
    pub design: ConventionalDesign,
    amplifier: SenseAmplifier,
}

impl ConventionalScheme {
    /// Creates the scheme with its default sensing path (a plain latch
    /// comparator — nothing cancels offsets in a shared-reference path).
    #[must_use]
    pub fn new(design: ConventionalDesign) -> Self {
        Self {
            design,
            amplifier: SenseAmplifier::plain_latch(),
        }
    }

    /// Replaces the sense amplifier model.
    #[must_use]
    pub fn with_amplifier(mut self, amplifier: SenseAmplifier) -> Self {
        self.amplifier = amplifier;
        self
    }
}

impl SenseScheme for ConventionalScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Conventional
    }

    fn is_destructive(&self) -> bool {
        false
    }

    fn amplifier(&self) -> &SenseAmplifier {
        &self.amplifier
    }

    fn margins(&self, cell: &Cell) -> SenseMargins {
        self.design.margins(cell)
    }

    fn differential(&self, cell: &Cell, state: ResistanceState) -> Volts {
        signed_margin(self.design.margin(cell, state), state)
    }
}

/// Conventional destructive self-reference (read / erase / read / compare /
/// write back).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DestructiveScheme {
    /// The design point (the two read currents).
    pub design: DestructiveDesign,
    amplifier: SenseAmplifier,
}

impl DestructiveScheme {
    /// Creates the scheme with the paper's auto-zero SA in its path.
    #[must_use]
    pub fn new(design: DestructiveDesign) -> Self {
        Self {
            design,
            amplifier: SenseAmplifier::auto_zero(),
        }
    }

    /// Replaces the sense amplifier model.
    #[must_use]
    pub fn with_amplifier(mut self, amplifier: SenseAmplifier) -> Self {
        self.amplifier = amplifier;
        self
    }

    /// Executes the full destructive sequence against an array cell,
    /// physically erasing and writing back with pulsed writes. Returns the
    /// sensed outcome; on success the cell ends up holding the sensed value.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        array: &mut Array,
        addr: Address,
        rng: &mut R,
    ) -> ReadOutcome {
        // Step 1: first read — V_BL1 sampled onto C1 (no state change).
        let outcome = self.read(array.cell(addr), array.read_state(addr), rng);
        // Step 2: erase — write "0" into the bit.
        array.write_bit_pulsed(addr, false, rng);
        // Step 3: second read + compare happen on the erased cell; the
        // analytic outcome above already embodies the comparison.
        // Step 4: write back the *sensed* value (a mis-sense is written
        // back wrong — exactly the failure mode the paper describes).
        array.write_bit_pulsed(addr, outcome.bit, rng);
        outcome
    }
}

impl SenseScheme for DestructiveScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Destructive
    }

    fn is_destructive(&self) -> bool {
        true
    }

    fn amplifier(&self) -> &SenseAmplifier {
        &self.amplifier
    }

    fn margins(&self, cell: &Cell) -> SenseMargins {
        self.design.margins(cell, &Perturbations::NONE)
    }

    fn differential(&self, cell: &Cell, state: ResistanceState) -> Volts {
        signed_margin(self.design.margin(cell, state, &Perturbations::NONE), state)
    }
}

/// The paper's nondestructive self-reference scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NondestructiveScheme {
    /// The design point (two read currents + divider ratio).
    pub design: NondestructiveDesign,
    amplifier: SenseAmplifier,
}

impl NondestructiveScheme {
    /// Creates the scheme with the paper's auto-zero SA in its path.
    #[must_use]
    pub fn new(design: NondestructiveDesign) -> Self {
        Self {
            design,
            amplifier: SenseAmplifier::auto_zero(),
        }
    }

    /// Replaces the sense amplifier model.
    #[must_use]
    pub fn with_amplifier(mut self, amplifier: SenseAmplifier) -> Self {
        self.amplifier = amplifier;
        self
    }

    /// Executes the read against an array cell. The cell is never written —
    /// the whole point — so this only needs shared access.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        array: &Array,
        addr: Address,
        rng: &mut R,
    ) -> ReadOutcome {
        self.read(array.cell(addr), array.read_state(addr), rng)
    }
}

impl SenseScheme for NondestructiveScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Nondestructive
    }

    fn is_destructive(&self) -> bool {
        false
    }

    fn amplifier(&self) -> &SenseAmplifier {
        &self.amplifier
    }

    fn margins(&self, cell: &Cell) -> SenseMargins {
        self.design.margins(cell, &Perturbations::NONE)
    }

    fn differential(&self, cell: &Cell, state: ResistanceState) -> Volts {
        signed_margin(self.design.margin(cell, state, &Perturbations::NONE), state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignPoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stt_array::{ArraySpec, CellSpec};

    fn setup() -> (Cell, DesignPoint) {
        let cell = CellSpec::date2010_chip().nominal_cell();
        let design = DesignPoint::date2010(&cell);
        (cell, design)
    }

    #[test]
    fn all_schemes_read_the_nominal_cell_correctly() {
        let (cell, design) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let conventional = ConventionalScheme::new(design.conventional);
        let destructive = DestructiveScheme::new(design.destructive);
        let nondestructive = NondestructiveScheme::new(design.nondestructive);
        for bit in [false, true] {
            let state = ResistanceState::from_bit(bit);
            assert!(
                conventional.read(&cell, state, &mut rng).correct,
                "conv {bit}"
            );
            assert!(
                destructive.read(&cell, state, &mut rng).correct,
                "destr {bit}"
            );
            assert!(
                nondestructive.read(&cell, state, &mut rng).correct,
                "nondes {bit}"
            );
        }
    }

    #[test]
    fn differential_signs_encode_the_bit() {
        let (cell, design) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let scheme = NondestructiveScheme::new(design.nondestructive);
        let high = scheme.read(&cell, ResistanceState::AntiParallel, &mut rng);
        assert!(high.differential.get() > 0.0);
        let low = scheme.read(&cell, ResistanceState::Parallel, &mut rng);
        assert!(low.differential.get() < 0.0);
    }

    /// Nominal, ±30 % RA-varied and pinhole-collapsed cells: the last has
    /// its high state shorted to 2 % above the low-state curve.
    fn differential_test_cells() -> Vec<Cell> {
        let spec = CellSpec::date2010_chip();
        let nominal = spec.nominal_cell();
        let transistor = *nominal.transistor();
        let ra_varied = |ra_factor: f64| {
            let sample = stt_mtj::SampledMtj {
                ra_factor,
                tmr_factor: 1.0,
            };
            Cell::new(spec.mtj.varied(&sample).into_device(), transistor)
        };
        let resistance = &spec.mtj.resistance;
        let (low, dr_low) = (resistance.r_low0(), resistance.dr_low_max());
        let pinhole = stt_mtj::MtjSpec {
            resistance: stt_mtj::LinearRolloff::new(
                low,
                low * 1.02,
                dr_low,
                dr_low * 1.02,
                resistance.i_max(),
            ),
            switching: spec.mtj.switching,
        };
        vec![
            nominal,
            ra_varied(1.3),
            ra_varied(0.7),
            Cell::new(pinhole.into_device(), transistor),
        ]
    }

    #[test]
    fn differential_is_the_margins_value_bit_for_bit() {
        fn check<S: SenseScheme>(scheme: &S, cell: &Cell) {
            let margins = scheme.margins(cell);
            for (state, expected) in [
                (ResistanceState::AntiParallel, margins.margin1),
                (ResistanceState::Parallel, -margins.margin0),
            ] {
                assert_eq!(
                    scheme.differential(cell, state).get().to_bits(),
                    expected.get().to_bits(),
                    "{} {state:?}",
                    scheme.kind()
                );
            }
        }
        let (_, design) = setup();
        let conventional = ConventionalScheme::new(design.conventional);
        let destructive = DestructiveScheme::new(design.destructive);
        let nondestructive = NondestructiveScheme::new(design.nondestructive);
        for cell in differential_test_cells() {
            check(&conventional, &cell);
            check(&destructive, &cell);
            check(&nondestructive, &cell);
        }
    }

    #[test]
    fn kinds_and_destructiveness() {
        let (_, design) = setup();
        let conventional = ConventionalScheme::new(design.conventional);
        let destructive = DestructiveScheme::new(design.destructive);
        let nondestructive = NondestructiveScheme::new(design.nondestructive);
        assert_eq!(conventional.kind(), SchemeKind::Conventional);
        assert_eq!(destructive.kind(), SchemeKind::Destructive);
        assert_eq!(nondestructive.kind(), SchemeKind::Nondestructive);
        assert!(!conventional.is_destructive());
        assert!(destructive.is_destructive());
        assert!(!nondestructive.is_destructive());
        assert!(format!("{}", SchemeKind::Nondestructive).contains("nondestructive"));
    }

    #[test]
    fn destructive_execute_round_trips_state() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut array = ArraySpec::small_test_array().sample(&mut rng);
        let nominal = CellSpec::date2010_chip().nominal_cell();
        let design = DesignPoint::date2010(&nominal);
        let scheme = DestructiveScheme::new(design.destructive);
        let addr = Address::new(4, 4);
        array.write_bit(addr, true);
        let outcome = scheme.execute(&mut array, addr, &mut rng);
        assert!(outcome.correct);
        assert!(outcome.bit);
        // After a successful sequence the cell again holds a "1".
        assert!(array.read_state(addr).bit());
    }

    #[test]
    fn nondestructive_execute_never_mutates() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut array = ArraySpec::small_test_array().sample(&mut rng);
        let nominal = CellSpec::date2010_chip().nominal_cell();
        let design = DesignPoint::date2010(&nominal);
        let scheme = NondestructiveScheme::new(design.nondestructive);
        array.fill_with(|addr| addr.col % 2 == 0);
        let before = array.clone();
        for addr in array.addresses().collect::<Vec<_>>() {
            let outcome = scheme.execute(&array, addr, &mut rng);
            assert!(outcome.correct, "misread at {addr}");
        }
        assert_eq!(array, before, "a nondestructive read must not change state");
    }

    #[test]
    fn huge_offset_can_flip_a_tight_read() {
        let (cell, design) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        // Pathological SA: offset sigma far above the nondestructive margin.
        let broken_sa = SenseAmplifier::new(Volts::from_milli(100.0), Volts::from_milli(8.0));
        let scheme = NondestructiveScheme::new(design.nondestructive).with_amplifier(broken_sa);
        let mut wrong = 0;
        for _ in 0..200 {
            if !scheme
                .read(&cell, ResistanceState::AntiParallel, &mut rng)
                .correct
            {
                wrong += 1;
            }
        }
        assert!(wrong > 50, "a 100 mV-offset SA must misread often: {wrong}");
    }
}
