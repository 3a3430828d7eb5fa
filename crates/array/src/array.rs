//! The addressable STT-RAM array.
//!
//! Rows × columns of 1T1J cells, each column sharing a bit-line. Reads force
//! a current into the selected cell's bit-line (accounting for unselected
//! leakage); writes drive a bidirectional current pulse through the cell
//! using the stochastic switching model.
//!
//! The cells hold devices only. Every stored bit lives in the array's
//! [`StatePlane`], packed 64 to a word, so a read that needs only the bit
//! never loads the cell's device parameters.

use rand::Rng;
use stt_mtj::ResistanceState;
use stt_units::{Amps, Seconds, Volts};

use crate::bitline::BitlineSpec;
use crate::cell::{Cell, CellSpec};

/// A (row, column) cell address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address {
    /// Word-line index.
    pub row: usize,
    /// Bit-line index.
    pub col: usize,
}

impl Address {
    /// Creates an address.
    #[must_use]
    pub fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// Recipe for a full array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArraySpec {
    /// Rows (cells per bit-line).
    pub rows: usize,
    /// Columns (bit-lines).
    pub cols: usize,
    /// Per-cell recipe.
    pub cell: CellSpec,
    /// Bit-line electricals.
    pub bitline: BitlineSpec,
    /// Write driver current magnitude.
    pub write_current: Amps,
    /// Write pulse width.
    pub write_pulse: Seconds,
}

impl ArraySpec {
    /// The paper's 16 kb test chip: 128 rows × 128 columns (128 bits per
    /// bit-line), 600 µA / 4 ns writes (comfortably above the ~500 µA
    /// switching current at that pulse width).
    #[must_use]
    pub fn date2010_chip() -> Self {
        Self {
            rows: 128,
            cols: 128,
            cell: CellSpec::date2010_chip(),
            bitline: BitlineSpec::date2010_chip(),
            write_current: Amps::from_micro(600.0),
            write_pulse: Seconds::from_nano(4.0),
        }
    }

    /// A small array for fast tests: same electricals, 8 × 8 cells.
    #[must_use]
    pub fn small_test_array() -> Self {
        let mut spec = Self::date2010_chip();
        spec.rows = 8;
        spec.cols = 8;
        spec.bitline.cells_per_bitline = 8;
        spec
    }

    /// Total cell count.
    #[must_use]
    pub fn capacity_bits(&self) -> usize {
        self.rows * self.cols
    }

    /// Samples a full array with per-cell variation.
    ///
    /// # Panics
    ///
    /// Panics if the spec's `rows` disagrees with the bit-line's
    /// `cells_per_bitline`, or either dimension is zero.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Array {
        assert!(self.rows > 0 && self.cols > 0, "array must be non-empty");
        assert_eq!(
            self.rows, self.bitline.cells_per_bitline,
            "rows must equal cells per bit-line"
        );
        let cells = (0..self.capacity_bits())
            .map(|_| self.cell.sample_cell(rng))
            .collect();
        Array {
            spec: self.clone(),
            cells,
            states: StatePlane::new(self.capacity_bits()),
        }
    }
}

/// The stored states of an array's cells, packed row-major: bit `c % 64`
/// of word `c / 64` is cell `c`, set when the cell is anti-parallel ("1").
/// Bits past the last cell stay 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatePlane {
    words: Vec<u64>,
    cells: usize,
}

impl StatePlane {
    /// `cells` cells, all parallel ("0").
    fn new(cells: usize) -> Self {
        Self {
            words: vec![0; cells.div_ceil(64)],
            cells,
        }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells
    }

    /// `true` for a plane of no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells == 0
    }

    /// The stored bit of row-major cell `cell`.
    #[inline]
    #[must_use]
    pub fn get(&self, cell: usize) -> bool {
        debug_assert!(cell < self.cells, "cell {cell} of {}", self.cells);
        (self.words[cell / 64] >> (cell % 64)) & 1 == 1
    }

    /// The stored state of row-major cell `cell`.
    #[inline]
    #[must_use]
    pub fn state(&self, cell: usize) -> ResistanceState {
        ResistanceState::from_bit(self.get(cell))
    }

    /// Stores `bit` in row-major cell `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is past the last cell.
    #[inline]
    pub fn set(&mut self, cell: usize, bit: bool) {
        assert!(cell < self.cells, "cell {cell} of {}", self.cells);
        let mask = 1u64 << (cell % 64);
        if bit {
            self.words[cell / 64] |= mask;
        } else {
            self.words[cell / 64] &= !mask;
        }
    }

    /// The packed words.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Cells whose bit differs from `other`, a row-major bit set packed
    /// the same way; `other`'s bits past the last cell are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `other` has a different word count.
    #[must_use]
    pub fn count_differing(&self, other: &[u64]) -> u64 {
        assert_eq!(other.len(), self.words.len(), "planes of different sizes");
        let tail = match self.cells % 64 {
            0 => u64::MAX,
            used => (1 << used) - 1,
        };
        let last = self.words.len().saturating_sub(1);
        self.words
            .iter()
            .zip(other)
            .enumerate()
            .map(|(w, (a, b))| {
                let diff = a ^ b;
                u64::from(if w == last { diff & tail } else { diff }.count_ones())
            })
            .sum()
    }
}

/// A sampled, stateful array instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Array {
    spec: ArraySpec,
    /// Row-major cell storage: devices only.
    cells: Vec<Cell>,
    /// Row-major stored states, the one home of every cell's bit.
    states: StatePlane,
}

impl Array {
    /// The spec the array was sampled from.
    #[must_use]
    pub fn spec(&self) -> &ArraySpec {
        &self.spec
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.spec.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.spec.cols
    }

    /// The row-major index of `addr`: the cell at `addr` is
    /// `cells_mut()[index_of(addr)]`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn index_of(&self, addr: Address) -> usize {
        assert!(
            addr.row < self.spec.rows && addr.col < self.spec.cols,
            "address {addr} out of range ({} × {})",
            self.spec.rows,
            self.spec.cols
        );
        addr.row * self.spec.cols + addr.col
    }

    /// The cell at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn cell(&self, addr: Address) -> &Cell {
        &self.cells[self.index_of(addr)]
    }

    /// Mutable access to the cell at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn cell_mut(&mut self, addr: Address) -> &mut Cell {
        let index = self.index_of(addr);
        &mut self.cells[index]
    }

    /// Mutable access to every cell, row-major: `Address::new(row, col)` is
    /// cell `row * cols + col`. Swapping a cell's device leaves its stored
    /// bit alone.
    pub fn cells_mut(&mut self) -> &mut [Cell] {
        &mut self.cells
    }

    /// The stored states, row-major.
    #[must_use]
    pub fn states(&self) -> &StatePlane {
        &self.states
    }

    /// Mutable access to the stored states, row-major (ideal writes).
    pub fn states_mut(&mut self) -> &mut StatePlane {
        &mut self.states
    }

    /// Every cell and the stored states together, row-major: a caller
    /// walking a run of cells slices these once instead of checking each
    /// address, and writes states while it reads devices.
    pub fn cells_and_states_mut(&mut self) -> (&[Cell], &mut StatePlane) {
        (&self.cells, &mut self.states)
    }

    /// Iterates over all addresses in row-major order.
    pub fn addresses(&self) -> impl Iterator<Item = Address> + '_ {
        let cols = self.spec.cols;
        (0..self.cells.len()).map(move |k| Address::new(k / cols, k % cols))
    }

    /// The stored state at `addr` (the physical truth, not a sensed value).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn read_state(&self, addr: Address) -> ResistanceState {
        self.states.state(self.index_of(addr))
    }

    /// Ideal write: sets the stored bit without switching dynamics. Use for
    /// test-pattern initialisation.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn write_bit(&mut self, addr: Address, bit: bool) {
        let index = self.index_of(addr);
        self.states.set(index, bit);
    }

    /// Physical write: drives the configured write pulse through the cell
    /// with the stochastic switching model. Returns `true` on success.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn write_bit_pulsed<R: Rng + ?Sized>(
        &mut self,
        addr: Address,
        bit: bool,
        rng: &mut R,
    ) -> bool {
        let index = self.index_of(addr);
        let mut state = self.states.state(index);
        let (current, pulse) = (self.spec.write_current, self.spec.write_pulse);
        let target = ResistanceState::from_bit(bit);
        let done = self.cells[index].write_with_pulse(&mut state, target, current, pulse, rng);
        self.states.set(index, state.bit());
        done
    }

    /// Write-verify: drive write pulses until the read-back state matches
    /// `bit`, up to `max_attempts` pulses. Returns the number of pulses
    /// used, or `None` if the cell never switched (a weak-write failure a
    /// controller would map out).
    ///
    /// This is the standard controller-side answer to stochastic STT
    /// switching: a marginal write current that only switches 70 % of the
    /// time still yields `(1 − 0.7)ⁿ` failure after n attempts.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range or `max_attempts` is zero.
    pub fn write_bit_verified<R: Rng + ?Sized>(
        &mut self,
        addr: Address,
        bit: bool,
        max_attempts: u32,
        rng: &mut R,
    ) -> Option<u32> {
        assert!(max_attempts > 0, "need at least one write attempt");
        (1..=max_attempts).find(|_| self.write_bit_pulsed(addr, bit, rng))
    }

    /// Fills the array with a pattern (`f(addr) -> bit`), ideally.
    pub fn fill_with<F: FnMut(Address) -> bool>(&mut self, mut pattern: F) {
        let cols = self.spec.cols;
        for index in 0..self.cells.len() {
            let bit = pattern(Address::new(index / cols, index % cols));
            self.states.set(index, bit);
        }
    }

    /// Bit-line voltage for a read of `addr` at `i_read` with the cell
    /// holding `state`, including the unselected-cell leakage shunt on that
    /// column — the sensing analyses need both branches of Eq. (1).
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    #[must_use]
    pub fn bitline_voltage_for(
        &self,
        addr: Address,
        state: ResistanceState,
        i_read: Amps,
    ) -> Volts {
        let r_selected = self.cell(addr).series_resistance_for(state, i_read);
        self.spec.bitline.loaded_voltage(i_read, r_selected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_array(seed: u64) -> Array {
        let mut rng = StdRng::seed_from_u64(seed);
        ArraySpec::small_test_array().sample(&mut rng)
    }

    #[test]
    fn chip_spec_is_16kb() {
        let spec = ArraySpec::date2010_chip();
        assert_eq!(spec.capacity_bits(), 16384);
        assert_eq!(spec.rows, spec.bitline.cells_per_bitline);
    }

    #[test]
    fn checkerboard_pattern_round_trips() {
        let mut array = small_array(1);
        array.fill_with(|addr| (addr.row + addr.col) % 2 == 0);
        for addr in array.addresses() {
            assert_eq!(array.read_state(addr).bit(), (addr.row + addr.col) % 2 == 0);
        }
        assert!(array.read_state(Address::new(0, 0)).bit());
        assert!(!array.read_state(Address::new(0, 1)).bit());
    }

    #[test]
    fn pulsed_writes_succeed_at_rated_current() {
        let mut array = small_array(2);
        let mut rng = StdRng::seed_from_u64(3);
        for addr in array.addresses().collect::<Vec<_>>() {
            let bit = addr.row % 2 == 0;
            assert!(
                array.write_bit_pulsed(addr, bit, &mut rng),
                "write at {addr}"
            );
            assert_eq!(array.read_state(addr).bit(), bit);
        }
    }

    #[test]
    fn write_verify_is_single_shot_at_rated_current() {
        let mut array = small_array(8);
        let mut rng = StdRng::seed_from_u64(9);
        for addr in array.addresses().collect::<Vec<_>>() {
            let attempts = array
                .write_bit_verified(addr, addr.col % 2 == 0, 4, &mut rng)
                .expect("rated writes succeed");
            assert_eq!(attempts, 1, "600 µA writes need no retry at {addr}");
        }
    }

    #[test]
    fn write_verify_retries_marginal_writes() {
        // Derate the write driver to just above the 4 ns critical current:
        // single pulses become unreliable, retries recover most cells.
        let mut spec = ArraySpec::small_test_array();
        spec.write_current = Amps::from_micro(480.0); // below I_c(4 ns) ≈ 500 µA
        let mut rng = StdRng::seed_from_u64(10);
        let mut array = spec.sample(&mut rng);
        let mut single_shot = 0usize;
        let mut recovered = 0usize;
        let mut lost = 0usize;
        for addr in array.addresses().collect::<Vec<_>>() {
            array.write_bit(addr, false);
            match array.write_bit_verified(addr, true, 8, &mut rng) {
                Some(1) => single_shot += 1,
                Some(_) => recovered += 1,
                None => lost += 1,
            }
        }
        assert!(
            recovered > 0,
            "marginal writes must need retries somewhere (single {single_shot}, lost {lost})"
        );
        assert!(
            single_shot + recovered >= 60,
            "8 attempts recover nearly all of 64 cells (lost {lost})"
        );
    }

    #[test]
    #[should_panic(expected = "at least one write attempt")]
    fn write_verify_rejects_zero_attempts() {
        let mut array = small_array(11);
        let mut rng = StdRng::seed_from_u64(12);
        let _ = array.write_bit_verified(Address::new(0, 0), true, 0, &mut rng);
    }

    #[test]
    fn bitline_voltage_reflects_state_and_leakage() {
        let mut array = small_array(4);
        let addr = Address::new(3, 5);
        let i = Amps::from_micro(200.0);
        array.write_bit(addr, false);
        let v_low = array.bitline_voltage_for(addr, array.read_state(addr), i);
        array.write_bit(addr, true);
        let v_high = array.bitline_voltage_for(addr, array.read_state(addr), i);
        assert!(v_high > v_low, "high state must produce the larger V_BL");
        // Leakage pulls both below the unloaded cell voltage, Eq. (1).
        let unloaded = i * array
            .cell(addr)
            .series_resistance_for(ResistanceState::AntiParallel, i);
        assert!(v_high < unloaded);
    }

    #[test]
    fn state_plane_counts_differences_within_its_cells() {
        // 100 cells: one full word and 36 cells of a second.
        let mut plane = StatePlane::new(100);
        for cell in [0, 63, 64, 99] {
            plane.set(cell, true);
        }
        assert_eq!(plane.words(), &[1 | 1 << 63, 1 | 1 << 35]);
        assert_eq!(plane.count_differing(&[0, 0]), 4);
        // The other set's bits past cell 99 are not cells, so not counted.
        assert_eq!(
            plane.count_differing(&[1 | 1 << 63, 1 | 1 << 35 | 1 << 36 | 1 << 63]),
            0
        );
        assert_eq!(plane.count_differing(&[1, 0]), 3);
    }

    #[test]
    #[should_panic(expected = "cell 100 of 100")]
    fn state_plane_rejects_bits_past_its_cells() {
        StatePlane::new(100).set(100, true);
    }

    #[test]
    fn addresses_cover_the_array_once() {
        let array = small_array(5);
        let all: Vec<Address> = array.addresses().collect();
        assert_eq!(all.len(), 64);
        let unique: std::collections::HashSet<Address> = all.iter().copied().collect();
        assert_eq!(unique.len(), 64);
        assert_eq!(all[0], Address::new(0, 0));
        assert_eq!(all[63], Address::new(7, 7));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_address_panics() {
        let array = small_array(6);
        let _ = array.cell(Address::new(8, 0));
    }

    #[test]
    #[should_panic(expected = "rows must equal cells per bit-line")]
    fn inconsistent_bitline_spec_rejected() {
        let mut spec = ArraySpec::small_test_array();
        spec.rows = 16; // bitline still says 8
        let mut rng = StdRng::seed_from_u64(7);
        let _ = spec.sample(&mut rng);
    }
}
