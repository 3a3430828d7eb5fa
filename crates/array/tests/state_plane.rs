//! The array's stored states against a naive reference: a `Vec<bool>` of
//! row-major bits driven through the same random sequence of ideal,
//! pulsed and verified writes, device swaps, pattern fills and
//! power-failure runs.
//!
//! After every operation the array must read back the reference's bit at
//! every address, report the reference's corrupted list for a power cut,
//! and leave its RNG where the reference's stands: a pulsed write draws
//! one Bernoulli trial per pulse, and none when the cell already holds its
//! target.

use std::cell::RefCell;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use stt_array::{run_with_power_failure, Address, Array, ArraySpec, OperationStep, PowerFailure};
use stt_units::Amps;

/// One operation of a random sequence, unpacked from a random word as
/// `(kind, row, col, bit, param)`.
fn op_of(word: u64) -> (u64, usize, usize, bool, u64) {
    let field = |shift: u32, count: u64| ((word >> shift) % count) as usize;
    (
        word % 6,
        field(3, 8),
        field(6, 8),
        (word >> 9) & 1 == 1,
        word >> 10,
    )
}

/// The naive model: one bool per cell plus its own copy of the write RNG.
struct Reference {
    bits: Vec<bool>,
    rng: StdRng,
}

impl Reference {
    /// A pulsed write as the array must perform it, with devices read from
    /// `array` (swaps are mirrored, so they agree).
    fn pulse(&mut self, array: &Array, cell: usize, bit: bool) -> bool {
        if self.bits[cell] == bit {
            return true;
        }
        let spec = array.spec();
        let addr = Address::new(cell / spec.cols, cell % spec.cols);
        let p = array
            .cell(addr)
            .device()
            .switching()
            .switching_probability(spec.write_current, spec.write_pulse);
        if self.rng.gen_bool(p.clamp(0.0, 1.0)) {
            self.bits[cell] = bit;
        }
        self.bits[cell] == bit
    }
}

/// A deterministic pattern bit for `fill_with`.
fn pattern_bit(addr: Address, param: u64) -> bool {
    let mixed =
        (addr.row as u64 * 31 + addr.col as u64 + param).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    mixed >> 63 == 1
}

/// A small array whose write driver sits just below the 4 ns critical
/// current, so single pulses switch only sometimes.
fn marginal_array(seed: u64) -> Array {
    let mut spec = ArraySpec::small_test_array();
    spec.write_current = Amps::from_micro(480.0);
    spec.sample(&mut StdRng::seed_from_u64(seed))
}

fn run(seed: u64, ops: &[u64]) -> Result<(), TestCaseError> {
    let mut array = marginal_array(seed);
    let spec = array.spec().clone();
    let cols = spec.cols;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut reference = Reference {
        bits: vec![false; spec.capacity_bits()],
        rng: rng.clone(),
    };
    for (step, &word) in ops.iter().enumerate() {
        let (kind, row, col, bit, param) = op_of(word);
        let addr = Address::new(row, col);
        let cell = row * cols + col;
        match kind {
            0 => {
                array.write_bit(addr, bit);
                reference.bits[cell] = bit;
            }
            1 => {
                let done = array.write_bit_pulsed(addr, bit, &mut rng);
                prop_assert_eq!((step, done), (step, reference.pulse(&array, cell, bit)));
            }
            2 => {
                let max_attempts = 1 + (param % 4) as u32;
                let used = array.write_bit_verified(addr, bit, max_attempts, &mut rng);
                let expected = (1..=max_attempts).find(|_| reference.pulse(&array, cell, bit));
                prop_assert_eq!((step, used), (step, expected));
            }
            3 => {
                // Swap in a freshly sampled device; the stored bit stays.
                *array.cell_mut(addr) = spec.cell.sample_cell(&mut StdRng::seed_from_u64(param));
            }
            4 => {
                array.fill_with(|addr| pattern_bit(addr, param));
                for (k, stored) in reference.bits.iter_mut().enumerate() {
                    *stored = pattern_bit(Address::new(k / cols, k % cols), param);
                }
            }
            _ => {
                // Up to four writes to cells near `addr`, cut after a
                // random step; pulsed writes share the run's RNG.
                let writes: Vec<(usize, bool, bool)> = (0..=(param % 4) as usize)
                    .map(|k| {
                        let target = (cell + 9 * k) % reference.bits.len();
                        (
                            target,
                            (param >> (k + 2)) & 1 == 1,
                            (param >> (k + 8)) & 1 == 1,
                        )
                    })
                    .collect();
                let after_step = (param >> 16) as usize % 6;
                let before = reference.bits.clone();
                for &(target, value, pulsed) in writes.iter().take(after_step + 1) {
                    if pulsed {
                        reference.pulse(&array, target, value);
                    } else {
                        reference.bits[target] = value;
                    }
                }
                let expected: Vec<Address> = (0..before.len())
                    .filter(|&k| before[k] != reference.bits[k])
                    .map(|k| Address::new(k / cols, k % cols))
                    .collect();
                let shared = RefCell::new(&mut rng);
                let steps: Vec<OperationStep<'_>> = writes
                    .iter()
                    .map(|&(target, value, pulsed)| {
                        let shared = &shared;
                        let target = Address::new(target / cols, target % cols);
                        Box::new(move |a: &mut Array| {
                            if pulsed {
                                a.write_bit_pulsed(target, value, &mut **shared.borrow_mut());
                            } else {
                                a.write_bit(target, value);
                            }
                        }) as OperationStep<'_>
                    })
                    .collect();
                let outcome =
                    run_with_power_failure(&mut array, steps, PowerFailure::after_step(after_step));
                prop_assert_eq!(outcome.steps_total, writes.len());
                prop_assert_eq!(outcome.steps_completed, writes.len().min(after_step + 1));
                prop_assert_eq!((step, outcome.corrupted), (step, expected));
            }
        }
        for (k, &stored) in reference.bits.iter().enumerate() {
            let addr = Address::new(k / cols, k % cols);
            prop_assert_eq!(
                (step, addr, array.read_state(addr).bit()),
                (step, addr, stored)
            );
        }
        let positions = (rng.clone().next_u64(), reference.rng.clone().next_u64());
        prop_assert_eq!((step, positions.0), (step, positions.1));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stored_states_match_a_naive_reference(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(0u64..u64::MAX, 0..80),
    ) {
        run(seed, &ops)?;
    }
}

/// The marginal driver really is marginal: some pulses switch and some do
/// not, so the RNG comparison above sees both outcomes.
#[test]
fn the_marginal_driver_switches_only_sometimes() {
    let mut array = marginal_array(3);
    let mut rng = StdRng::seed_from_u64(4);
    let (mut switched, mut missed) = (0, 0);
    for k in 0..64 {
        let addr = Address::new(k / 8, k % 8);
        array.write_bit(addr, false);
        if array.write_bit_pulsed(addr, true, &mut rng) {
            switched += 1;
        } else {
            missed += 1;
        }
    }
    assert!(
        switched > 0 && missed > 0,
        "{switched} switched, {missed} missed"
    );
}
