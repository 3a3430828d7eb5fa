//! Power-failure fault injection.
//!
//! The paper's §I reliability argument against destructive self-reference:
//! "The original MTJ state could be lost if power is shut down before the
//! write back operation completes." This module injects exactly that fault:
//! an operation is modelled as a sequence of state-mutating steps, and a
//! [`PowerFailure`] cuts it off after a chosen step. Whatever the cells hold
//! at that instant is what a nonvolatile memory keeps across the outage.

use crate::array::{Address, Array};

/// When, within a multi-step operation, the power is cut.
///
/// Steps are indexed from 0; a failure `after_step = k` means steps
/// `0..=k` completed and everything later was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PowerFailure {
    /// Index of the last step that completed before the outage.
    pub after_step: usize,
}

impl PowerFailure {
    /// A failure after the given step.
    #[must_use]
    pub fn after_step(step: usize) -> Self {
        Self { after_step: step }
    }
}

/// The result of running an interruptible operation against an array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerFailureOutcome {
    /// Steps that executed before the cut.
    pub steps_completed: usize,
    /// Total steps the operation would have had.
    pub steps_total: usize,
    /// Addresses whose stored state after the outage differs from the state
    /// they held before the operation started.
    pub corrupted: Vec<Address>,
}

impl PowerFailureOutcome {
    /// `true` when the outage destroyed no data.
    #[must_use]
    pub fn is_data_safe(&self) -> bool {
        self.corrupted.is_empty()
    }
}

/// One state-mutating step of an interruptible operation.
pub type OperationStep<'a> = Box<dyn FnOnce(&mut Array) + 'a>;

/// Runs a sequence of state-mutating steps against `array`, cutting power
/// after `failure.after_step`. Returns which cells were corrupted relative
/// to the pre-operation contents.
///
/// Each step is a closure mutating the array (e.g. "write reference 0 into
/// the cell", "write back the original value"). Steps after the failure
/// point simply never run — exactly what a power cut does to a command
/// sequencer driving nonvolatile cells.
pub fn run_with_power_failure(
    array: &mut Array,
    steps: Vec<OperationStep<'_>>,
    failure: PowerFailure,
) -> PowerFailureOutcome {
    let before = array.states().clone();
    let steps_total = steps.len();
    let mut steps_completed = 0;
    for (index, step) in steps.into_iter().enumerate() {
        if index > failure.after_step {
            break;
        }
        step(array);
        steps_completed += 1;
    }
    let cols = array.cols();
    let mut corrupted = Vec::new();
    for (w, (now, then)) in array
        .states()
        .words()
        .iter()
        .zip(before.words())
        .enumerate()
    {
        let mut diff = now ^ then;
        while diff != 0 {
            let cell = w * 64 + diff.trailing_zeros() as usize;
            diff &= diff - 1;
            corrupted.push(Address::new(cell / cols, cell % cols));
        }
    }
    PowerFailureOutcome {
        steps_completed,
        steps_total,
        corrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArraySpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn array_with_ones() -> Array {
        let mut rng = StdRng::seed_from_u64(1);
        let mut array = ArraySpec::small_test_array().sample(&mut rng);
        array.fill_with(|_| true);
        array
    }

    #[test]
    fn completing_all_steps_restores_data() {
        // Destructive self-reference on one cell: erase then write back.
        let mut array = array_with_ones();
        let victim = Address::new(2, 2);
        let outcome = run_with_power_failure(
            &mut array,
            vec![
                Box::new(move |a: &mut Array| a.write_bit(victim, false)), // erase
                Box::new(move |a: &mut Array| a.write_bit(victim, true)),  // write back
            ],
            PowerFailure::after_step(1),
        );
        assert_eq!(outcome.steps_completed, 2);
        assert!(outcome.is_data_safe());
    }

    #[test]
    fn failure_between_erase_and_writeback_corrupts() {
        let mut array = array_with_ones();
        let victim = Address::new(2, 2);
        let outcome = run_with_power_failure(
            &mut array,
            vec![
                Box::new(move |a: &mut Array| a.write_bit(victim, false)),
                Box::new(move |a: &mut Array| a.write_bit(victim, true)),
            ],
            PowerFailure::after_step(0), // power dies after the erase
        );
        assert_eq!(outcome.steps_completed, 1);
        assert_eq!(outcome.corrupted, vec![victim]);
        assert!(!outcome.is_data_safe());
        assert!(!array.read_state(victim).bit(), "the one became a zero");
    }

    #[test]
    fn read_only_sequences_are_always_safe() {
        let mut array = array_with_ones();
        let outcome = run_with_power_failure(
            &mut array,
            vec![
                Box::new(|_a: &mut Array| {}), // first read samples C1
                Box::new(|_a: &mut Array| {}), // second read + sense
            ],
            PowerFailure::after_step(0),
        );
        assert!(outcome.is_data_safe());
        assert_eq!(outcome.steps_total, 2);
    }

    #[test]
    fn failure_beyond_last_step_is_benign() {
        let mut array = array_with_ones();
        let victim = Address::new(0, 0);
        let outcome = run_with_power_failure(
            &mut array,
            vec![Box::new(move |a: &mut Array| a.write_bit(victim, false))],
            PowerFailure::after_step(10),
        );
        assert_eq!(outcome.steps_completed, 1);
        // The write itself changed the data; that is an intended mutation,
        // but relative to the pre-op state it reads as a difference.
        assert_eq!(outcome.corrupted, vec![victim]);
    }
}
