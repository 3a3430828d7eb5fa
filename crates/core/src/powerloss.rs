//! The nonvolatility experiment (§I): what a power failure during a read
//! does to stored data.
//!
//! A destructive self-reference read erases the cell and only restores it
//! at the very end; the paper: "The original MTJ state could be lost if
//! power is shut down before the write back operation completes. This
//! raises … concerns about the chip reliability from non-volatility point
//! of view." The nondestructive scheme never writes, so an outage at any
//! instant leaves the array intact.
//!
//! The experiment reads a population of cells under each scheme with a
//! power cut injected at a uniformly random step boundary, and counts the
//! bits that no longer hold their original value.

use rand::Rng;
use stt_array::{fault, Address, Array, ArraySpec, PhaseKind, PowerFailure};
use stt_stats::YieldCount;
use stt_units::Seconds;

use crate::design::DesignPoint;
use crate::scheme::SchemeKind;
use crate::timing::ChipTiming;

/// Configuration of the power-loss experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLossExperiment {
    /// The chip the reads run against.
    pub array: ArraySpec,
    /// How many interrupted reads to simulate per scheme.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Timing model (used to report the vulnerability window).
    pub timing: ChipTiming,
}

impl PowerLossExperiment {
    /// The default configuration: the 16 kb chip, 1024 interrupted reads.
    #[must_use]
    pub fn date2010(seed: u64) -> Self {
        Self {
            array: ArraySpec::date2010_chip(),
            trials: 1024,
            seed,
            timing: ChipTiming::date2010(),
        }
    }

    /// Runs the experiment.
    ///
    /// Each trial: pick a random cell storing "1" (the vulnerable value —
    /// an erased "0" is indistinguishable from a stored "0"), run the
    /// scheme's step sequence with a power cut after a uniformly random
    /// step, and check whether the cell still holds its bit.
    #[must_use]
    pub fn run(&self) -> PowerLossResult {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut array = self.array.sample(&mut rng);
        array.fill_with(|_| true);

        let mut destructive = YieldCount::new();
        let mut nondestructive = YieldCount::new();
        for _ in 0..self.trials {
            let addr = Address::new(
                rng.gen_range(0..self.array.rows),
                rng.gen_range(0..self.array.cols),
            );
            // Destructive sequence: [read1, erase, read2+sense, write back].
            // The reads do not mutate; the two writes do.
            array.write_bit(addr, true);
            let cut = PowerFailure::after_step(rng.gen_range(0..4));
            let outcome = fault::run_with_power_failure(
                &mut array,
                vec![
                    Box::new(|_a: &mut Array| {}),
                    Box::new(move |a: &mut Array| a.write_bit(addr, false)),
                    Box::new(|_a: &mut Array| {}),
                    Box::new(move |a: &mut Array| a.write_bit(addr, true)),
                ],
                cut,
            );
            destructive.record(outcome.is_data_safe());
            array.write_bit(addr, true);

            // Nondestructive sequence: [read1, read2, sense] — no mutation.
            let cut = PowerFailure::after_step(rng.gen_range(0..3));
            let outcome = fault::run_with_power_failure(
                &mut array,
                vec![
                    Box::new(|_a: &mut Array| {}),
                    Box::new(|_a: &mut Array| {}),
                    Box::new(|_a: &mut Array| {}),
                ],
                cut,
            );
            nondestructive.record(outcome.is_data_safe());
        }

        PowerLossResult {
            trials: self.trials,
            destructive,
            nondestructive,
            destructive_vulnerable: self.vulnerable_window(SchemeKind::Destructive),
            nondestructive_vulnerable: self.vulnerable_window(SchemeKind::Nondestructive),
        }
    }

    /// The wall-clock window during which an outage loses data: from the
    /// start of the erase pulse to the end of write-back (zero for schemes
    /// that never write).
    fn vulnerable_window(&self, kind: SchemeKind) -> Seconds {
        let nominal = self.array.cell.nominal_cell();
        let design = DesignPoint::date2010(&nominal);
        let cost = self.timing.read_cost(kind, &design);
        let mut seen_write = false;
        let mut window = Seconds::ZERO;
        for phase in cost.phases() {
            if phase.kind == PhaseKind::Write {
                seen_write = true;
            }
            if seen_write {
                window += phase.duration;
            }
        }
        window
    }
}

/// Outcome of the power-loss experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLossResult {
    /// Interrupted reads per scheme.
    pub trials: usize,
    /// Destructive scheme: pass = data survived the outage.
    pub destructive: YieldCount,
    /// Nondestructive scheme: pass = data survived the outage.
    pub nondestructive: YieldCount,
    /// Time window per read during which the destructive scheme holds the
    /// data outside the cell.
    pub destructive_vulnerable: Seconds,
    /// Same for the nondestructive scheme (always zero).
    pub nondestructive_vulnerable: Seconds,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PowerLossExperiment {
        let mut experiment = PowerLossExperiment::date2010(11);
        experiment.array.rows = 16;
        experiment.array.cols = 16;
        experiment.array.bitline.cells_per_bitline = 16;
        experiment.trials = 256;
        experiment
    }

    #[test]
    fn destructive_loses_data_nondestructive_never() {
        let result = small().run();
        // The cut lands uniformly after step 0..=3; data is lost when it
        // falls after the erase (step 1) or the sense (step 2): ~50 %.
        let loss_rate = result.destructive.failure_rate();
        assert!(
            (0.3..0.7).contains(&loss_rate),
            "destructive loss rate {loss_rate}"
        );
        assert_eq!(
            result.nondestructive.failures(),
            0,
            "the nondestructive scheme must never lose data"
        );
        assert_eq!(result.nondestructive.total(), 256);
    }

    #[test]
    fn vulnerability_windows() {
        let experiment = small();
        let destructive = experiment.vulnerable_window(SchemeKind::Destructive);
        let nondestructive = experiment.vulnerable_window(SchemeKind::Nondestructive);
        assert_eq!(nondestructive, Seconds::ZERO);
        // Erase (5 ns) + read2 (6 ns) + sense (2 ns) + latch (1 ns) +
        // write back (5 ns) = 19 ns of exposure per read.
        assert!(
            (destructive.get() - 19e-9).abs() < 1e-12,
            "window {destructive}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = small().run();
        let b = small().run();
        assert_eq!(a, b);
    }
}
