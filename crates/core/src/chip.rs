//! The Fig. 11 chip experiment: per-bit sense margins across a 16 kb array.
//!
//! The paper fabricated a 16 kb test chip and measured, for every bit, the
//! sense margins of conventional sensing, destructive self-reference and
//! nondestructive self-reference. Result: "about 1 % of bits failed to be
//! readout by conventional sensing scheme. However, both destructive and
//! nondestructive self-reference schemes successfully sensed all measured
//! bits."
//!
//! Here the chip is a Monte-Carlo population (the calibrated variation
//! model of DESIGN.md §5); each simulated bit gets a varied cell, its
//! margins under all three schemes, and a pass/fail verdict against the
//! sense amplifier in each scheme's path (plain latch for the shared
//! reference, auto-zero for the self-reference paths — §V of the paper).

use stt_array::ArraySpec;
use stt_stats::{run_trials, Summary, YieldCount};
use stt_units::{Amps, Volts};

use crate::amplifier::SenseAmplifier;
use crate::design::DesignPoint;
use crate::margins::SenseMargins;
use crate::noise::read_noise_sigma;
use crate::scheme::SchemeKind;

/// Per-bit margins under the three schemes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitMargins {
    /// Conventional (shared-reference) sensing.
    pub conventional: SenseMargins,
    /// Destructive self-reference.
    pub destructive: SenseMargins,
    /// Nondestructive self-reference.
    pub nondestructive: SenseMargins,
}

impl BitMargins {
    /// The margins under a given scheme.
    #[must_use]
    pub fn for_kind(&self, kind: SchemeKind) -> SenseMargins {
        match kind {
            SchemeKind::Conventional => self.conventional,
            SchemeKind::Destructive => self.destructive,
            SchemeKind::Nondestructive => self.nondestructive,
        }
    }
}

/// Aggregated outcome of one scheme over the whole chip.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeTally {
    /// Which scheme.
    pub kind: SchemeKind,
    /// The SA threshold the margins were judged against.
    pub threshold: Volts,
    /// Pass/fail tally (a bit passes when *both* its margins clear the
    /// threshold — the chip measures each bit in both states).
    pub yields: YieldCount,
    /// Distribution of the per-bit "0" margins.
    pub margin0: Summary,
    /// Distribution of the per-bit "1" margins.
    pub margin1: Summary,
}

impl SchemeTally {
    /// The worst margin observed on the chip.
    #[must_use]
    pub fn worst_margin(&self) -> Volts {
        Volts::new(self.margin0.min().min(self.margin1.min()))
    }
}

/// The Fig. 11 experiment configuration.
///
/// # Examples
///
/// ```
/// use stt_sense::{ChipExperiment, SchemeKind};
///
/// // A 1 kb sub-chip for speed; the defaults model the paper's 16 kb chip.
/// let mut experiment = ChipExperiment::date2010(7);
/// experiment.array.rows = 32;
/// experiment.array.cols = 32;
/// experiment.array.bitline.cells_per_bitline = 32;
/// let result = experiment.run();
/// assert_eq!(result.tally(SchemeKind::Nondestructive).yields.failures(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChipExperiment {
    /// The chip being simulated.
    pub array: ArraySpec,
    /// Read-current budget (`I_max`).
    pub i_max: Amps,
    /// Divider ratio of the nondestructive scheme.
    pub alpha: f64,
    /// Master seed (per-bit streams derive deterministically).
    pub seed: u64,
}

impl ChipExperiment {
    /// The paper's configuration: the 16 kb chip at `I_max` = 200 µA,
    /// α = 0.5.
    #[must_use]
    pub fn date2010(seed: u64) -> Self {
        Self {
            array: ArraySpec::date2010_chip(),
            i_max: Amps::from_micro(200.0),
            alpha: 0.5,
            seed,
        }
    }

    /// Returns a copy with the common-mode variation σ overridden (the E5
    /// yield-vs-σ ablation).
    #[must_use]
    pub fn with_sigma_ra(mut self, sigma_ra: f64) -> Self {
        let sigma_tmr = self.array.cell.mtj_variation.sigma_tmr();
        self.array.cell.mtj_variation = stt_mtj::VariationModel::new(sigma_ra, sigma_tmr);
        self
    }

    /// The *operational* variant of the experiment: instead of judging
    /// margins against a fixed SA threshold, every bit is written with both
    /// values and read back through each scheme's comparator with a
    /// per-read sampled offset **and** `kT/C` sampling noise (25 fF C1 at
    /// 300 K). A bit passes when both reads land correctly — the closest
    /// model to what the paper's tester actually did.
    #[must_use]
    pub fn run_operational(&self) -> OperationalResult {
        let nominal = self.array.cell.nominal_cell();
        let design = DesignPoint::for_limits(&nominal, self.i_max, self.alpha);
        let cell_spec = self.array.cell.clone();
        let plain = SenseAmplifier::plain_latch();
        let auto_zero = SenseAmplifier::auto_zero();
        let c1 = stt_units::Farads::from_femto(25.0);
        let outcomes: Vec<[bool; 3]> = stt_stats::run_trials(
            self.array.capacity_bits(),
            self.seed ^ 0x5EED_09E8,
            move |rng, _index| {
                let cell = cell_spec.sample_cell(rng);
                let read_ok = |margins: SenseMargins,
                               sa: &SenseAmplifier,
                               rng: &mut rand::rngs::StdRng|
                 -> bool {
                    let sigma = read_noise_sigma(sa, c1, 300.0).get();
                    let mut correct = true;
                    for (stored_one, margin) in [(false, margins.margin0), (true, margins.margin1)]
                    {
                        let noise = sigma * stt_stats::dist::standard_normal(rng);
                        let differential = if stored_one {
                            margin.get()
                        } else {
                            -margin.get()
                        };
                        let decided_one = differential + noise > 0.0;
                        correct &= decided_one == stored_one;
                    }
                    correct
                };
                [
                    read_ok(design.conventional.margins(&cell), &plain, rng),
                    read_ok(
                        design
                            .destructive
                            .margins(&cell, &crate::margins::Perturbations::NONE),
                        &auto_zero,
                        rng,
                    ),
                    read_ok(
                        design
                            .nondestructive
                            .margins(&cell, &crate::margins::Perturbations::NONE),
                        &auto_zero,
                        rng,
                    ),
                ]
            },
        );
        let tally =
            |index: usize| -> YieldCount { outcomes.iter().map(|bits| bits[index]).collect() };
        OperationalResult {
            tallies: vec![
                (SchemeKind::Conventional, tally(0)),
                (SchemeKind::Destructive, tally(1)),
                (SchemeKind::Nondestructive, tally(2)),
            ],
        }
    }

    /// Runs the experiment: samples every bit, computes its margins under
    /// all three schemes, and tallies pass/fail against each scheme's SA.
    #[must_use]
    pub fn run(&self) -> ChipResult {
        let nominal = self.array.cell.nominal_cell();
        let design = DesignPoint::for_limits(&nominal, self.i_max, self.alpha);
        let cell_spec = self.array.cell.clone();
        let bits: Vec<BitMargins> =
            run_trials(self.array.capacity_bits(), self.seed, move |rng, _index| {
                let cell = cell_spec.sample_cell(rng);
                BitMargins {
                    conventional: design.conventional.margins(&cell),
                    destructive: design
                        .destructive
                        .margins(&cell, &crate::margins::Perturbations::NONE),
                    nondestructive: design
                        .nondestructive
                        .margins(&cell, &crate::margins::Perturbations::NONE),
                }
            });

        let tally = |kind: SchemeKind, sa: &SenseAmplifier| -> SchemeTally {
            // The per-bit tally fans out over scoped threads through the
            // same helper as `stt_stats::mc::run_trials`; partial tallies
            // merge in chunk order, so the result does not depend on thread
            // count or scheduling.
            const CHUNK: usize = 2048;
            let chunks: Vec<&[BitMargins]> = bits.chunks(CHUNK).collect();
            let partials = stt_stats::fill_indexed(chunks.len(), |index| {
                let mut yields = YieldCount::new();
                let mut margin0 = Summary::new();
                let mut margin1 = Summary::new();
                for bit in chunks[index] {
                    let margins = bit.for_kind(kind);
                    margin0.push(margins.margin0.get());
                    margin1.push(margins.margin1.get());
                    yields.record(
                        sa.clears_threshold(margins.margin0)
                            && sa.clears_threshold(margins.margin1),
                    );
                }
                (yields, margin0, margin1)
            });
            let mut yields = YieldCount::new();
            let mut margin0 = Summary::new();
            let mut margin1 = Summary::new();
            for (partial_yields, partial_m0, partial_m1) in &partials {
                yields.merge(partial_yields);
                margin0.merge(partial_m0);
                margin1.merge(partial_m1);
            }
            SchemeTally {
                kind,
                threshold: sa.usable_threshold(),
                yields,
                margin0,
                margin1,
            }
        };

        let plain = SenseAmplifier::plain_latch();
        let auto_zero = SenseAmplifier::auto_zero();
        ChipResult {
            design,
            tallies: vec![
                tally(SchemeKind::Conventional, &plain),
                tally(SchemeKind::Destructive, &auto_zero),
                tally(SchemeKind::Nondestructive, &auto_zero),
            ],
            bits,
        }
    }
}

/// Result of the *operational* chip readout (see
/// [`ChipExperiment::run_operational`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OperationalResult {
    /// Per-scheme misread tallies (pass = both stored values read back
    /// correctly through the sampled comparator).
    pub tallies: Vec<(SchemeKind, YieldCount)>,
}

impl OperationalResult {
    /// The tally of one scheme.
    ///
    /// # Panics
    ///
    /// Panics if the scheme is missing (never for results from
    /// [`ChipExperiment::run_operational`]).
    #[must_use]
    pub fn tally(&self, kind: SchemeKind) -> &YieldCount {
        &self
            .tallies
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("all three schemes are tallied")
            .1
    }
}

/// The full Fig. 11 result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipResult {
    /// The designs the chip was evaluated at.
    pub design: DesignPoint,
    /// One tally per scheme (conventional, destructive, nondestructive).
    pub tallies: Vec<SchemeTally>,
    /// Per-bit margins (the Fig. 11 scatter data).
    pub bits: Vec<BitMargins>,
}

impl ChipResult {
    /// The tally of a given scheme.
    ///
    /// # Panics
    ///
    /// Panics if the result does not contain the scheme (never the case for
    /// results produced by [`ChipExperiment::run`]).
    #[must_use]
    pub fn tally(&self, kind: SchemeKind) -> &SchemeTally {
        self.tallies
            .iter()
            .find(|tally| tally.kind == kind)
            .expect("all three schemes are tallied")
    }

    /// The per-bit `(SM0, SM1)` scatter of a scheme, in millivolts — the
    /// coordinates of the paper's Fig. 11.
    #[must_use]
    pub fn scatter_mv(&self, kind: SchemeKind) -> Vec<(f64, f64)> {
        self.bits
            .iter()
            .map(|bit| {
                let margins = bit.for_kind(kind);
                (margins.margin0.get() * 1e3, margins.margin1.get() * 1e3)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2 kb sub-chip keeps the test fast while retaining the statistics.
    fn small_experiment(seed: u64) -> ChipExperiment {
        let mut experiment = ChipExperiment::date2010(seed);
        experiment.array.rows = 64;
        experiment.array.cols = 32;
        experiment.array.bitline.cells_per_bitline = 64;
        experiment
    }

    #[test]
    fn fig11_shape_conventional_fails_self_reference_passes() {
        let result = small_experiment(2010).run();
        let conventional = result.tally(SchemeKind::Conventional);
        let destructive = result.tally(SchemeKind::Destructive);
        let nondestructive = result.tally(SchemeKind::Nondestructive);
        // "about 1 % of bits failed … by conventional sensing".
        let rate = conventional.yields.failure_rate();
        assert!(
            (0.001..0.05).contains(&rate),
            "conventional failure rate {rate}"
        );
        // "both … self-reference schemes successfully sensed all measured
        // bits".
        assert_eq!(destructive.yields.failures(), 0, "destructive failures");
        assert_eq!(
            nondestructive.yields.failures(),
            0,
            "nondestructive failures (worst margin {})",
            nondestructive.worst_margin()
        );
    }

    #[test]
    fn margin_hierarchy_matches_paper() {
        let result = small_experiment(7).run();
        // Destructive margins ≫ nondestructive margins (≈8× nominal), and
        // both stay positive everywhere.
        let destructive = result.tally(SchemeKind::Destructive);
        let nondestructive = result.tally(SchemeKind::Nondestructive);
        assert!(destructive.margin0.mean() > 4.0 * nondestructive.margin0.mean());
        assert!(destructive.worst_margin().get() > 0.0);
        assert!(nondestructive.worst_margin().get() > 0.0);
        // Conventional margins go *negative* for the tail bits.
        let conventional = result.tally(SchemeKind::Conventional);
        assert!(conventional.worst_margin().get() < 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = small_experiment(42).run();
        let b = small_experiment(42).run();
        assert_eq!(a.bits, b.bits);
        let c = small_experiment(43).run();
        assert_ne!(a.bits, c.bits);
    }

    #[test]
    fn scatter_has_one_point_per_bit() {
        let result = small_experiment(1).run();
        let scatter = result.scatter_mv(SchemeKind::Nondestructive);
        assert_eq!(scatter.len(), 2048);
        // All nondestructive points sit in the positive quadrant.
        assert!(scatter.iter().all(|&(x, y)| x > 0.0 && y > 0.0));
    }

    #[test]
    fn operational_readout_matches_the_threshold_story() {
        let result = small_experiment(21).run_operational();
        let conventional = result.tally(SchemeKind::Conventional);
        let destructive = result.tally(SchemeKind::Destructive);
        let nondestructive = result.tally(SchemeKind::Nondestructive);
        // Sampled offsets misread a fraction of conventional bits (smaller
        // than the 8 mV-threshold criterion — an actual offset draw can be
        // luckier than the worst case)…
        assert!(
            conventional.failures() > 0,
            "conventional must misread some bits"
        );
        // …while the offset-cancelled self-reference paths read everything.
        assert_eq!(destructive.failures(), 0, "destructive misreads");
        assert_eq!(nondestructive.failures(), 0, "nondestructive misreads");
    }

    #[test]
    fn margin_correlation_signature_of_the_mechanism() {
        // Common-mode variation moves both of a bit's resistances together.
        // Under a *fixed* reference that pushes SM0 and SM1 in opposite
        // directions (a high-R bit gains SM1 and loses SM0): strong
        // anti-correlation. Under self-reference the reference tracks the
        // bit, so both margins scale together: positive correlation.
        let result = small_experiment(3).run();
        let corr = |kind: SchemeKind| {
            let scatter = result.scatter_mv(kind);
            let (sm0, sm1): (Vec<f64>, Vec<f64>) = scatter.into_iter().unzip();
            stt_stats::pearson(&sm0, &sm1)
        };
        let conventional = corr(SchemeKind::Conventional);
        let nondestructive = corr(SchemeKind::Nondestructive);
        let destructive = corr(SchemeKind::Destructive);
        assert!(conventional < -0.9, "conventional r = {conventional}");
        assert!(nondestructive > 0.3, "nondestructive r = {nondestructive}");
        assert!(destructive > 0.3, "destructive r = {destructive}");
    }

    #[test]
    fn sigma_override_scales_failures() {
        let tight = small_experiment(5).with_sigma_ra(0.02).run();
        let loose = small_experiment(5).with_sigma_ra(0.16).run();
        let tight_rate = tight.tally(SchemeKind::Conventional).yields.failure_rate();
        let loose_rate = loose.tally(SchemeKind::Conventional).yields.failure_rate();
        assert!(tight_rate < loose_rate, "{tight_rate} vs {loose_rate}");
        assert_eq!(
            tight_rate, 0.0,
            "2 % spread is harmless even conventionally"
        );
    }
}
