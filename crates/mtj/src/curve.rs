//! Tabulated R–I curves and sweep generation (paper Figs. 2 and 4).
//!
//! The paper's device data is a *measured* static R–I sweep under 4 ns
//! pulses, with missing points filled by DC extrapolation. [`TabulatedCurve`]
//! mirrors that representation: per-state `(I, R)` samples with linear
//! interpolation, buildable from any analytic [`ResistanceModel`] (optionally
//! with synthetic measurement noise). [`IvSweep`] renders a full figure-ready
//! sweep.

use rand::Rng;
use stt_units::{Amps, Ohms};

use crate::model::ResistanceModel;
use crate::ResistanceState;

/// One sample of a static R–I sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvPoint {
    /// Sensing current (signed; negative is the opposite read polarity).
    pub current: Amps,
    /// High-state (anti-parallel) resistance at that current.
    pub r_high: Ohms,
    /// Low-state (parallel) resistance at that current.
    pub r_low: Ohms,
}

/// A full static R–I sweep, as plotted in the paper's Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct IvSweep {
    points: Vec<IvPoint>,
}

impl IvSweep {
    /// Samples `steps + 1` evenly spaced points of `model` over
    /// `[-i_span, +i_span]`.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or `i_span` is non-positive.
    #[must_use]
    pub fn sample<M: ResistanceModel>(model: &M, i_span: Amps, steps: usize) -> Self {
        assert!(steps > 0, "a sweep needs at least one step");
        assert!(i_span.get() > 0.0, "sweep span must be positive");
        let points = (0..=steps)
            .map(|k| {
                let fraction = 2.0 * (k as f64) / (steps as f64) - 1.0;
                let current = i_span * fraction;
                IvPoint {
                    current,
                    r_high: model.resistance(ResistanceState::AntiParallel, current),
                    r_low: model.resistance(ResistanceState::Parallel, current),
                }
            })
            .collect();
        Self { points }
    }

    /// The sweep samples, ordered by ascending current.
    #[must_use]
    pub fn points(&self) -> &[IvPoint] {
        &self.points
    }

    /// Iterates over the sweep samples.
    pub fn iter(&self) -> std::slice::Iter<'_, IvPoint> {
        self.points.iter()
    }
}

impl<'a> IntoIterator for &'a IvSweep {
    type Item = &'a IvPoint;
    type IntoIter = std::slice::Iter<'a, IvPoint>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

/// A measured-style R–I table with linear interpolation between samples.
///
/// Stores per-state samples over non-negative current magnitudes; lookups
/// use `|I|` (static resistance is even in current) and clamp-extrapolate
/// with the end slopes beyond the table, mirroring the paper's "DC
/// extrapolation" of missing pulse-measurement points.
///
/// # Examples
///
/// ```
/// use stt_mtj::{LinearRolloff, ResistanceModel, ResistanceState, TabulatedCurve};
/// use stt_units::{Amps, Ohms};
///
/// let analytic = LinearRolloff::new(
///     Ohms::new(1525.0),
///     Ohms::new(3050.0),
///     Ohms::new(100.0),
///     Ohms::new(600.0),
///     Amps::from_micro(200.0),
/// );
/// let table = TabulatedCurve::from_model(&analytic, Amps::from_micro(200.0), 20);
/// let i = Amps::from_micro(130.0);
/// let err = (table.resistance(ResistanceState::AntiParallel, i)
///     - analytic.resistance(ResistanceState::AntiParallel, i)).abs();
/// assert!(err.get() < 1e-9); // linear model is reproduced exactly
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TabulatedCurve {
    /// `(|I|, R)` samples for the high state, ascending in current.
    high: Vec<(Amps, Ohms)>,
    /// `(|I|, R)` samples for the low state, ascending in current.
    low: Vec<(Amps, Ohms)>,
}

impl TabulatedCurve {
    /// Builds a table from explicit per-state samples.
    ///
    /// # Panics
    ///
    /// Panics if either table has fewer than two samples, currents are not
    /// strictly ascending and non-negative, or any resistance is
    /// non-positive.
    #[must_use]
    pub fn new(high: Vec<(Amps, Ohms)>, low: Vec<(Amps, Ohms)>) -> Self {
        for (name, table) in [("high", &high), ("low", &low)] {
            assert!(
                table.len() >= 2,
                "{name}-state table needs at least two samples"
            );
            assert!(
                table[0].0.get() >= 0.0,
                "{name}-state table currents must be non-negative"
            );
            for pair in table.windows(2) {
                assert!(
                    pair[1].0 > pair[0].0,
                    "{name}-state table currents must be strictly ascending"
                );
            }
            assert!(
                table.iter().all(|(_, r)| r.get() > 0.0),
                "{name}-state resistances must be positive"
            );
        }
        Self { high, low }
    }

    /// Samples `model` at `samples + 1` evenly spaced currents in
    /// `[0, i_max]`.
    ///
    /// # Panics
    ///
    /// Panics if `samples < 1` or `i_max` is non-positive.
    #[must_use]
    pub fn from_model<M: ResistanceModel>(model: &M, i_max: Amps, samples: usize) -> Self {
        assert!(samples >= 1, "need at least two table points");
        assert!(i_max.get() > 0.0, "i_max must be positive");
        let grid = |state: ResistanceState| {
            (0..=samples)
                .map(|k| {
                    let current = i_max * (k as f64 / samples as f64);
                    (current, model.resistance(state, current))
                })
                .collect()
        };
        Self {
            high: grid(ResistanceState::AntiParallel),
            low: grid(ResistanceState::Parallel),
        }
    }

    /// Like [`TabulatedCurve::from_model`], but perturbs each sample with
    /// multiplicative Gaussian noise of relative standard deviation
    /// `rel_sigma`, emulating instrument noise on a measured sweep.
    ///
    /// # Panics
    ///
    /// Panics if `rel_sigma` is negative or ≥ 0.5 (the table could go
    /// non-positive), or on the same conditions as `from_model`.
    #[must_use]
    pub fn from_model_noisy<M: ResistanceModel, R: Rng + ?Sized>(
        model: &M,
        i_max: Amps,
        samples: usize,
        rel_sigma: f64,
        rng: &mut R,
    ) -> Self {
        assert!(
            (0.0..0.5).contains(&rel_sigma),
            "relative noise must be in [0, 0.5)"
        );
        let mut table = Self::from_model(model, i_max, samples);
        let mut perturb = |points: &mut Vec<(Amps, Ohms)>| {
            for (_, r) in points.iter_mut() {
                let z = crate::variation::standard_normal(rng);
                *r = *r * (1.0 + rel_sigma * z).max(0.5);
            }
        };
        perturb(&mut table.high);
        perturb(&mut table.low);
        table
    }

    /// The high-state samples.
    #[must_use]
    pub fn high_samples(&self) -> &[(Amps, Ohms)] {
        &self.high
    }

    /// The low-state samples.
    #[must_use]
    pub fn low_samples(&self) -> &[(Amps, Ohms)] {
        &self.low
    }

    fn interpolate(table: &[(Amps, Ohms)], i: Amps) -> Ohms {
        let i = i.abs();
        // Index of the first sample at or beyond `i`.
        let upper = table.partition_point(|(current, _)| *current < i);
        let (lo, hi) = match upper {
            0 => (0, 1),
            n if n >= table.len() => (table.len() - 2, table.len() - 1),
            n => (n - 1, n),
        };
        let (i0, r0) = table[lo];
        let (i1, r1) = table[hi];
        let t = (i - i0) / (i1 - i0);
        r0 + (r1 - r0) * t
    }
}

impl ResistanceModel for TabulatedCurve {
    fn resistance(&self, state: ResistanceState, i: Amps) -> Ohms {
        match state {
            ResistanceState::AntiParallel => Self::interpolate(&self.high, i),
            ResistanceState::Parallel => Self::interpolate(&self.low, i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConductanceModel, LinearRolloff};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn typical_linear() -> LinearRolloff {
        LinearRolloff::new(
            Ohms::new(1525.0),
            Ohms::new(3050.0),
            Ohms::new(100.0),
            Ohms::new(600.0),
            Amps::from_micro(200.0),
        )
    }

    #[test]
    fn sweep_covers_both_polarities() {
        let sweep = IvSweep::sample(&typical_linear(), Amps::from_micro(200.0), 40);
        assert_eq!(sweep.points().len(), 41);
        let first = sweep.points().first().expect("non-empty");
        let last = sweep.points().last().expect("non-empty");
        assert!((first.current.get() + 200e-6).abs() < 1e-12);
        assert!((last.current.get() - 200e-6).abs() < 1e-12);
        // Symmetric sweep of an even model: endpoints match.
        assert_eq!(first.r_high, last.r_high);
    }

    #[test]
    fn sweep_high_always_above_low() {
        let sweep = IvSweep::sample(&typical_linear(), Amps::from_micro(200.0), 100);
        for point in &sweep {
            assert!(point.r_high > point.r_low, "at {}", point.current);
        }
    }

    #[test]
    fn table_reproduces_linear_model_exactly() {
        let linear = typical_linear();
        let table = TabulatedCurve::from_model(&linear, Amps::from_micro(200.0), 10);
        for microamps in [0.0, 13.0, 94.0, 157.5, 200.0] {
            let i = Amps::from_micro(microamps);
            for state in [ResistanceState::Parallel, ResistanceState::AntiParallel] {
                let err = (table.resistance(state, i) - linear.resistance(state, i)).abs();
                assert!(err.get() < 1e-9, "mismatch at {i} for {state:?}");
            }
        }
    }

    #[test]
    fn table_extrapolates_beyond_last_sample() {
        let linear = typical_linear();
        let table = TabulatedCurve::from_model(&linear, Amps::from_micro(200.0), 10);
        // Linear end-slope extrapolation continues the linear model exactly.
        let i = Amps::from_micro(240.0);
        let err = (table.resistance(ResistanceState::AntiParallel, i)
            - linear.resistance(ResistanceState::AntiParallel, i))
        .abs();
        assert!(err.get() < 1e-9);
    }

    #[test]
    fn table_interpolates_conductance_model_closely() {
        let physical = ConductanceModel::fit_linear(&typical_linear());
        let table = TabulatedCurve::from_model(&physical, Amps::from_micro(200.0), 50);
        let i = Amps::from_micro(111.0);
        let err = (table.resistance(ResistanceState::AntiParallel, i)
            - physical.resistance(ResistanceState::AntiParallel, i))
        .abs();
        // 50 segments over a gently curved function: sub-ohm error.
        assert!(err.get() < 1.0, "interpolation error {err}");
    }

    #[test]
    fn noisy_table_stays_positive_and_near_model() {
        let linear = typical_linear();
        let mut rng = StdRng::seed_from_u64(42);
        let table =
            TabulatedCurve::from_model_noisy(&linear, Amps::from_micro(200.0), 30, 0.01, &mut rng);
        for (_, r) in table.high_samples().iter().chain(table.low_samples()) {
            assert!(r.get() > 0.0);
        }
        let i = Amps::from_micro(100.0);
        let rel = (table.resistance(ResistanceState::AntiParallel, i)
            / linear.resistance(ResistanceState::AntiParallel, i)
            - 1.0)
            .abs();
        assert!(rel < 0.05, "1% noise should stay within 5%: {rel}");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_table() {
        let _ = TabulatedCurve::new(
            vec![
                (Amps::from_micro(10.0), Ohms::new(3000.0)),
                (Amps::from_micro(5.0), Ohms::new(2900.0)),
            ],
            vec![
                (Amps::ZERO, Ohms::new(1500.0)),
                (Amps::from_micro(10.0), Ohms::new(1490.0)),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn rejects_single_point_table() {
        let _ = TabulatedCurve::new(
            vec![(Amps::ZERO, Ohms::new(3000.0))],
            vec![
                (Amps::ZERO, Ohms::new(1500.0)),
                (Amps::from_micro(10.0), Ohms::new(1490.0)),
            ],
        );
    }

    proptest! {
        #[test]
        fn prop_table_matches_linear_everywhere(microamps in 0.0f64..200.0) {
            let linear = typical_linear();
            let table = TabulatedCurve::from_model(&linear, Amps::from_micro(200.0), 16);
            let i = Amps::from_micro(microamps);
            for state in [ResistanceState::Parallel, ResistanceState::AntiParallel] {
                let err = (table.resistance(state, i) - linear.resistance(state, i)).abs();
                prop_assert!(err.get() < 1e-9);
            }
        }

        #[test]
        fn prop_table_even_in_current(microamps in 0.0f64..200.0) {
            let table = TabulatedCurve::from_model(
                &typical_linear(), Amps::from_micro(200.0), 16,
            );
            let i = Amps::from_micro(microamps);
            for state in [ResistanceState::Parallel, ResistanceState::AntiParallel] {
                prop_assert_eq!(table.resistance(state, i), table.resistance(state, -i));
            }
        }
    }
}
