//! Time-dependent source values: DC, pulse trains and piecewise-linear.

use stt_units::Seconds;

/// The value of an independent source as a function of time.
///
/// Dimensionless here — the same waveform shape drives voltage sources (in
/// volts) and current sources (in amperes).
///
/// # Examples
///
/// ```
/// use stt_mna::Waveform;
/// use stt_units::Seconds;
///
/// let wl = Waveform::pulse(0.0, 1.2, Seconds::from_nano(1.0), Seconds::from_nano(0.1),
///                          Seconds::from_nano(0.1), Seconds::from_nano(5.0));
/// assert_eq!(wl.value_at(Seconds::ZERO), 0.0);
/// assert_eq!(wl.value_at(Seconds::from_nano(3.0)), 1.2);
/// assert_eq!(wl.value_at(Seconds::from_nano(8.0)), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Single pulse: `base` until `delay`, linear rise over `rise`, `top`
    /// for `width`, linear fall over `fall`, back to `base`.
    Pulse {
        /// Value before/after the pulse.
        base: f64,
        /// Value during the pulse plateau.
        top: f64,
        /// Time at which the rising edge starts.
        delay: Seconds,
        /// Rise time (linear ramp).
        rise: Seconds,
        /// Fall time (linear ramp).
        fall: Seconds,
        /// Plateau duration between the end of rise and start of fall.
        width: Seconds,
    },
    /// Piecewise-linear: interpolated between `(time, value)` knots; clamps
    /// to the first/last value outside the knot range.
    Pwl(Vec<(Seconds, f64)>),
}

impl Waveform {
    /// Convenience constructor for [`Waveform::Pulse`].
    ///
    /// # Panics
    ///
    /// Panics if any duration is negative or all of rise/width/fall are zero.
    #[must_use]
    pub fn pulse(
        base: f64,
        top: f64,
        delay: Seconds,
        rise: Seconds,
        fall: Seconds,
        width: Seconds,
    ) -> Self {
        assert!(
            delay.get() >= 0.0 && rise.get() >= 0.0 && fall.get() >= 0.0 && width.get() >= 0.0,
            "pulse durations must be non-negative"
        );
        assert!(
            rise.get() + fall.get() + width.get() > 0.0,
            "pulse must have nonzero extent"
        );
        Waveform::Pulse {
            base,
            top,
            delay,
            rise,
            fall,
            width,
        }
    }

    /// Convenience constructor for [`Waveform::Pwl`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than two knots are given or times are not strictly
    /// ascending.
    #[must_use]
    pub fn pwl(knots: Vec<(Seconds, f64)>) -> Self {
        assert!(knots.len() >= 2, "PWL needs at least two knots");
        for pair in knots.windows(2) {
            assert!(
                pair[1].0 > pair[0].0,
                "PWL knot times must be strictly ascending"
            );
        }
        Waveform::Pwl(knots)
    }

    /// The waveform value at time `t`.
    #[must_use]
    pub fn value_at(&self, t: Seconds) -> f64 {
        match self {
            Waveform::Dc(value) => *value,
            Waveform::Pulse {
                base,
                top,
                delay,
                rise,
                fall,
                width,
            } => {
                let t = t.get();
                let rise_start = delay.get();
                let rise_end = rise_start + rise.get();
                let fall_start = rise_end + width.get();
                let fall_end = fall_start + fall.get();
                if t <= rise_start || t >= fall_end {
                    *base
                } else if t < rise_end {
                    base + (top - base) * (t - rise_start) / (rise_end - rise_start)
                } else if t <= fall_start {
                    *top
                } else {
                    top + (base - top) * (t - fall_start) / (fall_end - fall_start)
                }
            }
            Waveform::Pwl(knots) => PwlPoint::locate(knots, t).value(knots),
        }
    }
}

impl Waveform {
    /// The same waveform with every value multiplied by `factor` — the
    /// Monte-Carlo idiom for folding per-trial drive variation into a batch
    /// member without touching the circuit matrix.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Waveform {
        match self {
            Waveform::Dc(value) => Waveform::Dc(value * factor),
            Waveform::Pulse {
                base,
                top,
                delay,
                rise,
                fall,
                width,
            } => Waveform::Pulse {
                base: base * factor,
                top: top * factor,
                delay: *delay,
                rise: *rise,
                fall: *fall,
                width: *width,
            },
            Waveform::Pwl(knots) => Waveform::Pwl(
                knots
                    .iter()
                    .map(|&(time, value)| (time, value * factor))
                    .collect(),
            ),
        }
    }
}

/// Where a time falls on a PWL's knot times: everything
/// [`Waveform::value_at`] derives from the times alone. Any PWL with
/// bit-equal knot times reads the same point, so a batch whose lanes share
/// their knot times searches the segment once per step
/// ([`PwlPoint::value`] is then exactly `value_at`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum PwlPoint {
    /// Clamped to the value of this knot (before the first, after the last).
    Knot(usize),
    /// Inside the segment ending at knot `upper`, at `frac = (t − t0)/(t1 − t0)`.
    Between { upper: usize, frac: f64 },
}

impl PwlPoint {
    /// Locates `t` on `knots` (at least two, strictly ascending times).
    pub(crate) fn locate(knots: &[(Seconds, f64)], t: Seconds) -> Self {
        if t <= knots[0].0 {
            return PwlPoint::Knot(0);
        }
        if t >= knots[knots.len() - 1].0 {
            return PwlPoint::Knot(knots.len() - 1);
        }
        let upper = knots.partition_point(|(time, _)| *time < t);
        let (t0, t1) = (knots[upper - 1].0, knots[upper].0);
        PwlPoint::Between {
            upper,
            frac: (t - t0) / (t1 - t0),
        }
    }

    /// The value of `knots` at this point; `knots` must have the knot
    /// times this point was located on.
    #[inline]
    pub(crate) fn value(self, knots: &[(Seconds, f64)]) -> f64 {
        match self {
            PwlPoint::Knot(index) => knots[index].1,
            PwlPoint::Between { upper, frac } => {
                let (v0, v1) = (knots[upper - 1].1, knots[upper].1);
                v0 + (v1 - v0) * frac
            }
        }
    }
}

impl From<f64> for Waveform {
    fn from(value: f64) -> Self {
        Waveform::Dc(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nanos(t: f64) -> Seconds {
        Seconds::from_nano(t)
    }

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(1.5);
        assert_eq!(w.value_at(Seconds::ZERO), 1.5);
        assert_eq!(w.value_at(nanos(100.0)), 1.5);
    }

    #[test]
    fn pulse_edges_interpolate() {
        let w = Waveform::pulse(0.0, 2.0, nanos(1.0), nanos(2.0), nanos(2.0), nanos(3.0));
        assert_eq!(w.value_at(nanos(0.5)), 0.0);
        assert!((w.value_at(nanos(2.0)) - 1.0).abs() < 1e-12); // mid-rise
        assert_eq!(w.value_at(nanos(4.0)), 2.0); // plateau
        assert!((w.value_at(nanos(7.0)) - 1.0).abs() < 1e-12); // mid-fall
        assert_eq!(w.value_at(nanos(9.0)), 0.0); // after
    }

    #[test]
    fn pulse_with_negative_top_peaks_correctly() {
        let w = Waveform::pulse(0.0, -3.0, nanos(0.0), nanos(1.0), nanos(1.0), nanos(1.0));
        assert_eq!(w.value_at(nanos(0.5)), -1.5); // mid-rise
        assert_eq!(w.value_at(nanos(1.5)), -3.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl(vec![
            (nanos(1.0), 0.0),
            (nanos(3.0), 4.0),
            (nanos(5.0), 2.0),
        ]);
        assert_eq!(w.value_at(nanos(0.0)), 0.0); // clamp before
        assert!((w.value_at(nanos(2.0)) - 2.0).abs() < 1e-12); // first segment midpoint
        assert!((w.value_at(nanos(4.0)) - 3.0).abs() < 1e-12); // second segment midpoint
        assert_eq!(w.value_at(nanos(9.0)), 2.0); // clamp after
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn pwl_rejects_duplicate_times() {
        let _ = Waveform::pwl(vec![(nanos(1.0), 0.0), (nanos(1.0), 2.0)]);
    }

    #[test]
    #[should_panic(expected = "nonzero extent")]
    fn pulse_rejects_zero_extent() {
        let _ = Waveform::pulse(
            0.0,
            1.0,
            nanos(1.0),
            Seconds::ZERO,
            Seconds::ZERO,
            Seconds::ZERO,
        );
    }

    #[test]
    fn from_f64_builds_dc() {
        let w: Waveform = 0.7.into();
        assert_eq!(w, Waveform::Dc(0.7));
    }

    #[test]
    fn scaled_multiplies_values_but_not_times() {
        assert_eq!(Waveform::Dc(2.0).scaled(1.5), Waveform::Dc(3.0));
        let pulse = Waveform::pulse(0.5, 2.0, nanos(1.0), nanos(1.0), nanos(1.0), nanos(4.0));
        let scaled = pulse.scaled(2.0);
        assert_eq!(scaled.value_at(nanos(0.0)), 1.0);
        assert_eq!(scaled.value_at(nanos(3.0)), 4.0);
        assert_eq!(
            scaled.value_at(nanos(2.0)),
            2.0 * pulse.value_at(nanos(2.0))
        );
        let pwl = Waveform::pwl(vec![(nanos(1.0), 1.0), (nanos(2.0), -2.0)]);
        let scaled = pwl.scaled(0.5);
        assert_eq!(scaled.value_at(nanos(1.0)), 0.5);
        assert_eq!(scaled.value_at(nanos(2.0)), -1.0);
    }

    proptest! {
        #[test]
        fn prop_pulse_bounded_by_base_and_top(
            base in -5.0f64..5.0, top in -5.0f64..5.0, t in 0.0f64..20e-9,
        ) {
            let w = Waveform::pulse(base, top, nanos(1.0), nanos(1.0), nanos(1.0), nanos(4.0));
            let v = w.value_at(Seconds::new(t));
            let (lo, hi) = if base <= top { (base, top) } else { (top, base) };
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }

        #[test]
        fn prop_pwl_bounded_by_knots(t in 0.0f64..10e-9) {
            let w = Waveform::pwl(vec![
                (nanos(1.0), -1.0), (nanos(2.0), 3.0), (nanos(6.0), 0.5),
            ]);
            let v = w.value_at(Seconds::new(t));
            prop_assert!((-1.0..=3.0).contains(&v));
        }
    }
}
