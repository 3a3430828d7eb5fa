//! Ordinary least-squares line fitting.
//!
//! Used to extract roll-off slopes (`dR/dI`) from simulated or tabulated
//! R–I sweeps — the quantity whose high/low-state asymmetry drives the
//! nondestructive self-reference scheme.

/// An ordinary least-squares fit `y ≈ slope·x + intercept`.
///
/// # Examples
///
/// ```
/// use stt_stats::LinearFit;
///
/// let xs = [0.0, 1.0, 2.0, 3.0];
/// let ys = [1.0, 3.0, 5.0, 7.0];
/// let fit = LinearFit::fit(&xs, &ys);
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// assert!((fit.r_squared - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
}

impl LinearFit {
    /// Fits a line to paired observations.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, have fewer than two points,
    /// or all `x` values coincide (the slope would be undefined).
    #[must_use]
    pub fn fit(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "x and y must pair up");
        assert!(xs.len() >= 2, "need at least two points to fit a line");
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let dx = x - mean_x;
            let dy = y - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        assert!(sxx > 0.0, "all x values coincide; slope undefined");
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let r_squared = if syy == 0.0 {
            // A perfectly flat response is perfectly explained by the
            // (flat) fitted line.
            1.0
        } else {
            (sxy * sxy) / (sxx * syy)
        };
        Self {
            slope,
            intercept,
            r_squared,
        }
    }
}

/// Pearson correlation coefficient of paired observations.
///
/// # Panics
///
/// Panics if the slices differ in length, have fewer than two points, or
/// either variable is constant (the coefficient is undefined).
///
/// # Examples
///
/// ```
/// use stt_stats::regression::pearson;
///
/// let xs = [1.0, 2.0, 3.0];
/// assert!((pearson(&xs, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
/// assert!((pearson(&xs, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "x and y must pair up");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        syy += dy * dy;
        sxy += dx * dy;
    }
    assert!(
        sxx > 0.0 && syy > 0.0,
        "correlation undefined for a constant variable"
    );
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fits_exact_line() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -3.5 * x + 2.0).collect();
        let fit = LinearFit::fit(&xs, &ys);
        assert!((fit.slope + 3.5).abs() < 1e-12);
        assert!((fit.intercept - 2.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_has_submaximal_r_squared() {
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(k, x)| 2.0 * x + if k % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let fit = LinearFit::fit(&xs, &ys);
        assert!((fit.slope - 2.0).abs() < 0.05);
        assert!(fit.r_squared < 1.0);
        assert!(fit.r_squared > 0.9);
    }

    #[test]
    fn flat_data_fits_flat_line() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [5.0, 5.0, 5.0];
        let fit = LinearFit::fit(&xs, &ys);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    #[should_panic(expected = "coincide")]
    fn rejects_degenerate_x() {
        let _ = LinearFit::fit(&[1.0, 1.0], &[0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn rejects_mismatched_lengths() {
        let _ = LinearFit::fit(&[1.0, 2.0, 3.0], &[0.0, 2.0]);
    }

    #[test]
    fn pearson_known_values() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&xs, &[10.0, 20.0, 30.0, 40.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        // Symmetric-but-dependent: zero linear correlation.
        let ys = [1.0, -1.0, -1.0, 1.0];
        assert!(pearson(&xs, &ys).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "constant variable")]
    fn pearson_rejects_constant_input() {
        let _ = pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]);
    }

    proptest! {
        #[test]
        fn prop_pearson_bounded(
            xs in proptest::collection::vec(-1e3f64..1e3, 3..50),
            seed in 0u64..100,
        ) {
            // Pair against a shuffled/perturbed copy; |r| ≤ 1 always.
            let ys: Vec<f64> = xs
                .iter()
                .enumerate()
                .map(|(k, x)| x * ((seed % 7) as f64 - 3.0) + (k as f64))
                .collect();
            let spread = |v: &[f64]| {
                v.iter().cloned().fold(f64::INFINITY, f64::min)
                    < v.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            };
            prop_assume!(spread(&xs) && spread(&ys));
            let r = pearson(&xs, &ys);
            prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&r));
        }


        #[test]
        fn prop_recovers_exact_lines(
            slope in -100.0f64..100.0,
            intercept in -100.0f64..100.0,
        ) {
            let xs: Vec<f64> = (0..8).map(f64::from).collect();
            let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
            let fit = LinearFit::fit(&xs, &ys);
            prop_assert!((fit.slope - slope).abs() < 1e-8 * (1.0 + slope.abs()));
            prop_assert!((fit.intercept - intercept).abs() < 1e-8 * (1.0 + intercept.abs()));
        }

        #[test]
        fn prop_r_squared_in_unit_interval(
            ys in proptest::collection::vec(-1e3f64..1e3, 3..40),
        ) {
            let xs: Vec<f64> = (0..ys.len()).map(|k| k as f64).collect();
            let fit = LinearFit::fit(&xs, &ys);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&fit.r_squared));
        }
    }
}
