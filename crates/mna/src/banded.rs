//! Banded linear algebra for ladder-structured MNA systems.
//!
//! The paper's distributed bit-lines (Figs. 5/10) stamp as
//! tridiagonal-plus-bordered systems: after a reverse Cuthill–McKee
//! reordering (see `Circuit::bandwidth_report`)
//! every matrix entry lives within a few diagonals of the main one. A dense
//! LU pays O(n³) to factor and O(n²) to back-substitute regardless; the
//! banded storage here factors in O(n·b²) and solves in at most O(n·b),
//! which is what lets thousand-segment bit-lines simulate interactively.
//! The solves stop each column at its last nonzero factor entry (see
//! [`BandedLu`]), so a ladder whose band is mostly fill headroom pays only
//! for the entries it really has.
//!
//! Storage follows LAPACK's band convention (`dgbtrf`): column-major, with
//! entry `(i, j)` at `data[j·stride + (i − j + kl + ku)]`. Partial pivoting
//! introduces fill in up to `kl` extra superdiagonals, so the stride is
//! `2·kl + ku + 1` and the upper bandwidth after factorisation is `kl + ku`.

use crate::matrix::{Matrix, SingularMatrixError};

/// A square banded matrix with `kl` subdiagonals and `ku` superdiagonals,
/// stored in LAPACK band layout with room for partial-pivoting fill.
///
/// # Examples
///
/// ```
/// use stt_mna::banded::{BandedLu, BandedMatrix};
///
/// // The tridiagonal [2 -1; -1 2 -1; -1 2].
/// let mut a = BandedMatrix::zeros(3, 1, 1);
/// for k in 0..3 {
///     a.stamp(k, k, 2.0);
/// }
/// for k in 0..2 {
///     a.stamp(k, k + 1, -1.0);
///     a.stamp(k + 1, k, -1.0);
/// }
/// let lu = BandedLu::factor(a).expect("nonsingular");
/// let mut x = [4.0, 0.0, 0.0];
/// lu.solve_in_place(&mut x).expect("factored");
/// assert!((x[0] - 3.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// assert!((x[2] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandedMatrix {
    n: usize,
    kl: usize,
    ku: usize,
    /// Column-major band storage, `stride = 2·kl + ku + 1` rows per column.
    data: Vec<f64>,
}

impl BandedMatrix {
    /// Creates an `n × n` banded zero matrix with `kl` subdiagonals and
    /// `ku` superdiagonals.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        let stride = 2 * kl + ku + 1;
        Self {
            n,
            kl,
            ku,
            data: vec![0.0; n * stride],
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    #[inline]
    fn stride(&self) -> usize {
        2 * self.kl + self.ku + 1
    }

    /// Storage slot of `(i, j)`; valid for `j − (kl + ku) ≤ i ≤ j + kl`
    /// (the structural band plus the pivoting-fill superdiagonals).
    #[inline]
    fn slot(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n && j < self.n);
        debug_assert!(i + self.kl + self.ku >= j && i <= j + self.kl);
        j * self.stride() + (i + self.kl + self.ku - j)
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[self.slot(i, j)]
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, value: f64) {
        let slot = self.slot(i, j);
        self.data[slot] = value;
    }

    /// Entry `(i, j)`, reading zeros outside the stored band.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i + self.kl + self.ku < j || i > j + self.kl {
            0.0
        } else {
            self.at(i, j)
        }
    }

    /// Adds `value` to entry `(i, j)` — the MNA "stamp" primitive.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the *structural* band
    /// (`i − j > kl` or `j − i > ku`): a stamp out there means the declared
    /// bandwidth is wrong, which must fail loudly rather than corrupt the
    /// fill area.
    pub fn stamp(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        assert!(
            i <= j + self.kl && j <= i + self.ku,
            "stamp at ({i}, {j}) outside the declared band (kl={}, ku={})",
            self.kl,
            self.ku
        );
        let slot = self.slot(i, j);
        self.data[slot] += value;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Overwrites this matrix with the entries of `source` without
    /// reallocating (the stamp-plan fast path).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions or bandwidths differ.
    pub fn copy_from(&mut self, source: &BandedMatrix) {
        assert!(
            self.n == source.n && self.kl == source.kl && self.ku == source.ku,
            "copy_from needs matching dimensions and bandwidths"
        );
        self.data.copy_from_slice(&source.data);
    }

    /// Expands to a dense [`Matrix`] (tests and debugging).
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut dense = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            let lo = j.saturating_sub(self.ku);
            let hi = (j + self.kl).min(self.n - 1);
            for i in lo..=hi {
                dense[(i, j)] = self.at(i, j);
            }
        }
        dense
    }
}

/// A partially pivoted banded LU factorisation (LAPACK `dgbtrf` scheme),
/// reusable across right-hand sides — the banded counterpart of
/// [`LuFactors`](crate::matrix::LuFactors).
///
/// Factor cost is O(n·kl·(kl + ku)). Each factorisation records, per
/// elimination column `k`, how far column `k` of L and row `k` of U reach
/// before only exact zeros remain, and the solves stop there, so a solve
/// costs O(Σ reach) ≤ O(n·(kl + kl + ku)). A term cut off that way is
/// `e -= 0·v` with `v` finite, which leaves `e` unchanged unless `e` is −0
/// and the product −0 (where it would yield +0): the same terms the dense
/// LU runs for every zero of the full matrix. The pivot acceptance threshold
/// and the [`SingularMatrixError::column`] semantics are identical to the
/// dense path (pinned by the shared error-contract test), so backends can
/// be swapped without changing failure reporting.
#[derive(Debug, Clone)]
pub struct BandedLu {
    matrix: BandedMatrix,
    /// `ipiv[k]` = row swapped into position `k` at elimination step `k`.
    ipiv: Vec<usize>,
    /// `lower[k]`: rows below the diagonal that column `k` of L reaches,
    /// up to its last nonzero multiplier (`≤ kl`).
    lower: Vec<usize>,
    /// `upper[k]`: columns right of the diagonal that row `k` of U
    /// reaches, up to its last nonzero entry (`≤ kl + ku`).
    upper: Vec<usize>,
}

impl BandedLu {
    /// Factors a banded matrix, consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when an elimination column has no
    /// usable pivot; `column` is the elimination index, exactly as the
    /// dense path reports it.
    pub fn factor(matrix: BandedMatrix) -> Result<Self, SingularMatrixError> {
        let n = matrix.n;
        let mut lu = Self {
            matrix,
            ipiv: (0..n).collect(),
            lower: vec![0; n],
            upper: vec![0; n],
        };
        lu.factor_in_place()?;
        Ok(lu)
    }

    /// Creates an unfactored workspace for [`BandedLu::refactor`]. Solving
    /// against a never-refactored workspace yields garbage; callers own the
    /// factored/unfactored state (same contract as the dense workspace).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn workspace(n: usize, kl: usize, ku: usize) -> Self {
        Self {
            matrix: BandedMatrix::zeros(n, kl, ku),
            ipiv: (0..n).collect(),
            lower: vec![0; n],
            upper: vec![0; n],
        }
    }

    /// Refactors from `source` in place, reusing this workspace's
    /// allocations.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when no usable pivot exists; the
    /// workspace contents are then unspecified but safe to refactor again.
    ///
    /// # Panics
    ///
    /// Panics if `source`'s dimension or bandwidths differ from the
    /// workspace's.
    pub fn refactor(&mut self, source: &BandedMatrix) -> Result<(), SingularMatrixError> {
        self.matrix.copy_from(source);
        for (k, slot) in self.ipiv.iter_mut().enumerate() {
            *slot = k;
        }
        self.factor_in_place()
    }

    fn factor_in_place(&mut self) -> Result<(), SingularMatrixError> {
        let n = self.matrix.n;
        let kl = self.matrix.kl;
        let uw = self.matrix.kl + self.matrix.ku; // upper width incl. fill
        for k in 0..n {
            // Partial pivot over the (at most kl) subdiagonal rows that are
            // structurally nonzero in column k. `>=` keeps the *last*
            // maximum on ties, matching the dense path's `max_by`.
            let reach = kl.min(n - 1 - k);
            let mut pivot_row = k;
            let mut pivot_mag = self.matrix.at(k, k).abs();
            for i in (k + 1)..=(k + reach) {
                let mag = self.matrix.at(i, k).abs();
                if mag >= pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_mag < f64::MIN_POSITIVE * 1e4 {
                return Err(SingularMatrixError { column: k });
            }
            self.ipiv[k] = pivot_row;
            let jmax = (k + uw).min(n - 1);
            if pivot_row != k {
                for j in k..=jmax {
                    let tmp = self.matrix.at(k, j);
                    let other = self.matrix.at(pivot_row, j);
                    self.matrix.set(k, j, other);
                    self.matrix.set(pivot_row, j, tmp);
                }
            }
            let pivot = self.matrix.at(k, k);
            for i in (k + 1)..=(k + reach) {
                let factor = self.matrix.at(i, k) / pivot;
                self.matrix.set(i, k, factor);
                for j in (k + 1)..=jmax {
                    let updated = self.matrix.at(i, j) - factor * self.matrix.at(k, j);
                    self.matrix.set(i, j, updated);
                }
            }
            // Column k of L and row k of U are final from here on: later
            // steps only swap and update rows below k.
            self.lower[k] = (1..=reach)
                .rev()
                .find(|&d| self.matrix.at(k + d, k) != 0.0)
                .unwrap_or(0);
            self.upper[k] = (1..=jmax - k)
                .rev()
                .find(|&d| self.matrix.at(k, k + d) != 0.0)
                .unwrap_or(0);
        }
        Ok(())
    }

    /// Solves `A·x = b` in place: `x` holds `b` on entry and the solution
    /// on exit.
    ///
    /// # Errors
    ///
    /// Infallible once factored; the `Result` mirrors the dense path so
    /// call sites can share error handling.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the matrix dimension.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<(), SingularMatrixError> {
        // Dedicated single-RHS kernel: the same operation sequence as
        // `solve_multi_in_place` with width 1 (bit-identical results —
        // pinned by the unit tests below) minus the per-element inner
        // width loop, which costs real time in the transient hot path.
        let n = self.matrix.n;
        assert_eq!(x.len(), n, "solution buffer dimension mismatch");
        // Apply the row interchanges and the unit-diagonal L factor.
        for k in 0..n {
            let p = self.ipiv[k];
            if p != k {
                x.swap(k, p);
            }
            for i in (k + 1)..=(k + self.lower[k]) {
                x[i] -= self.matrix.at(i, k) * x[k];
            }
        }
        // Back-substitution against U, each row up to its last nonzero.
        for k in (0..n).rev() {
            for j in (k + 1)..=(k + self.upper[k]) {
                x[k] -= self.matrix.at(k, j) * x[j];
            }
            x[k] /= self.matrix.at(k, k);
        }
        Ok(())
    }

    /// Solves `A·X = B` for `width` right-hand sides at once, in place.
    ///
    /// `x` is structure-of-arrays: entry `row·width + m` is row `row` of
    /// member `m`. One factorisation serves all members, and per member the
    /// floating-point operation sequence is identical to
    /// [`BandedLu::solve_in_place`] — the batched transient's bit-identity
    /// guarantee rests on that.
    ///
    /// # Errors
    ///
    /// Infallible once factored; the `Result` mirrors the dense path.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `x.len() != n·width`.
    pub fn solve_multi_in_place(
        &self,
        x: &mut [f64],
        width: usize,
    ) -> Result<(), SingularMatrixError> {
        let n = self.matrix.n;
        assert!(width > 0, "need at least one right-hand side");
        assert_eq!(x.len(), n * width, "solution buffer dimension mismatch");
        // Row updates run over whole width-long row slices, so the inner
        // loops carry no bounds checks and vectorise; per member the
        // operations and their order are those of the scalar kernel.
        // Apply the row interchanges and the unit-diagonal L factor.
        for k in 0..n {
            let p = self.ipiv[k];
            let (done, rest) = x.split_at_mut((k + 1) * width);
            let pivot = &mut done[k * width..];
            if p != k {
                pivot.swap_with_slice(&mut rest[(p - k - 1) * width..(p - k) * width]);
            }
            for (i, row) in (k + 1..).zip(rest.chunks_exact_mut(width).take(self.lower[k])) {
                let factor = self.matrix.at(i, k);
                for (entry, &above) in row.iter_mut().zip(&*pivot) {
                    *entry -= factor * above;
                }
            }
        }
        // Back-substitution against U, each row up to its last nonzero.
        for k in (0..n).rev() {
            let (head, solved) = x.split_at_mut((k + 1) * width);
            let row = &mut head[k * width..];
            for (j, below) in (k + 1..).zip(solved.chunks_exact(width).take(self.upper[k])) {
                let upper = self.matrix.at(k, j);
                for (entry, &value) in row.iter_mut().zip(below) {
                    *entry -= upper * value;
                }
            }
            let diag = self.matrix.at(k, k);
            for entry in row {
                *entry /= diag;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::LuFactors;
    use crate::{Circuit, Integrator, Node, SwitchSchedule, Waveform};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use stt_units::{Farads, Ohms, Seconds};

    /// Deterministic pseudo-random values in `[-1, 1)` (splitmix64 bits).
    fn noise(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn random_banded(n: usize, kl: usize, ku: usize, seed: &mut u64) -> BandedMatrix {
        let mut m = BandedMatrix::zeros(n, kl, ku);
        for i in 0..n {
            let lo = i.saturating_sub(kl);
            let hi = (i + ku).min(n - 1);
            let mut row_sum = 0.0;
            for j in lo..=hi {
                if j != i {
                    let v = noise(seed);
                    m.stamp(i, j, v);
                    row_sum += v.abs();
                }
            }
            // Diagonal dominance guarantees nonsingularity.
            m.stamp(i, i, row_sum + 1.0 + noise(seed).abs());
        }
        m
    }

    #[test]
    fn tridiagonal_solve_matches_dense() {
        let mut seed = 7u64;
        for n in [1usize, 2, 5, 17, 64] {
            for (kl, ku) in [(0, 0), (1, 1), (2, 1), (1, 3), (3, 3)] {
                let banded = random_banded(n, kl, ku, &mut seed);
                let dense = banded.to_dense();
                let b: Vec<f64> = (0..n).map(|_| noise(&mut seed)).collect();
                let expected = dense.solve(&b).expect("diagonally dominant");
                let lu = BandedLu::factor(banded).expect("diagonally dominant");
                let mut x = b.clone();
                lu.solve_in_place(&mut x).expect("factored");
                for (got, want) in x.iter().zip(&expected) {
                    assert!(
                        (got - want).abs() < 1e-9 * want.abs().max(1.0),
                        "n={n} kl={kl} ku={ku}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn pivoting_handles_small_diagonal() {
        // Diagonal entry far below its subdiagonal: without pivoting this
        // loses all precision.
        let mut m = BandedMatrix::zeros(3, 1, 1);
        m.stamp(0, 0, 1e-18);
        m.stamp(0, 1, 1.0);
        m.stamp(1, 0, 1.0);
        m.stamp(1, 1, 1.0);
        m.stamp(1, 2, 1.0);
        m.stamp(2, 1, 1.0);
        m.stamp(2, 2, 3.0);
        let dense = m.to_dense();
        let b = [1.0, 2.0, 3.0];
        let expected = dense.solve(&b).expect("nonsingular");
        let lu = BandedLu::factor(m).expect("nonsingular");
        let mut x = b;
        lu.solve_in_place(&mut x).expect("factored");
        for (got, want) in x.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    /// A banded matrix whose diagonal is small next to its subdiagonals,
    /// so partial pivoting interchanges rows wherever `kl > 0`.
    fn pivoting_banded(n: usize, kl: usize, ku: usize, seed: &mut u64) -> BandedMatrix {
        let mut m = BandedMatrix::zeros(n, kl, ku);
        for i in 0..n {
            let lo = i.saturating_sub(kl);
            let hi = (i + ku).min(n - 1);
            for j in lo..=hi {
                let v = noise(seed);
                let v = if j == i {
                    1e-3 * v
                } else {
                    v.signum() * (0.5 + v.abs())
                };
                m.stamp(i, j, v);
            }
        }
        m
    }

    /// The widths the batched solve must handle: single lanes, vector
    /// multiples, the campaign width, and widths with a ragged tail.
    const WIDTHS: [usize; 6] = [1, 2, 5, 8, 64, 67];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn multi_rhs_bit_identical_to_single(
            seed in 0u64..u64::MAX,
            n in 1usize..40,
            kl in 0usize..4,
            ku in 0usize..4,
            width in 0usize..6,
        ) {
            let width = WIDTHS[width];
            let mut seed = seed;
            let Ok(lu) = BandedLu::factor(pivoting_banded(n, kl, ku, &mut seed)) else {
                return Err(TestCaseError::Reject("singular draw".into()));
            };
            if kl > 0 && n > 1 {
                prop_assert!(
                    lu.ipiv.iter().enumerate().any(|(k, &p)| p != k),
                    "no row interchange to check"
                );
            }
            let rhs: Vec<Vec<f64>> = (0..width)
                .map(|_| (0..n).map(|_| noise(&mut seed)).collect())
                .collect();
            // Batched solve in SoA layout.
            let mut soa = vec![0.0; n * width];
            for (m, b) in rhs.iter().enumerate() {
                for (row, &value) in b.iter().enumerate() {
                    soa[row * width + m] = value;
                }
            }
            lu.solve_multi_in_place(&mut soa, width).expect("factored");
            // Each column must match a standalone solve to the last bit.
            for (m, b) in rhs.iter().enumerate() {
                let mut single = b.clone();
                lu.solve_in_place(&mut single).expect("factored");
                for (row, &want) in single.iter().enumerate() {
                    let got = soa[row * width + m];
                    prop_assert!(
                        got.to_bits() == want.to_bits(),
                        "member {m} row {row} diverged: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn workspace_refactor_matches_fresh_factor() {
        let mut seed = 3u64;
        let a = random_banded(12, 2, 1, &mut seed);
        let b: Vec<f64> = (0..12).map(|_| noise(&mut seed)).collect();
        let fresh = BandedLu::factor(a.clone()).expect("dominant");
        let mut x_fresh = b.clone();
        fresh.solve_in_place(&mut x_fresh).expect("factored");
        let mut ws = BandedLu::workspace(12, 2, 1);
        ws.refactor(&a).expect("dominant");
        ws.refactor(&a).expect("refactor over stale state");
        let mut x_ws = b;
        ws.solve_in_place(&mut x_ws).expect("factored");
        assert_eq!(x_fresh, x_ws, "identical bits expected");
    }

    #[test]
    fn singular_error_matches_dense_column() {
        // The shared error contract (ISSUE 8 satellite): for the same
        // singular matrix, the banded and dense paths must report the same
        // elimination column.
        // Case 1: a structurally zero column.
        for zero_col in [0usize, 2, 4] {
            let mut m = BandedMatrix::zeros(5, 1, 1);
            for i in 0..5usize {
                let lo = i.saturating_sub(1);
                let hi = (i + 1).min(4);
                for j in lo..=hi {
                    if j != zero_col {
                        m.stamp(i, j, if i == j { 4.0 } else { -1.0 });
                    }
                }
            }
            let dense_err = LuFactors::factor(m.to_dense()).expect_err("singular");
            let banded_err = BandedLu::factor(m).expect_err("singular");
            assert_eq!(banded_err, dense_err, "zero column {zero_col}");
            assert_eq!(banded_err.column, zero_col);
        }
        // Case 2: proportional columns (col 2 = 2·col 1), so the rank
        // deficiency only surfaces mid-elimination — including a pivot tie
        // at step 1 that both tie-breaking rules must resolve identically.
        let mut m = BandedMatrix::zeros(4, 1, 1);
        for (i, j, v) in [
            (0, 0, 2.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (1, 2, 2.0),
            (2, 1, 1.0),
            (2, 2, 2.0),
            (3, 3, 2.0),
        ] {
            m.stamp(i, j, v);
        }
        let dense_err = LuFactors::factor(m.to_dense()).expect_err("singular");
        let banded_err = BandedLu::factor(m).expect_err("singular");
        assert_eq!(banded_err, dense_err);
        assert_eq!(banded_err.column, 2);
    }

    /// The linear Fig. 5 read line (`stt_bench::montecarlo::fig5_linear_circuit`
    /// at 32 segments, its read current held at DC, which the matrix does
    /// not see): a current driver into a 32-segment RC bit line that ends in
    /// the lumped cell, C1 switched onto the line during 2–12 ns and the
    /// 10 MΩ + 10 MΩ divider during 12–27 ns. Nodes in line order, so
    /// the banded backend keeps the natural order: driver, bl0..bl31,
    /// c1_top, div_top, v_bo.
    fn fig5_line() -> Circuit {
        let segments = 32;
        let mut circuit = Circuit::new();
        let driver = circuit.node("driver");
        circuit.current_source(driver, Node::GROUND, Waveform::Dc(50e-6));
        let mut bl = driver;
        for k in 0..segments {
            let next = circuit.node(&format!("bl{k}"));
            circuit.resistor(bl, next, Ohms::new(640.0 / segments as f64));
            circuit.capacitor(
                next,
                Node::GROUND,
                Farads::from_femto(192.0 / segments as f64),
            );
            bl = next;
        }
        circuit.resistor(bl, Node::GROUND, Ohms::from_kilo(3.3));
        let c1_top = circuit.node("c1_top");
        let during = |from: f64, to: f64| {
            SwitchSchedule::closed_during(Seconds::from_nano(from), Seconds::from_nano(to))
        };
        let (r_on, r_off) = (Ohms::new(200.0), Ohms::from_mega(2000.0));
        circuit.switch(bl, c1_top, r_on, r_off, during(2.0, 12.0));
        circuit.capacitor(c1_top, Node::GROUND, Farads::from_femto(25.0));
        let div_top = circuit.node("div_top");
        let v_bo = circuit.node("v_bo");
        circuit.switch(bl, div_top, r_on, r_off, during(12.0, 27.0));
        circuit.resistor(div_top, v_bo, Ohms::from_mega(10.0));
        circuit.resistor(v_bo, Node::GROUND, Ohms::from_mega(10.0));
        circuit
    }

    /// Overwrites every stored factor entry past its column's recorded
    /// reach with NaN: a solve that reads past a reach then returns NaN.
    fn poison_past_reaches(lu: &mut BandedLu) {
        let n = lu.matrix.n;
        let (kl, uw) = (lu.matrix.kl, lu.matrix.kl + lu.matrix.ku);
        for k in 0..n {
            for d in lu.lower[k] + 1..=kl.min(n - 1 - k) {
                lu.matrix.set(k + d, k, f64::NAN);
            }
            for d in lu.upper[k] + 1..=uw.min(n - 1 - k) {
                lu.matrix.set(k, k + d, f64::NAN);
            }
        }
    }

    /// Solves `lu` and its poisoned copy, scalar and at widths 1, 3 and 64,
    /// and requires the same bits from both: the solves read nothing past
    /// the recorded reaches.
    fn assert_solves_stop_at_reaches(lu: &BandedLu, seed: &mut u64) {
        let n = lu.matrix.n;
        let mut poisoned = lu.clone();
        poison_past_reaches(&mut poisoned);
        let b: Vec<f64> = (0..n).map(|_| noise(seed)).collect();
        let (mut want, mut got) = (b.clone(), b);
        lu.solve_in_place(&mut want).expect("factored");
        poisoned.solve_in_place(&mut got).expect("factored");
        assert!(want.iter().all(|v| v.is_finite()));
        assert_eq!(got, want, "the scalar solve read past a reach");
        for width in [1, 3, 64] {
            let b: Vec<f64> = (0..n * width).map(|_| noise(seed)).collect();
            let (mut want, mut got) = (b.clone(), b);
            lu.solve_multi_in_place(&mut want, width).expect("factored");
            poisoned
                .solve_multi_in_place(&mut got, width)
                .expect("factored");
            assert_eq!(got, want, "the width-{width} solve read past a reach");
        }
    }

    /// The solve work of the Fig. 5 line, pinned as a count: in every
    /// switch phase and under both integrators, column k of L and row k of
    /// U reach one entry past the diagonal everywhere outside the
    /// switch/divider tail. The band is kl = ku = 2 wide (the two switches
    /// leave bl31), so the full-band loops would run 2 and 4 entries.
    #[test]
    fn fig5_line_reaches_are_pinned() {
        let circuit = fig5_line();
        // Columns 0..=31 (driver, bl0..bl30) reach 1. bl31 reaches both
        // switches; eliminating it fills (c1_top, div_top), which then
        // reach 1 as does div_top → v_bo; v_bo ends the matrix.
        let mut reaches = vec![1; 32];
        reaches.extend([2, 1, 1, 0]);
        let mut seed = 11u64;
        for t in [1.0, 7.0, 20.0, 29.0] {
            for integrator in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
                let matrix = circuit.banded_step_matrix(Seconds::from_nano(t), 50e-12, integrator);
                assert_eq!((matrix.n, matrix.kl, matrix.ku), (36, 2, 2));
                let lu = BandedLu::factor(matrix).expect("nonsingular");
                assert!(lu.ipiv.iter().enumerate().all(|(k, &p)| p == k));
                assert_eq!(lu.lower, reaches, "L reaches at {t} ns, {integrator:?}");
                assert_eq!(lu.upper, reaches, "U reaches at {t} ns, {integrator:?}");
                assert_solves_stop_at_reaches(&lu, &mut seed);
            }
        }
    }

    /// A full random band keeps its whole width: L reaches `kl` and, once
    /// a pivot swap brings up a row from the bottom of the band, U reaches
    /// `kl + ku`.
    #[test]
    fn full_bands_reach_their_width() {
        let mut seed = 5u64;
        for (kl, ku) in [(1, 1), (2, 1), (1, 3), (3, 2)] {
            let n = 40;
            let lu = BandedLu::factor(pivoting_banded(n, kl, ku, &mut seed)).expect("nonsingular");
            for k in 0..n {
                assert_eq!(lu.lower[k], kl.min(n - 1 - k), "column {k}");
                assert!(lu.upper[k] <= (kl + ku).min(n - 1 - k), "row {k}");
            }
            assert_eq!(lu.upper.iter().max(), Some(&(kl + ku)));
            assert_solves_stop_at_reaches(&lu, &mut seed);
        }
    }

    #[test]
    #[should_panic(expected = "outside the declared band")]
    fn stamp_outside_band_panics() {
        let mut m = BandedMatrix::zeros(5, 1, 1);
        m.stamp(0, 3, 1.0);
    }

    #[test]
    fn to_dense_round_trips_band_entries() {
        let mut m = BandedMatrix::zeros(4, 1, 2);
        m.stamp(2, 1, -3.5);
        m.stamp(1, 3, 2.25);
        m.stamp(0, 0, 1.0);
        let dense = m.to_dense();
        assert_eq!(dense[(2, 1)], -3.5);
        assert_eq!(dense[(1, 3)], 2.25);
        assert_eq!(dense[(0, 0)], 1.0);
        assert_eq!(dense[(3, 0)], 0.0);
        assert_eq!(m.get(1, 3), 2.25);
        assert_eq!(m.get(3, 0), 0.0);
        assert_eq!(m.dim(), 4);
    }
}
