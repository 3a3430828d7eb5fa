//! Dense linear algebra for the MNA solver.
//!
//! MNA systems for the sensing circuits in this workspace are small (tens of
//! unknowns), so a dense row-major matrix with partially pivoted LU is the
//! right tool — no sparse machinery, no external linear-algebra crate
//! (DESIGN.md: the Rust circuit ecosystem is thin, substrates are built here).

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major, square-or-rectangular `f64` matrix.
///
/// # Examples
///
/// ```
/// use stt_mna::matrix::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// let x = m.solve(&[6.0, 8.0]).expect("nonsingular");
/// assert_eq!(x, vec![3.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Error returned when a linear solve meets a (numerically) singular matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// The elimination column at which no usable pivot was found.
    pub column: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is singular to working precision (no pivot in column {})",
            self.column
        )
    }
}

impl std::error::Error for SingularMatrixError {}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for k in 0..n {
            m[(k, k)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Resets every entry to zero (reusing the allocation between Newton
    /// iterations).
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Overwrites this matrix with the entries of `source` without
    /// reallocating — the stamp-plan fast path copies the pre-stamped base
    /// matrix into the working matrix this way at every rebuild.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, source: &Matrix) {
        assert!(
            self.rows == source.rows && self.cols == source.cols,
            "copy_from needs matching dimensions"
        );
        self.data.copy_from_slice(&source.data);
    }

    /// Adds `value` to entry `(row, col)` — the MNA "stamp" primitive.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn stamp(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] += value;
    }

    /// Solves `A·x = b` by LU decomposition with partial pivoting.
    ///
    /// The matrix is left untouched (the factorisation works on a copy);
    /// for repeated solves against the same matrix use [`LuFactors`].
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if no usable pivot exists.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != rows`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        LuFactors::factor(self.clone())?.solve(b)
    }

    /// Solves `A·x = b` into caller-provided buffers: `lu` is refactored
    /// from this matrix (reusing its allocations) and the solution is
    /// written to `x`. The allocation-free counterpart of [`Matrix::solve`]
    /// for hot loops.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if no usable pivot exists.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or a buffer length mismatches.
    pub fn solve_into(
        &self,
        b: &[f64],
        lu: &mut LuFactors,
        x: &mut [f64],
    ) -> Result<(), SingularMatrixError> {
        lu.refactor(self)?;
        lu.solve_into(b, x)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

/// An LU factorisation (with partial pivoting) reusable across multiple
/// right-hand sides.
#[derive(Debug, Clone)]
pub struct LuFactors {
    matrix: Matrix,
    permutation: Vec<usize>,
}

impl LuFactors {
    /// Factors a square matrix in place.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when a pivot column is entirely
    /// (numerically) zero.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn factor(matrix: Matrix) -> Result<Self, SingularMatrixError> {
        assert_eq!(matrix.rows, matrix.cols, "LU needs a square matrix");
        let n = matrix.rows;
        let mut lu = Self {
            matrix,
            permutation: (0..n).collect(),
        };
        lu.factor_in_place()?;
        Ok(lu)
    }

    /// Creates an unfactored `n × n` workspace for [`LuFactors::refactor`].
    ///
    /// Solving against a workspace that was never successfully refactored
    /// yields garbage (the zero matrix divides by zero); callers own the
    /// factored/unfactored state.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn workspace(n: usize) -> Self {
        Self {
            matrix: Matrix::zeros(n, n),
            permutation: (0..n).collect(),
        }
    }

    /// Refactors from `source` in place, reusing this workspace's
    /// allocations: copies the matrix, resets the permutation, and runs the
    /// same elimination as [`LuFactors::factor`].
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when a pivot column is entirely
    /// (numerically) zero; the workspace contents are then unspecified but
    /// safe to refactor again.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not square or its dimension differs from the
    /// workspace's.
    pub fn refactor(&mut self, source: &Matrix) -> Result<(), SingularMatrixError> {
        assert_eq!(source.rows, source.cols, "LU needs a square matrix");
        self.matrix.copy_from(source);
        for (k, slot) in self.permutation.iter_mut().enumerate() {
            *slot = k;
        }
        self.factor_in_place()
    }

    fn factor_in_place(&mut self) -> Result<(), SingularMatrixError> {
        let matrix = &mut self.matrix;
        let n = matrix.rows;
        for k in 0..n {
            // Partial pivot: largest magnitude in column k at or below the
            // diagonal.
            let pivot_row = (k..n)
                .max_by(|&a, &b| {
                    matrix[(a, k)]
                        .abs()
                        .partial_cmp(&matrix[(b, k)].abs())
                        .expect("pivot comparison saw NaN")
                })
                .expect("non-empty pivot range");
            let pivot = matrix[(pivot_row, k)];
            if pivot.abs() < f64::MIN_POSITIVE * 1e4 {
                return Err(SingularMatrixError { column: k });
            }
            if pivot_row != k {
                for col in 0..n {
                    let tmp = matrix[(k, col)];
                    matrix[(k, col)] = matrix[(pivot_row, col)];
                    matrix[(pivot_row, col)] = tmp;
                }
                self.permutation.swap(k, pivot_row);
            }
            for row in (k + 1)..n {
                let factor = matrix[(row, k)] / pivot;
                matrix[(row, k)] = factor;
                for col in (k + 1)..n {
                    let subtract = factor * matrix[(k, col)];
                    matrix[(row, col)] -= subtract;
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Infallible once factored; the `Result` mirrors [`Matrix::solve`] so
    /// call sites can share error handling.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        let mut x = vec![0.0; self.matrix.rows];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` using the stored factors, writing the solution into
    /// `x` — no allocation, for the transient hot loop.
    ///
    /// # Errors
    ///
    /// Infallible once factored; the `Result` mirrors [`Matrix::solve`] so
    /// call sites can share error handling.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` does not match the matrix dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), SingularMatrixError> {
        let n = self.matrix.rows;
        assert_eq!(b.len(), n, "right-hand side dimension mismatch");
        assert_eq!(x.len(), n, "solution buffer dimension mismatch");
        // Apply permutation.
        for (slot, &row) in x.iter_mut().zip(&self.permutation) {
            *slot = b[row];
        }
        // Forward substitution (L has implicit unit diagonal).
        for row in 1..n {
            let mut sum = x[row];
            for (col, value) in x.iter().enumerate().take(row) {
                sum -= self.matrix[(row, col)] * value;
            }
            x[row] = sum;
        }
        // Backward substitution.
        for row in (0..n).rev() {
            let mut sum = x[row];
            for (offset, value) in x[(row + 1)..n].iter().enumerate() {
                sum -= self.matrix[(row, row + 1 + offset)] * value;
            }
            x[row] = sum / self.matrix[(row, row)];
        }
        Ok(())
    }

    /// Solves `A·X = B` for `width` right-hand sides at once.
    ///
    /// `b` and `x` are structure-of-arrays: entry `row·width + m` is row
    /// `row` of member `m`. Per member the floating-point operation sequence
    /// is identical to [`LuFactors::solve_into`], so a batched solve is
    /// bit-identical to `width` sequential solves — the batched transient's
    /// correctness contract.
    ///
    /// # Errors
    ///
    /// Infallible once factored; the `Result` mirrors [`Matrix::solve`] so
    /// call sites can share error handling.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or a buffer length is not `n·width`.
    pub fn solve_multi_into(
        &self,
        b: &[f64],
        x: &mut [f64],
        width: usize,
    ) -> Result<(), SingularMatrixError> {
        let n = self.matrix.rows;
        assert!(width > 0, "need at least one right-hand side");
        assert_eq!(b.len(), n * width, "right-hand side dimension mismatch");
        assert_eq!(x.len(), n * width, "solution buffer dimension mismatch");
        // Apply permutation (gather, as in the single-RHS path).
        for (slot, &row) in self.permutation.iter().enumerate() {
            x[slot * width..(slot + 1) * width].copy_from_slice(&b[row * width..(row + 1) * width]);
        }
        // Forward substitution (L has implicit unit diagonal).
        for row in 1..n {
            for col in 0..row {
                let factor = self.matrix[(row, col)];
                for m in 0..width {
                    x[row * width + m] -= factor * x[col * width + m];
                }
            }
        }
        // Backward substitution.
        for row in (0..n).rev() {
            for col in (row + 1)..n {
                let upper = self.matrix[(row, col)];
                for m in 0..width {
                    x[row * width + m] -= upper * x[col * width + m];
                }
            }
            let diag = self.matrix[(row, row)];
            for m in 0..width {
                x[row * width + m] /= diag;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Matrix–vector product `A·x`: the round-trip check of the solves.
    fn mul_vec(a: &Matrix, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), a.cols, "dimension mismatch in mul_vec");
        (0..a.rows)
            .map(|r| {
                let row = &a.data[r * a.cols..(r + 1) * a.cols];
                row.iter().zip(x).map(|(a, b)| a * b).sum()
            })
            .collect()
    }

    #[test]
    fn solves_small_system() {
        let mut a = Matrix::zeros(3, 3);
        let entries = [
            (0, 0, 2.0),
            (0, 1, 1.0),
            (0, 2, -1.0),
            (1, 0, -3.0),
            (1, 1, -1.0),
            (1, 2, 2.0),
            (2, 0, -2.0),
            (2, 1, 1.0),
            (2, 2, 2.0),
        ];
        for (r, c, v) in entries {
            a[(r, c)] = v;
        }
        let x = a.solve(&[8.0, -11.0, -3.0]).expect("nonsingular");
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn identity_solve_is_identity() {
        let eye = Matrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = eye.solve(&b).expect("identity is nonsingular");
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = a.solve(&[3.0, 7.0]).expect("permutation matrix");
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        let err = a.solve(&[1.0, 2.0]).expect_err("rank deficient");
        assert_eq!(err.column, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn stamp_accumulates() {
        let mut a = Matrix::zeros(2, 2);
        a.stamp(0, 0, 1.5);
        a.stamp(0, 0, 2.5);
        assert_eq!(a[(0, 0)], 4.0);
    }

    #[test]
    fn lu_factors_reusable_across_rhs() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 4.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 3.0;
        let lu = LuFactors::factor(a.clone()).expect("spd");
        for b in [[1.0, 0.0], [0.0, 1.0], [5.0, -2.0]] {
            let x = lu.solve(&b).expect("factored");
            let recovered = mul_vec(&a, &x);
            assert!((recovered[0] - b[0]).abs() < 1e-12);
            assert!((recovered[1] - b[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn refactor_workspace_matches_fresh_factorization() {
        let mut a = Matrix::zeros(3, 3);
        let entries = [
            (0, 0, 2.0),
            (0, 1, 1.0),
            (0, 2, -1.0),
            (1, 0, -3.0),
            (1, 1, -1.0),
            (1, 2, 2.0),
            (2, 0, -2.0),
            (2, 1, 1.0),
            (2, 2, 2.0),
        ];
        for (r, c, v) in entries {
            a[(r, c)] = v;
        }
        let mut lu = LuFactors::workspace(3);
        lu.refactor(&a).expect("nonsingular");
        let mut x = [0.0; 3];
        lu.solve_into(&[8.0, -11.0, -3.0], &mut x).expect("solve");
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
        // Refactoring over a used workspace (stale permutation, stale
        // factors) must give the same answer as a fresh factorization.
        let mut b = Matrix::zeros(2, 2);
        b[(0, 1)] = 1.0;
        b[(1, 0)] = 1.0;
        let mut lu = LuFactors::workspace(2);
        lu.refactor(&b).expect("permutation matrix");
        lu.refactor(&b).expect("second refactor over stale state");
        let mut x = [0.0; 2];
        lu.solve_into(&[3.0, 7.0], &mut x).expect("solve");
        assert_eq!(x, [7.0, 3.0]);
    }

    #[test]
    fn refactor_reports_singularity_like_factor() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        let mut lu = LuFactors::workspace(2);
        let err = lu.refactor(&a).expect_err("rank deficient");
        assert_eq!(err.column, 1);
    }

    #[test]
    fn copy_from_replaces_contents() {
        let mut src = Matrix::zeros(2, 2);
        src[(0, 1)] = 5.0;
        let mut dst = Matrix::identity(2);
        dst.copy_from(&src);
        assert_eq!(dst[(0, 0)], 0.0);
        assert_eq!(dst[(0, 1)], 5.0);
    }

    #[test]
    fn solve_into_matches_solve() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 4.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 3.0;
        let b = [5.0, -2.0];
        let expected = a.solve(&b).expect("spd");
        let mut lu = LuFactors::workspace(2);
        let mut x = [0.0; 2];
        a.solve_into(&b, &mut lu, &mut x).expect("spd");
        assert_eq!(x.to_vec(), expected, "identical bits expected");
    }

    #[test]
    fn solve_multi_into_bit_identical_to_sequential() {
        let mut a = Matrix::zeros(3, 3);
        let entries = [
            (0, 0, 0.1),
            (0, 1, 1.0),
            (0, 2, -1.0),
            (1, 0, -3.0),
            (1, 1, -1.0),
            (1, 2, 2.0),
            (2, 0, -2.0),
            (2, 1, 1.0),
            (2, 2, 2.0),
        ];
        for (r, c, v) in entries {
            a[(r, c)] = v;
        }
        let lu = LuFactors::factor(a).expect("nonsingular");
        let rhs = [[8.0, -11.0, -3.0], [1.0, 0.5, -0.25], [0.0, 2.0, 7.0]];
        let width = rhs.len();
        let mut soa = vec![0.0; 3 * width];
        for (m, b) in rhs.iter().enumerate() {
            for (row, &value) in b.iter().enumerate() {
                soa[row * width + m] = value;
            }
        }
        let mut out = vec![0.0; 3 * width];
        lu.solve_multi_into(&soa, &mut out, width).expect("solve");
        for (m, b) in rhs.iter().enumerate() {
            let single = lu.solve(b).expect("solve");
            for row in 0..3 {
                assert_eq!(out[row * width + m], single[row], "member {m} row {row}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_solve_then_multiply_round_trips(
            seed_entries in proptest::collection::vec(-10.0f64..10.0, 16),
            b in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let mut a = Matrix::zeros(4, 4);
            for (k, v) in seed_entries.iter().enumerate() {
                a[(k / 4, k % 4)] = *v;
            }
            // Diagonal dominance guarantees nonsingularity.
            for k in 0..4 {
                let row_sum: f64 = (0..4).map(|c| a[(k, c)].abs()).sum();
                a[(k, k)] += row_sum + 1.0;
            }
            let x = a.solve(&b).expect("diagonally dominant");
            let recovered = mul_vec(&a, &x);
            for (got, want) in recovered.iter().zip(&b) {
                prop_assert!((got - want).abs() < 1e-8);
            }
        }

        #[test]
        fn prop_permuted_identity_solves_exactly(perm_seed in 0usize..24) {
            // Any permutation matrix must be handled by pivoting alone.
            let mut order = [0usize, 1, 2, 3];
            // Simple Lehmer-code permutation from the seed.
            let mut seed = perm_seed;
            for k in (1..4).rev() {
                let j = seed % (k + 1);
                order.swap(k, j);
                seed /= k + 1;
            }
            let mut a = Matrix::zeros(4, 4);
            for (row, &col) in order.iter().enumerate() {
                a[(row, col)] = 1.0;
            }
            let b = [1.0, 2.0, 3.0, 4.0];
            let x = a.solve(&b).expect("permutation");
            let recovered = mul_vec(&a, &x);
            for (got, want) in recovered.iter().zip(&b) {
                prop_assert!((got - want).abs() < 1e-12);
            }
        }
    }
}

/// A complex number for AC (phasor) analysis.
///
/// Deliberately minimal — just what the AC solver needs; no external
/// complex-arithmetic crate (DESIGN.md dependency policy).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number.
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real value.
    #[must_use]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// A purely imaginary value.
    #[must_use]
    pub const fn imaginary(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// The magnitude `|z|`.
    #[must_use]
    pub fn magnitude(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The phase `arg(z)` in radians.
    #[must_use]
    pub fn phase(self) -> f64 {
        self.im.atan2(self.re)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        let denom = rhs.re * rhs.re + rhs.im * rhs.im;
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / denom,
            (self.im * rhs.re - self.re * rhs.im) / denom,
        )
    }
}

impl std::ops::Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// A dense complex matrix with partially pivoted LU solve, for AC analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexMatrix {
    n: usize,
    data: Vec<Complex>,
}

impl ComplexMatrix {
    /// Creates an `n × n` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        Self {
            n,
            data: vec![Complex::ZERO; n * n],
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Adds `value` to entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn stamp(&mut self, row: usize, col: usize, value: Complex) {
        assert!(row < self.n && col < self.n, "index out of bounds");
        self.data[row * self.n + col] += value;
    }

    fn at(&self, row: usize, col: usize) -> Complex {
        self.data[row * self.n + col]
    }

    fn set(&mut self, row: usize, col: usize, value: Complex) {
        self.data[row * self.n + col] = value;
    }

    /// Solves `A·x = b` by LU with partial (magnitude) pivoting. The matrix
    /// is consumed by the factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when no usable pivot exists.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the dimension.
    pub fn solve(mut self, b: &[Complex]) -> Result<Vec<Complex>, SingularMatrixError> {
        let n = self.n;
        assert_eq!(b.len(), n, "right-hand side dimension mismatch");
        let mut x: Vec<Complex> = b.to_vec();
        for k in 0..n {
            let pivot_row = (k..n)
                .max_by(|&a, &b| {
                    self.at(a, k)
                        .magnitude()
                        .partial_cmp(&self.at(b, k).magnitude())
                        .expect("pivot comparison saw NaN")
                })
                .expect("non-empty pivot range");
            let pivot = self.at(pivot_row, k);
            if pivot.magnitude() < f64::MIN_POSITIVE * 1e4 {
                return Err(SingularMatrixError { column: k });
            }
            if pivot_row != k {
                for col in 0..n {
                    let tmp = self.at(k, col);
                    self.set(k, col, self.at(pivot_row, col));
                    self.set(pivot_row, col, tmp);
                }
                x.swap(k, pivot_row);
            }
            for row in (k + 1)..n {
                let factor = self.at(row, k) / pivot;
                for col in k..n {
                    let updated = self.at(row, col) - factor * self.at(k, col);
                    self.set(row, col, updated);
                }
                x[row] = x[row] - factor * x[k];
            }
        }
        for row in (0..n).rev() {
            let mut sum = x[row];
            for (offset, &value) in x[(row + 1)..n].iter().enumerate() {
                sum -= self.at(row, row + 1 + offset) * value;
            }
            x[row] = sum / self.at(row, row);
        }
        Ok(x)
    }
}

#[cfg(test)]
mod complex_tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn complex_arithmetic() {
        let a = c(1.0, 2.0);
        let b = c(3.0, -1.0);
        assert_eq!(a + b, c(4.0, 1.0));
        assert_eq!(a - b, c(-2.0, 3.0));
        assert_eq!(a * b, c(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back.re - a.re).abs() < 1e-12 && (back.im - a.im).abs() < 1e-12);
        assert!((c(3.0, 4.0).magnitude() - 5.0).abs() < 1e-12);
        assert!((c(0.0, 1.0).phase() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(-a, c(-1.0, -2.0));
    }

    #[test]
    fn complex_solve_known_system() {
        // (1+j)·x = 2 ⇒ x = 1 − j.
        let mut m = ComplexMatrix::zeros(1);
        m.stamp(0, 0, c(1.0, 1.0));
        let x = m.solve(&[c(2.0, 0.0)]).expect("nonsingular");
        assert!((x[0].re - 1.0).abs() < 1e-12);
        assert!((x[0].im + 1.0).abs() < 1e-12);
    }

    #[test]
    fn complex_solve_round_trips() {
        let entries = [
            [c(2.0, 1.0), c(0.5, -0.25), c(0.0, 0.1)],
            [c(-1.0, 0.0), c(3.0, -2.0), c(0.2, 0.0)],
            [c(0.0, 0.5), c(1.0, 1.0), c(4.0, 0.5)],
        ];
        let mut m = ComplexMatrix::zeros(3);
        for (r, row) in entries.iter().enumerate() {
            for (col, &v) in row.iter().enumerate() {
                m.stamp(r, col, v);
            }
        }
        let b = [c(1.0, 0.0), c(0.0, 1.0), c(-1.0, 2.0)];
        let x = m.clone().solve(&b).expect("nonsingular");
        // Verify A·x = b.
        for r in 0..3 {
            let mut sum = Complex::ZERO;
            for col in 0..3 {
                sum += entries[r][col] * x[col];
            }
            assert!((sum.re - b[r].re).abs() < 1e-10, "row {r}");
            assert!((sum.im - b[r].im).abs() < 1e-10, "row {r}");
        }
    }

    #[test]
    fn complex_singular_detection() {
        let m = ComplexMatrix::zeros(2);
        assert!(m.solve(&[Complex::ONE, Complex::ONE]).is_err());
    }
}
