//! A small, dependency-free dense matrix type.
//!
//! FastMCD (Section 4.1 / Appendix A) needs covariance matrices, their
//! determinants, and their inverses for Mahalanobis distances. MacroBase
//! queries have at most a few dozen metrics, so a straightforward row-major
//! `Vec<f64>` with LU decomposition is more than fast enough and avoids
//! pulling a linear-algebra dependency into the workspace.

use crate::{Result, StatsError};
use mb_pool::Pool;

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix of zeros.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create an identity matrix of size `n`.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        m.add_diagonal(1.0);
        m
    }

    /// Create a matrix from a row-major vector. Panics if the length does not
    /// equal `rows * cols`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length must equal rows * cols"
        );
        Matrix { rows, cols, data }
    }

    /// Whether the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow one row as a slice.
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Singularity threshold relative to the magnitude of this matrix's
    /// entries: `n · ε · max|a_ij|`. A pivot (or Cholesky diagonal term)
    /// below this is indistinguishable from rounding noise *at the scale of
    /// the input*, which is what "numerically singular" should mean — an
    /// absolute cutoff misreports well-conditioned but small-scaled matrices
    /// (e.g. the covariance of data measured in 1e-7 units) as singular.
    fn singularity_threshold(&self) -> f64 {
        self.max_abs() * self.rows.max(self.cols) as f64 * f64::EPSILON
    }

    /// Add `value` to every diagonal entry (ridge regularization used when a
    /// covariance matrix is numerically singular).
    pub(crate) fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Maximum absolute entry (used in tests and convergence checks).
    pub(crate) fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }
}

/// A reusable LU factorization of a square, non-singular matrix.
///
/// FastMCD's C-step needs the covariance *inverse* (for Mahalanobis
/// distances) and its *log-determinant* (for the convergence test and the
/// best-of-restarts merge). Both derive from the shared factors, so a whole
/// C-step costs exactly one decomposition, and the inverse is one solve per
/// column over them: O(d³), not O(d⁴).
#[derive(Debug, Clone)]
pub(crate) struct LuFactors {
    /// L (unit diagonal, strictly below) and U (on and above the diagonal).
    lu: Matrix,
    /// Row permutation applied by partial pivoting.
    perm: Vec<usize>,
}

impl LuFactors {
    /// LU-decompose the square matrix `m` with partial pivoting (Doolittle).
    /// Returns an error for non-square or numerically singular matrices
    /// (pivot below the scale-relative threshold).
    fn factor(m: &Matrix) -> Result<LuFactors> {
        if !m.is_square() {
            return Err(StatsError::DimensionMismatch {
                expected: m.rows,
                actual: m.cols,
            });
        }
        let n = m.rows;
        let threshold = m.singularity_threshold();
        let mut lu = m.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Partial pivot: find the largest |value| in this column.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in (col + 1)..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            // A NaN pivot means the input held non-finite values; report
            // that distinctly instead of poisoning the factors (or
            // misreporting the matrix as singular).
            if pivot_val.is_nan() {
                return Err(StatsError::NonFinite);
            }
            if pivot_val <= threshold {
                return Err(StatsError::SingularMatrix);
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = lu[(col, j)];
                    lu[(col, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(col, pivot_row);
            }
            let pivot = lu[(col, col)];
            for r in (col + 1)..n {
                let factor = lu[(r, col)] / pivot;
                lu[(r, col)] = factor;
                for j in (col + 1)..n {
                    let delta = factor * lu[(col, j)];
                    lu[(r, j)] -= delta;
                }
            }
        }
        Ok(LuFactors { lu, perm })
    }

    /// Solve `A x = b` by forward/backward substitution through the factors,
    /// into a caller-provided buffer (allocation-free; `b` and `x` must both
    /// have the factored dimension).
    pub(crate) fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.lu.rows;
        assert_eq!(b.len(), n, "rhs length must equal the factored dimension");
        assert_eq!(x.len(), n, "out length must equal the factored dimension");
        // Forward substitution on the permuted RHS (L has unit diagonal),
        // writing y into x ...
        for i in 0..n {
            let mut acc = b[self.perm[i]];
            let row = self.lu.row(i);
            for (j, xj) in x[..i].iter().enumerate() {
                acc -= row[j] * xj;
            }
            x[i] = acc;
        }
        // ... then backward substitution through U in place: entries above
        // `i` are already final when row `i` reads them.
        for i in (0..n).rev() {
            let mut acc = x[i];
            let row = self.lu.row(i);
            for (j, xj) in x.iter().enumerate().skip(i + 1) {
                acc -= row[j] * xj;
            }
            x[i] = acc / row[i];
        }
    }

    /// Matrix inverse: one unit-vector solve per column over the shared
    /// factors — O(d³) total, not O(d⁴).
    pub(crate) fn inverse(&self) -> Matrix {
        let n = self.lu.rows;
        let mut out = Matrix::zeros(n, n);
        let mut unit = vec![0.0; n];
        let mut x = vec![0.0; n];
        for col in 0..n {
            unit.iter_mut().for_each(|v| *v = 0.0);
            unit[col] = 1.0;
            self.solve_into(&unit, &mut x);
            for row in 0..n {
                out[(row, col)] = x[row];
            }
        }
        out
    }

    /// Natural log of |det A| — `Σ ln |U_ii|`. Cannot fail: the pivot
    /// threshold guarantees every diagonal entry is nonzero.
    pub(crate) fn log_abs_determinant(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.lu.rows {
            acc += self.lu[(i, i)].abs().ln();
        }
        acc
    }
}

/// A reusable Cholesky factorization `A = L Lᵀ` of a symmetric
/// positive-definite matrix.
///
/// For SPD input (covariance matrices) this is the fast path: roughly half
/// the flops of LU, no pivoting, and the log-determinant falls out of the
/// factor diagonal. Same factor-once contract as [`LuFactors`].
#[derive(Debug, Clone)]
pub(crate) struct CholeskyFactors {
    l: Matrix,
}

impl CholeskyFactors {
    /// Cholesky decomposition of the symmetric positive-definite matrix `m`
    /// into the lower-triangular factor `L` such that `L Lᵀ = m`.
    ///
    /// Rejects matrices whose pivot `L_ii²` falls below the scale-relative
    /// singularity threshold (or is NaN from overflowed input): those are
    /// numerically semi-definite and their factors would amplify rounding
    /// noise unboundedly.
    fn factor(m: &Matrix) -> Result<CholeskyFactors> {
        if !m.is_square() {
            return Err(StatsError::DimensionMismatch {
                expected: m.rows,
                actual: m.cols,
            });
        }
        let n = m.rows;
        let threshold = m.singularity_threshold();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = m[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    // NaN (non-finite input) is reported distinctly; it
                    // must never reach the factors.
                    if sum.is_nan() {
                        return Err(StatsError::NonFinite);
                    }
                    if sum <= threshold {
                        return Err(StatsError::SingularMatrix);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(CholeskyFactors { l })
    }

    /// Solve `A x = b` via `L y = b` then `Lᵀ x = y`, into a caller-provided
    /// buffer.
    pub(crate) fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.l.rows;
        assert_eq!(b.len(), n, "rhs length must equal the factored dimension");
        assert_eq!(x.len(), n, "out length must equal the factored dimension");
        // Forward substitution through L (non-unit diagonal).
        for i in 0..n {
            let mut acc = b[i];
            let row = self.l.row(i);
            for (j, xj) in x[..i].iter().enumerate() {
                acc -= row[j] * xj;
            }
            x[i] = acc / row[i];
        }
        // Backward substitution through Lᵀ (column access on L).
        for i in (0..n).rev() {
            let mut acc = x[i];
            for (j, xj) in x.iter().enumerate().skip(i + 1) {
                acc -= self.l[(j, i)] * xj;
            }
            x[i] = acc / self.l[(i, i)];
        }
    }

    /// Matrix inverse: one unit-vector solve per column over the shared
    /// factors.
    pub(crate) fn inverse(&self) -> Matrix {
        let n = self.l.rows;
        let mut out = Matrix::zeros(n, n);
        let mut unit = vec![0.0; n];
        let mut x = vec![0.0; n];
        for col in 0..n {
            unit.iter_mut().for_each(|v| *v = 0.0);
            unit[col] = 1.0;
            self.solve_into(&unit, &mut x);
            for row in 0..n {
                out[(row, col)] = x[row];
            }
        }
        out
    }

    /// Natural log of det A — `2 Σ ln L_ii` (an SPD determinant is positive).
    pub(crate) fn log_abs_determinant(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.l.rows {
            acc += self.l[(i, i)].ln();
        }
        2.0 * acc
    }
}

/// Factors of a symmetric positive-definite matrix: Cholesky when the
/// matrix is numerically positive-definite, LU with partial pivoting as the
/// fallback for merely-invertible (e.g. slightly asymmetric or indefinite
/// after ridging) input.
///
/// This is the decomposition object FastMCD carries through a C-step: one
/// factorization yields the inverse for the distance pass *and* the
/// log-determinant for convergence/merging.
#[derive(Debug, Clone)]
pub(crate) enum SpdFactors {
    /// Cholesky fast path (SPD input).
    Cholesky(CholeskyFactors),
    /// LU fallback (invertible but not numerically SPD).
    Lu(LuFactors),
}

impl SpdFactors {
    /// Factor `m`, preferring Cholesky and falling back to LU. Errors only
    /// when both report the matrix as numerically singular.
    pub(crate) fn factor(m: &Matrix) -> Result<SpdFactors> {
        match CholeskyFactors::factor(m) {
            Ok(c) => Ok(SpdFactors::Cholesky(c)),
            Err(_) => LuFactors::factor(m).map(SpdFactors::Lu),
        }
    }

    /// Matrix inverse from the shared factors.
    pub(crate) fn inverse(&self) -> Matrix {
        match self {
            SpdFactors::Cholesky(c) => c.inverse(),
            SpdFactors::Lu(l) => l.inverse(),
        }
    }

    /// Natural log of |det| from the shared factors.
    pub(crate) fn log_abs_determinant(&self) -> f64 {
        match self {
            SpdFactors::Cholesky(c) => c.log_abs_determinant(),
            SpdFactors::Lu(l) => l.log_abs_determinant(),
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Rows per partial sum of [`covariance_of_rows`]. Fixed, so the partial
/// sums and the order they merge in are the same on any pool. A multiple of
/// [`LANES`], so only the last chunk has a padded block.
const COVARIANCE_CHUNK: usize = 4096;

/// Rows a lane-wise kernel (the covariance products here, the Mahalanobis
/// distances in [`crate::mcd`]) reads per step, one per lane.
pub(crate) const LANES: usize = 4;

/// Center the rows `row_at(first..first + lanes)` on `mean` into `block`,
/// lane-major (`block[j][lane] = row[j] - mean[j]`), where `lanes` is at
/// most [`LANES`]: the lanes past it are zero. `block` is resized to the
/// dimension and reused from call to call.
pub(crate) fn center_block<'a>(
    block: &mut Vec<[f64; LANES]>,
    mean: &[f64],
    row_at: impl Fn(usize) -> &'a [f64],
    first: usize,
    lanes: usize,
) {
    block.resize(mean.len(), [0.0; LANES]);
    for lane in 0..LANES {
        if lane < lanes {
            let row = row_at(first + lane);
            debug_assert_eq!(row.len(), mean.len());
            for ((c, r), m) in block.iter_mut().zip(row).zip(mean) {
                c[lane] = r - m;
            }
        } else {
            block.iter_mut().for_each(|c| c[lane] = 0.0);
        }
    }
}

/// Sum `accumulate` over `0..count` into a `width`-long vector: one partial
/// per [`COVARIANCE_CHUNK`] rows, scattered on `pool`, merged in chunk
/// order. A single chunk runs inline and is the plain running sum.
fn chunked_sum<F>(pool: &Pool, count: usize, width: usize, accumulate: F) -> Vec<f64>
where
    F: Fn(&mut [f64], std::ops::Range<usize>) + Sync,
{
    let starts: Vec<usize> = (0..count).step_by(COVARIANCE_CHUNK).collect();
    let partials = pool.map_vec(starts, |start| {
        let mut partial = vec![0.0; width];
        accumulate(&mut partial, start..(start + COVARIANCE_CHUNK).min(count));
        partial
    });
    let mut total = vec![0.0; width];
    for partial in partials {
        for (t, p) in total.iter_mut().zip(partial) {
            *t += p;
        }
    }
    total
}

/// Sample mean and covariance (dividing by `count - 1`) of the `dim`-length
/// rows `row_at(0..count)`: one pass for the mean, one for the centered
/// products, each summed by [`chunked_sum`] — so a large subset (FastMCD
/// re-fits half the sample on every full-sample C-step) uses the whole
/// pool, and the bits do not depend on how many threads that is. The one
/// covariance loop in the crate: FastMCD fits every subset through it, an
/// index list into the row-major sample.
///
/// Rows are *not* scanned for non-finite values; a NaN row yields a NaN
/// covariance, which the factorization routines reject as
/// [`StatsError::NonFinite`].
pub(crate) fn covariance_of_rows<'a, R>(
    pool: &Pool,
    dim: usize,
    count: usize,
    row_at: R,
) -> Result<(Vec<f64>, Matrix)>
where
    R: Fn(usize) -> &'a [f64] + Sync,
{
    if count < 2 {
        return Err(StatsError::InsufficientData {
            required: 2,
            provided: count,
        });
    }
    let mut means = chunked_sum(pool, count, dim, |sums, chunk| {
        for k in chunk {
            for (s, v) in sums.iter_mut().zip(row_at(k)) {
                *s += v;
            }
        }
    });
    means.iter_mut().for_each(|m| *m /= count as f64);
    // [`LANES`] rows per step: each upper-triangle sum adds the block's
    // products in row order, so the sequence of additions — and the bits —
    // are a row-at-a-time loop's. A padded lane adds `0.0 * 0.0`, which
    // leaves every sum as it was (a sum from `+0.0` is never `-0.0`).
    let products = chunked_sum(pool, count, dim * dim, |upper, chunk| {
        let mut centered = Vec::new();
        for first in chunk.clone().step_by(LANES) {
            center_block(
                &mut centered,
                &means,
                &row_at,
                first,
                (chunk.end - first).min(LANES),
            );
            for (i, ci) in centered.iter().enumerate() {
                let row_i = &mut upper[i * dim + i..(i + 1) * dim];
                for (sum, cj) in row_i.iter_mut().zip(&centered[i..]) {
                    let mut s = *sum;
                    for lane in 0..LANES {
                        s += ci[lane] * cj[lane];
                    }
                    *sum = s;
                }
            }
        }
    });
    let mut cov = Matrix::from_vec(dim, dim, products);
    let denom = (count - 1) as f64;
    for i in 0..dim {
        for j in i..dim {
            cov[(i, j)] /= denom;
            cov[(j, i)] = cov[(i, j)];
        }
    }
    Ok((means, cov))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    /// Mean and covariance of a row-major sample of `dim`-length rows.
    fn covariance(flat: &[f64], dim: usize) -> Result<(Vec<f64>, Matrix)> {
        covariance_of_rows(mb_pool::global(), dim, flat.len() / dim, |k| {
            &flat[k * dim..(k + 1) * dim]
        })
    }

    /// The product `a · b`, which the round-trip checks multiply through.
    fn product(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows, "product shapes");
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                for j in 0..b.cols {
                    out[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        out
    }

    fn transpose(m: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(m.cols, m.rows);
        for i in 0..m.rows {
            for j in 0..m.cols {
                out[(j, i)] = m[(i, j)];
            }
        }
        out
    }

    fn scaled(m: &Matrix, s: f64) -> Matrix {
        Matrix::from_vec(m.rows, m.cols, m.data.iter().map(|x| x * s).collect())
    }

    fn assert_identity(m: &Matrix, tol: f64) {
        for i in 0..m.rows {
            for j in 0..m.cols {
                assert_close(m[(i, j)], if i == j { 1.0 } else { 0.0 }, tol);
            }
        }
    }

    #[test]
    fn identity_is_identity() {
        // The identity factors through Cholesky into itself: its inverse is
        // the identity and its log-determinant is zero.
        let id = Matrix::identity(3);
        let f = SpdFactors::factor(&id).unwrap();
        assert!(matches!(f, SpdFactors::Cholesky(_)));
        assert_eq!(f.inverse(), id);
        assert_eq!(f.log_abs_determinant(), 0.0);
    }

    #[test]
    fn determinant_known_values() {
        // |det| of non-symmetric matrices, through the LU factors.
        let m = Matrix::from_vec(2, 2, vec![3.0, 8.0, 4.0, 6.0]);
        let lu = LuFactors::factor(&m).unwrap();
        assert_close(lu.log_abs_determinant(), 14f64.ln(), 1e-9);
        let m3 = Matrix::from_vec(3, 3, vec![6.0, 1.0, 1.0, 4.0, -2.0, 5.0, 2.0, 8.0, 7.0]);
        let lu = LuFactors::factor(&m3).unwrap();
        assert_close(lu.log_abs_determinant(), 306f64.ln(), 1e-9);
    }

    #[test]
    fn determinant_of_singular_is_zero() {
        // A zero determinant has no factors: both decompositions refuse it.
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(
            LuFactors::factor(&m).err(),
            Some(StatsError::SingularMatrix)
        );
        assert_eq!(
            SpdFactors::factor(&m).err(),
            Some(StatsError::SingularMatrix)
        );
    }

    #[test]
    fn inverse_round_trip() {
        let m = Matrix::from_vec(3, 3, vec![4.0, 7.0, 2.0, 3.0, 6.0, 1.0, 2.0, 5.0, 3.0]);
        let inv = LuFactors::factor(&m).unwrap().inverse();
        assert_identity(&product(&m, &inv), 1e-9);
        let spd = Matrix::from_vec(3, 3, vec![4.0, 2.0, 2.0, 2.0, 5.0, 1.0, 2.0, 1.0, 6.0]);
        let inv = SpdFactors::factor(&spd).unwrap().inverse();
        assert_identity(&product(&spd, &inv), 1e-9);
    }

    #[test]
    fn inverse_of_singular_fails() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(
            SpdFactors::factor(&m).err(),
            Some(StatsError::SingularMatrix)
        );
    }

    #[test]
    fn solve_known_system() {
        // x + 2y = 5 ; 3x + 4y = 11 -> x = 1, y = 2
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut x = [0.0; 2];
        LuFactors::factor(&a)
            .unwrap()
            .solve_into(&[5.0, 11.0], &mut x);
        assert_close(x[0], 1.0, 1e-9);
        assert_close(x[1], 2.0, 1e-9);
    }

    #[test]
    fn cholesky_round_trip() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 2.0, 2.0, 2.0, 5.0, 1.0, 2.0, 1.0, 6.0]);
        let l = CholeskyFactors::factor(&a).unwrap().l;
        let prod = product(&l, &transpose(&l));
        for i in 0..3 {
            for j in 0..3 {
                assert_close(prod[(i, j)], a[(i, j)], 1e-9);
            }
        }
    }

    #[test]
    fn cholesky_rejects_non_positive_definite() {
        // Invertible but indefinite: Cholesky refuses it and the SPD
        // dispatcher falls back to LU.
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert_eq!(
            CholeskyFactors::factor(&a).err(),
            Some(StatsError::SingularMatrix)
        );
        assert!(matches!(SpdFactors::factor(&a).unwrap(), SpdFactors::Lu(_)));
    }

    #[test]
    fn log_determinant_matches_determinant() {
        // det [[3, 1], [1, 2]] = 5, from either factorization.
        let m = Matrix::from_vec(2, 2, vec![3.0, 1.0, 1.0, 2.0]);
        let chol = CholeskyFactors::factor(&m).unwrap();
        let lu = LuFactors::factor(&m).unwrap();
        assert_close(chol.log_abs_determinant(), 5f64.ln(), 1e-9);
        assert_close(lu.log_abs_determinant(), 5f64.ln(), 1e-9);
    }

    #[test]
    fn covariance_of_known_sample() {
        let rows = [2.0, 8.0, 4.0, 10.0, 6.0, 12.0, 8.0, 14.0];
        let (means, cov) = covariance(&rows, 2).unwrap();
        assert_close(means[0], 5.0, 1e-12);
        assert_close(means[1], 11.0, 1e-12);
        // Perfectly correlated with variance 20/3 each (sample variance).
        assert_close(cov[(0, 0)], 20.0 / 3.0, 1e-9);
        assert_close(cov[(1, 1)], 20.0 / 3.0, 1e-9);
        assert_close(cov[(0, 1)], 20.0 / 3.0, 1e-9);
        assert_close(cov[(1, 0)], cov[(0, 1)], 1e-12);
    }

    #[test]
    fn covariance_requires_two_rows() {
        assert!(matches!(
            covariance(&[1.0, 2.0], 2),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn small_scaled_matrices_are_not_misreported_as_singular() {
        // Regression: the old absolute pivot cutoff (1e-12) reported any
        // well-conditioned matrix with small-scaled entries — e.g. the
        // covariance of data measured in 1e-7 units, whose entries are
        // ~1e-14 — as singular. The threshold is now relative to the
        // matrix scale.
        let base = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let tiny = scaled(&base, 1e-14);
        // det(base) = 3, so det(tiny) = 3e-28 — nonzero.
        let f = SpdFactors::factor(&tiny).unwrap();
        assert_close(f.log_abs_determinant(), 3e-28f64.ln(), 1e-9);
        let lu = LuFactors::factor(&tiny).unwrap();
        assert_close(lu.log_abs_determinant(), 3e-28f64.ln(), 1e-9);
        // The inverse round-trips.
        assert_identity(&product(&tiny, &f.inverse()), 1e-9);
        assert_identity(&product(&tiny, &lu.inverse()), 1e-9);
        // And an exactly singular matrix at the same scale is still caught.
        let singular = scaled(&Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]), 1e-14);
        assert_eq!(
            SpdFactors::factor(&singular).err(),
            Some(StatsError::SingularMatrix)
        );
    }

    #[test]
    fn cholesky_accepts_small_scales_and_rejects_overflow() {
        let tiny = scaled(&Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]), 1e-14);
        let l = CholeskyFactors::factor(&tiny).unwrap().l;
        let prod = product(&l, &transpose(&l));
        for i in 0..2 {
            for j in 0..2 {
                assert_close(prod[(i, j)], tiny[(i, j)], 1e-22);
            }
        }
        // An overflowed (infinite) covariance must be rejected, not
        // silently factored into NaN.
        let overflowed = Matrix::from_vec(2, 2, vec![f64::INFINITY, 0.0, 0.0, 1.0]);
        assert_eq!(
            CholeskyFactors::factor(&overflowed).err(),
            Some(StatsError::SingularMatrix)
        );
        assert!(LuFactors::factor(&overflowed).is_err());
        assert!(SpdFactors::factor(&overflowed).is_err());
    }

    #[test]
    fn nan_input_is_an_error_not_a_zero_determinant() {
        // NaN entries mean the input is corrupt, which must surface as
        // NonFinite — not as "singular".
        let poisoned = Matrix::from_vec(2, 2, vec![f64::NAN, 0.0, 0.0, 1.0]);
        assert_eq!(
            SpdFactors::factor(&poisoned).err(),
            Some(StatsError::NonFinite)
        );
        assert_eq!(
            LuFactors::factor(&poisoned).err(),
            Some(StatsError::NonFinite)
        );
        assert_eq!(
            CholeskyFactors::factor(&poisoned).err(),
            Some(StatsError::NonFinite)
        );
    }

    #[test]
    fn lu_factors_match_single_shot_operations_exactly() {
        // The SPD dispatcher's LU fallback is the LU factors' arithmetic bit
        // for bit, and the inverse is the unit-vector solves column by
        // column over the one factorization.
        let m = Matrix::from_vec(
            4,
            4,
            vec![
                4.0, 1.0, -2.0, 2.0, 1.0, 2.0, 0.0, 1.0, -2.0, 0.0, 3.0, -2.0, 2.0, 1.0, -2.0, -1.0,
            ],
        );
        let factors = LuFactors::factor(&m).unwrap();
        let f = SpdFactors::factor(&m).unwrap();
        assert!(matches!(f, SpdFactors::Lu(_)));
        assert_eq!(f.inverse(), factors.inverse());
        assert_eq!(
            f.log_abs_determinant().to_bits(),
            factors.log_abs_determinant().to_bits()
        );
        let inverse = factors.inverse();
        let mut column = [0.0; 4];
        for col in 0..4 {
            let mut unit = [0.0; 4];
            unit[col] = 1.0;
            factors.solve_into(&unit, &mut column);
            for (row, x) in column.iter().enumerate() {
                assert_eq!(x.to_bits(), inverse[(row, col)].to_bits());
            }
        }
    }

    #[test]
    fn cholesky_factors_agree_with_lu_numerically() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 2.0, 2.0, 2.0, 5.0, 1.0, 2.0, 1.0, 6.0]);
        let chol = CholeskyFactors::factor(&a).unwrap();
        let lu = LuFactors::factor(&a).unwrap();
        assert_close(chol.log_abs_determinant(), lu.log_abs_determinant(), 1e-9);
        let b = [1.0, 2.0, 3.0];
        let (mut xc, mut xl) = ([0.0; 3], [0.0; 3]);
        chol.solve_into(&b, &mut xc);
        lu.solve_into(&b, &mut xl);
        for (c, l) in xc.iter().zip(xl.iter()) {
            assert_close(*c, *l, 1e-9);
        }
        let ic = chol.inverse();
        let il = lu.inverse();
        for i in 0..3 {
            for j in 0..3 {
                assert_close(ic[(i, j)], il[(i, j)], 1e-9);
            }
        }
        // The SPD dispatcher picks Cholesky here and LU for a non-SPD but
        // invertible matrix.
        assert!(matches!(
            SpdFactors::factor(&a).unwrap(),
            SpdFactors::Cholesky(_)
        ));
        let non_spd = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let f = SpdFactors::factor(&non_spd).unwrap();
        assert!(matches!(f, SpdFactors::Lu(_)));
        assert_close(f.log_abs_determinant(), 0.0, 1e-12);
    }

    #[test]
    fn factor_solve_rejects_wrong_length_rhs() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 1.0, 1.0, 2.0]);
        let lu = LuFactors::factor(&m).unwrap();
        let chol = CholeskyFactors::factor(&m).unwrap();
        let short = std::panic::catch_unwind(|| lu.solve_into(&[1.0], &mut [0.0; 2]));
        assert!(short.is_err());
        let long = std::panic::catch_unwind(|| chol.solve_into(&[1.0, 2.0, 3.0], &mut [0.0; 2]));
        assert!(long.is_err());
    }

    #[test]
    fn covariance_products_are_the_row_at_a_time_sums_bit_for_bit() {
        // The sums a row-at-a-time loop makes: per fixed chunk, each row's
        // centered products added into the upper triangle, chunks merged
        // in order. Counts with and without a padded last block, one and
        // two chunks; values with signed zeros, subnormals and large
        // magnitudes.
        let oracle = |flat: &[f64], dim: usize, means: &[f64]| {
            let mut total = vec![0.0; dim * dim];
            for chunk in flat.chunks(COVARIANCE_CHUNK * dim) {
                let mut upper = vec![0.0; dim * dim];
                for row in chunk.chunks_exact(dim) {
                    let centered: Vec<f64> = row.iter().zip(means).map(|(v, m)| v - m).collect();
                    for (i, &ci) in centered.iter().enumerate() {
                        for (j, &cj) in centered.iter().enumerate().skip(i) {
                            upper[i * dim + j] += ci * cj;
                        }
                    }
                }
                for (t, u) in total.iter_mut().zip(upper) {
                    *t += u;
                }
            }
            total
        };
        const VALUES: [f64; 8] = [0.0, -0.0, 5e-324, -3.5, 1e150, -2.0e-200, 7.25, 1.0];
        let pool = Pool::new(2);
        let mut state = 11u64;
        for dim in (1..=9).chain([16]) {
            for count in (2..=9).chain([COVARIANCE_CHUNK + 3]) {
                let flat: Vec<f64> = (0..count * dim)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        VALUES[(state >> 61) as usize]
                    })
                    .collect();
                let (means, cov) =
                    covariance_of_rows(&pool, dim, count, |k| &flat[k * dim..(k + 1) * dim])
                        .unwrap();
                let sums = oracle(&flat, dim, &means);
                let denom = (count - 1) as f64;
                for i in 0..dim {
                    for j in i..dim {
                        let expected = (sums[i * dim + j] / denom).to_bits();
                        assert_eq!(cov[(i, j)].to_bits(), expected, "dim {dim}, {count} rows");
                        assert_eq!(cov[(j, i)].to_bits(), expected, "dim {dim}, {count} rows");
                    }
                }
            }
        }
    }

    #[test]
    fn add_diagonal_regularizes() {
        let mut m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(
            SpdFactors::factor(&m).err(),
            Some(StatsError::SingularMatrix)
        );
        m.add_diagonal(0.5);
        assert!(SpdFactors::factor(&m).is_ok());
    }

    proptest! {
        #[test]
        fn solve_then_matvec_recovers_rhs(n in 1usize..5, seed in 0u64..1000) {
            let mut state = seed.wrapping_add(7);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            // Diagonally dominant matrices are always invertible.
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = next();
                }
                a[(i, i)] += n as f64 + 1.0;
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut x = vec![0.0; n];
            LuFactors::factor(&a).unwrap().solve_into(&b, &mut x);
            let back = product(&a, &Matrix::from_vec(n, 1, x));
            for (i, orig) in b.iter().enumerate() {
                prop_assert!((orig - back[(i, 0)]).abs() < 1e-6);
            }
        }

        #[test]
        fn covariance_is_symmetric_psd_diagonal(nrows in 3usize..30, seed in 0u64..1000) {
            let mut state = seed.wrapping_add(13);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0
            };
            let rows: Vec<f64> = (0..nrows * 3).map(|_| next()).collect();
            let (_, cov) = covariance(&rows, 3).unwrap();
            for i in 0..3 {
                prop_assert!(cov[(i, i)] >= -1e-9);
                for j in 0..3 {
                    prop_assert!((cov[(i, j)] - cov[(j, i)]).abs() < 1e-9);
                }
            }
        }
    }
}
