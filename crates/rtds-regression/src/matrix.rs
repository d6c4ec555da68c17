//! Small dense matrices and a least-squares solver.
//!
//! The regression problems in this crate are tiny (≤ 10 unknowns, hundreds
//! of rows), so a straightforward row-major dense matrix with Householder
//! QR least squares is the right tool — no external linear algebra
//! dependency needed.

use core::fmt;

/// Errors from linear solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The system is singular (or numerically so) at the given pivot column.
    Singular {
        /// Column where elimination failed.
        column: usize,
    },
    /// Dimensions do not line up.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        what: &'static str,
    },
    /// The least-squares system is underdetermined (fewer rows than
    /// unknowns).
    Underdetermined {
        /// Number of rows supplied.
        rows: usize,
        /// Number of unknowns requested.
        cols: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular { column } => {
                write!(f, "singular system (pivot at column {column} is ~0)")
            }
            SolveError::DimensionMismatch { what } => write!(f, "dimension mismatch: {what}"),
            SolveError::Underdetermined { rows, cols } => {
                write!(f, "underdetermined: {rows} rows for {cols} unknowns")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)] * v[j]).sum())
            .collect()
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂` via Householder QR
    /// — numerically safer than normal equations for the ill-conditioned
    /// polynomial design matrices this crate builds.
    #[allow(clippy::needless_range_loop)] // indexed form mirrors the math
    pub fn lstsq(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        if b.len() != self.rows {
            return Err(SolveError::DimensionMismatch {
                what: "rhs length must equal row count",
            });
        }
        if self.rows < self.cols {
            return Err(SolveError::Underdetermined {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let m = self.rows;
        let n = self.cols;
        let mut r = self.data.clone();
        let mut qtb = b.to_vec();
        let at = |r: &[f64], i: usize, j: usize| r[i * n + j];

        for k in 0..n {
            // Householder vector for column k below the diagonal.
            let mut norm: f64 = (k..m).map(|i| at(&r, i, k).powi(2)).sum::<f64>().sqrt();
            if norm < 1e-14 {
                return Err(SolveError::Singular { column: k });
            }
            if at(&r, k, k) > 0.0 {
                norm = -norm;
            }
            let mut v: Vec<f64> = (k..m).map(|i| at(&r, i, k)).collect();
            v[0] -= norm;
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            if vnorm2 < 1e-300 {
                continue;
            }
            // Apply H = I - 2 v vᵀ / ‖v‖² to R columns k..n and to qtb.
            for j in k..n {
                let dot: f64 = (k..m).map(|i| v[i - k] * at(&r, i, j)).sum();
                let c = 2.0 * dot / vnorm2;
                for i in k..m {
                    r[i * n + j] -= c * v[i - k];
                }
            }
            let dot: f64 = (k..m).map(|i| v[i - k] * qtb[i]).sum();
            let c = 2.0 * dot / vnorm2;
            for i in k..m {
                qtb[i] -= c * v[i - k];
            }
        }
        // Back substitution on the upper-triangular R (top n×n block).
        let mut x = vec![0.0; n];
        for col in (0..n).rev() {
            let pivot = at(&r, col, col);
            if pivot.abs() < 1e-12 {
                return Err(SolveError::Singular { column: col });
            }
            let mut s = qtb[col];
            for j in (col + 1)..n {
                s -= at(&r, col, j) * x[j];
            }
            x[col] = s / pivot;
        }
        Ok(x)
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn matvec_matches_manual() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_close(&a.matvec(&[1.0, 1.0]), &[3.0, 7.0], 1e-12);
    }

    #[test]
    fn lstsq_exact_system_recovers_solution() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        // b exactly in the column space: x = (2, 5).
        let x = a.lstsq(&[2.0, 5.0, 7.0]).unwrap();
        assert_close(&x, &[2.0, 5.0], 1e-10);
    }

    #[test]
    fn lstsq_overdetermined_minimizes_residual() {
        // Fit y = c to [1, 2, 3]: least squares gives the mean 2.
        let a = Matrix::from_rows(3, 1, vec![1.0, 1.0, 1.0]);
        let x = a.lstsq(&[1.0, 2.0, 3.0]).unwrap();
        assert_close(&x, &[2.0], 1e-12);
    }

    #[test]
    fn lstsq_rejects_underdetermined() {
        let a = Matrix::from_rows(2, 3, vec![0.0; 6]);
        assert!(matches!(
            a.lstsq(&[0.0, 0.0]),
            Err(SolveError::Underdetermined { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn lstsq_detects_rank_deficiency() {
        // Second column is a copy of the first.
        let a = Matrix::from_rows(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        assert!(a.lstsq(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        assert!(SolveError::Singular { column: 2 }.to_string().contains("column 2"));
        assert!(SolveError::Underdetermined { rows: 1, cols: 5 }
            .to_string()
            .contains("1 rows"));
    }
}
