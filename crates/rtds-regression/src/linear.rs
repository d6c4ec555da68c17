//! Simple linear regression.

use crate::matrix::SolveError;
use crate::stats::{fit_stats, FitStats};

/// Ordinary least-squares line `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct SimpleLinear {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Fit quality on the training data.
    pub stats: FitStats,
}

impl SimpleLinear {
    /// Fits a line to the points.
    ///
    /// # Errors
    /// Fails if fewer than 2 points or all `x` identical.
    pub fn fit(xs: &[f64], ys: &[f64]) -> Result<Self, SolveError> {
        assert_eq!(xs.len(), ys.len(), "length mismatch");
        if xs.len() < 2 {
            return Err(SolveError::Underdetermined {
                rows: xs.len(),
                cols: 2,
            });
        }
        let n = xs.len() as f64;
        let sx: f64 = xs.iter().sum();
        let sy: f64 = ys.iter().sum();
        let sxx: f64 = xs.iter().map(|x| x * x).sum();
        let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return Err(SolveError::Singular { column: 0 });
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        let pred: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        Ok(SimpleLinear {
            slope,
            intercept,
            stats: fit_stats(ys, &pred, 2),
        })
    }

    /// Fits a line through the origin: `y = slope·x`. This is the form of
    /// the paper's Eq. (5), `Dbuf = k · Σ ds(T_i, c)` — zero offered load
    /// implies zero buffer delay.
    pub fn fit_through_origin(xs: &[f64], ys: &[f64]) -> Result<Self, SolveError> {
        assert_eq!(xs.len(), ys.len(), "length mismatch");
        if xs.is_empty() {
            return Err(SolveError::Underdetermined { rows: 0, cols: 1 });
        }
        let sxx: f64 = xs.iter().map(|x| x * x).sum();
        if sxx < 1e-12 {
            return Err(SolveError::Singular { column: 0 });
        }
        let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
        let slope = sxy / sxx;
        let pred: Vec<f64> = xs.iter().map(|x| slope * x).collect();
        Ok(SimpleLinear {
            slope,
            intercept: 0.0,
            stats: fit_stats(ys, &pred, 1),
        })
    }

    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.5).collect();
        let f = SimpleLinear::fit(&xs, &ys).unwrap();
        assert!((f.slope - 3.0).abs() < 1e-10);
        assert!((f.intercept - 1.5).abs() < 1e-10);
        assert!((f.stats.r2 - 1.0).abs() < 1e-12);
        assert!((f.predict(20.0) - 61.5).abs() < 1e-9);
    }

    #[test]
    fn noisy_line_fits_approximately() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        // Deterministic "noise".
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + 5.0 + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let f = SimpleLinear::fit(&xs, &ys).unwrap();
        assert!((f.slope - 2.0).abs() < 0.01);
        assert!((f.intercept - 5.0).abs() < 0.1);
        assert!(f.stats.r2 > 0.999);
    }

    #[test]
    fn through_origin_forces_zero_intercept() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [0.9, 2.1, 2.9, 4.1];
        let f = SimpleLinear::fit_through_origin(&xs, &ys).unwrap();
        assert_eq!(f.intercept, 0.0);
        assert!((f.slope - 1.0).abs() < 0.05, "slope {}", f.slope);
    }

    #[test]
    fn through_origin_exact_eq5_shape() {
        // Dbuf = 0.7 * total_load, the paper's Table 3 value.
        let xs: Vec<f64> = (1..=20).map(|i| i as f64 * 100.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.7 * x).collect();
        let f = SimpleLinear::fit_through_origin(&xs, &ys).unwrap();
        assert!((f.slope - 0.7).abs() < 1e-12);
        assert!((f.stats.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_error_cleanly() {
        assert!(SimpleLinear::fit(&[1.0], &[1.0]).is_err());
        assert!(SimpleLinear::fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_err());
        assert!(SimpleLinear::fit_through_origin(&[], &[]).is_err());
        assert!(SimpleLinear::fit_through_origin(&[0.0, 0.0], &[1.0, 2.0]).is_err());
    }
}
