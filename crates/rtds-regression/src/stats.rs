//! Goodness-of-fit statistics.
//!
//! The paper fits regression equations to profile data and relies on their
//! predictive quality; these statistics quantify that quality (R², RMSE,
//! MAE, residual analysis) so every fit in the pipeline can be validated.

/// Summary statistics of a fitted model against observations.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct FitStats {
    /// Coefficient of determination, `1 − SS_res/SS_tot`. May be negative
    /// for a fit worse than the mean.
    pub r2: f64,
    /// R² adjusted for the number of parameters.
    pub adjusted_r2: f64,
    /// Root-mean-square error.
    pub rmse: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Largest absolute residual.
    pub max_abs_residual: f64,
    /// Number of observations.
    pub n: usize,
    /// Number of model parameters.
    pub params: usize,
}

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Residuals `observed − predicted`.
pub fn residuals(observed: &[f64], predicted: &[f64]) -> Vec<f64> {
    assert_eq!(observed.len(), predicted.len(), "residuals: length mismatch");
    observed
        .iter()
        .zip(predicted)
        .map(|(o, p)| o - p)
        .collect()
}

/// Computes fit statistics for `params`-parameter model predictions.
///
/// # Panics
/// Panics if lengths differ or `observed` is empty.
pub fn fit_stats(observed: &[f64], predicted: &[f64], params: usize) -> FitStats {
    assert_eq!(observed.len(), predicted.len(), "fit_stats: length mismatch");
    assert!(!observed.is_empty(), "fit_stats: no observations");
    let n = observed.len();
    let res = residuals(observed, predicted);
    let ss_res: f64 = res.iter().map(|r| r * r).sum();
    let m = mean(observed);
    let ss_tot: f64 = observed.iter().map(|o| (o - m).powi(2)).sum();
    let r2 = if ss_tot <= 0.0 {
        // Constant target: perfect iff residuals are ~0.
        if ss_res < 1e-18 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    };
    let adjusted_r2 = if n > params + 1 {
        1.0 - (1.0 - r2) * ((n - 1) as f64) / ((n - params - 1) as f64)
    } else {
        r2
    };
    FitStats {
        r2,
        adjusted_r2,
        rmse: (ss_res / n as f64).sqrt(),
        mae: res.iter().map(|r| r.abs()).sum::<f64>() / n as f64,
        max_abs_residual: res.iter().map(|r| r.abs()).fold(0.0, f64::max),
        n,
        params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values_and_of_nothing() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn perfect_fit_has_r2_one() {
        let y = [1.0, 2.0, 3.0, 4.0];
        let s = fit_stats(&y, &y, 2);
        assert!((s.r2 - 1.0).abs() < 1e-12);
        assert_eq!(s.rmse, 0.0);
        assert_eq!(s.mae, 0.0);
        assert_eq!(s.max_abs_residual, 0.0);
    }

    #[test]
    fn mean_prediction_has_r2_zero() {
        let y = [1.0, 2.0, 3.0];
        let pred = [2.0, 2.0, 2.0];
        let s = fit_stats(&y, &pred, 1);
        assert!(s.r2.abs() < 1e-12);
    }

    #[test]
    fn worse_than_mean_gives_negative_r2() {
        let y = [1.0, 2.0, 3.0];
        let pred = [3.0, 2.0, 1.0];
        assert!(fit_stats(&y, &pred, 1).r2 < 0.0);
    }

    #[test]
    fn adjusted_r2_penalizes_parameters() {
        let y = [1.0, 2.0, 2.9, 4.2, 5.1, 5.9];
        let pred = [1.1, 2.0, 3.0, 4.0, 5.0, 6.0];
        let few = fit_stats(&y, &pred, 1);
        let many = fit_stats(&y, &pred, 4);
        assert!(many.adjusted_r2 < few.adjusted_r2);
        assert!(few.adjusted_r2 <= few.r2);
    }

    #[test]
    fn constant_target_edge_case() {
        let y = [5.0, 5.0, 5.0];
        assert_eq!(fit_stats(&y, &y, 1).r2, 1.0);
        assert_eq!(fit_stats(&y, &[5.1, 5.0, 4.9], 1).r2, 0.0);
    }

    #[test]
    fn rmse_and_mae_measure_errors() {
        let y = [0.0, 0.0, 0.0, 0.0];
        let pred = [1.0, -1.0, 1.0, -1.0];
        let s = fit_stats(&y, &pred, 1);
        assert!((s.rmse - 1.0).abs() < 1e-12);
        assert!((s.mae - 1.0).abs() < 1e-12);
        assert!((s.max_abs_residual - 1.0).abs() < 1e-12);
        assert_eq!(s.n, 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = fit_stats(&[1.0], &[1.0, 2.0], 1);
    }
}
