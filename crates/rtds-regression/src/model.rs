//! The paper's Eq. (3) execution-latency model.
//!
//! `eex(st, d, u) = (a1·u² + a2·u + a3)·d² + (b1·u² + b2·u + b3)·d`
//!
//! where `d` is the data size in hundreds of tracks and `u` the CPU
//! utilization in percent. [`ExecLatencyModel::fit_two_stage`] fits it by
//! the paper's method: a second-order polynomial in `d` at each profiled
//! utilization (Figs. 2–3's `Y` curves), then each of the two
//! `d`-coefficients as a quadratic in `u`, combining everything "into a
//! single regression equation" (the `Y−` curves).

use crate::matrix::SolveError;
use crate::polyfit::Polynomial;
use crate::stats::{fit_stats, FitStats};

/// One profiled observation: latency of a subtask run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct LatencySample {
    /// Data size in **hundreds of tracks** (Eq. 3's unit).
    pub d: f64,
    /// CPU utilization of the hosting processor, **percent**.
    pub u: f64,
    /// Observed execution latency, milliseconds.
    pub latency_ms: f64,
}

/// Fitted Eq. (3) coefficients for one subtask.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ExecLatencyModel {
    /// `[a1, a2, a3]`: the quadratic-in-`u` coefficients of the `d²` term.
    pub a: [f64; 3],
    /// `[b1, b2, b3]`: the quadratic-in-`u` coefficients of the `d` term.
    pub b: [f64; 3],
    /// Fit quality over all training samples.
    pub stats: FitStats,
}

/// How many distinct utilization levels / data sizes a two-stage fit needs.
const MIN_U_LEVELS: usize = 3;
const MIN_D_PER_LEVEL: usize = 2;

impl ExecLatencyModel {
    /// Builds a model from known coefficients (e.g. the paper's Table 2),
    /// with placeholder fit statistics.
    pub fn from_coefficients(a: [f64; 3], b: [f64; 3]) -> Self {
        ExecLatencyModel {
            a,
            b,
            stats: FitStats {
                r2: f64::NAN,
                adjusted_r2: f64::NAN,
                rmse: f64::NAN,
                mae: f64::NAN,
                max_abs_residual: f64::NAN,
                n: 0,
                params: 6,
            },
        }
    }

    /// Raw model value; may be negative outside the profiled domain (the
    /// hazard of extrapolating empirical quadratics — see the paper's
    /// Table 2, whose `a1 < 0` for subtask 3 goes negative at large `d·u`).
    pub fn predict_raw(&self, d: f64, u: f64) -> f64 {
        let qa = (self.a[0] * u + self.a[1]) * u + self.a[2];
        let qb = (self.b[0] * u + self.b[1]) * u + self.b[2];
        qa * d * d + qb * d
    }

    /// Predicted execution latency in ms, clamped to be non-negative — the
    /// form the resource manager consumes.
    pub fn predict(&self, d: f64, u: f64) -> f64 {
        self.predict_raw(d, u).max(0.0)
    }

    /// The paper's two-stage fit. Samples are grouped by utilization level
    /// (values within `1e-6` are one level); each level gets a
    /// through-origin quadratic in `d`; the per-level coefficients are then
    /// regressed quadratically on `u`.
    ///
    /// ```
    /// use rtds_regression::{ExecLatencyModel, LatencySample};
    /// let mut samples = Vec::new();
    /// for &u in &[10.0, 40.0, 70.0] {
    ///     for d in (1..=5).map(f64::from) {
    ///         samples.push(LatencySample {
    ///             d, u,
    ///             latency_ms: (0.01 * u + 0.1) * d * d + (0.05 * u + 1.0) * d,
    ///         });
    ///     }
    /// }
    /// let m = ExecLatencyModel::fit_two_stage(&samples).unwrap();
    /// assert!(m.stats.r2 > 0.9999);
    /// assert!(m.predict(3.0, 25.0) > 0.0);
    /// ```
    ///
    /// # Errors
    /// Needs ≥ 3 distinct utilization levels with ≥ 2 distinct data sizes
    /// each.
    pub fn fit_two_stage(samples: &[LatencySample]) -> Result<Self, SolveError> {
        let groups = group_by_utilization(samples);
        if groups.len() < MIN_U_LEVELS {
            return Err(SolveError::Underdetermined {
                rows: groups.len(),
                cols: MIN_U_LEVELS,
            });
        }
        let mut us = Vec::with_capacity(groups.len());
        let mut a_of_u = Vec::with_capacity(groups.len());
        let mut b_of_u = Vec::with_capacity(groups.len());
        for (u, pts) in &groups {
            let xs: Vec<f64> = pts.iter().map(|p| p.d).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.latency_ms).collect();
            let distinct = count_distinct(&xs);
            if distinct < MIN_D_PER_LEVEL {
                return Err(SolveError::Underdetermined {
                    rows: distinct,
                    cols: MIN_D_PER_LEVEL,
                });
            }
            let q = Polynomial::fit_quadratic_origin(&xs, &ys)?;
            us.push(*u);
            b_of_u.push(q.coefficients[1]);
            a_of_u.push(q.coefficients[2]);
        }
        // Stage 2: coefficient-vs-utilization quadratics (with constant).
        let pa = Polynomial::fit(&us, &a_of_u, 2)?;
        let pb = Polynomial::fit(&us, &b_of_u, 2)?;
        let model = ExecLatencyModel {
            a: [pa.coefficients[2], pa.coefficients[1], pa.coefficients[0]],
            b: [pb.coefficients[2], pb.coefficients[1], pb.coefficients[0]],
            stats: FitStats {
                r2: 0.0,
                adjusted_r2: 0.0,
                rmse: 0.0,
                mae: 0.0,
                max_abs_residual: 0.0,
                n: 0,
                params: 6,
            },
        };
        Ok(model.with_stats_from(samples))
    }

    /// Recomputes fit statistics of this model against a sample set.
    pub fn with_stats_from(mut self, samples: &[LatencySample]) -> Self {
        if samples.is_empty() {
            return self;
        }
        let obs: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let pred: Vec<f64> = samples.iter().map(|s| self.predict_raw(s.d, s.u)).collect();
        self.stats = fit_stats(&obs, &pred, 6);
        self
    }
}

/// Groups samples into utilization levels (tolerance 1e-6), sorted by `u`.
fn group_by_utilization(samples: &[LatencySample]) -> Vec<(f64, Vec<LatencySample>)> {
    let mut sorted: Vec<LatencySample> = samples.to_vec();
    sorted.sort_by(|x, y| x.u.partial_cmp(&y.u).expect("no NaN utilization"));
    let mut groups: Vec<(f64, Vec<LatencySample>)> = Vec::new();
    for s in sorted {
        match groups.last_mut() {
            Some((u, pts)) if (s.u - *u).abs() < 1e-6 => pts.push(s),
            _ => groups.push((s.u, vec![s])),
        }
    }
    groups
}

fn count_distinct(xs: &[f64]) -> usize {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    v.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground truth: a "true" Eq.-3 surface.
    fn truth(d: f64, u: f64) -> f64 {
        (0.0002 * u * u + 0.001 * u + 0.01) * d * d + (0.002 * u * u + 0.05 * u + 1.0) * d
    }

    fn grid_samples() -> Vec<LatencySample> {
        let mut out = Vec::new();
        for &u in &[10.0, 20.0, 40.0, 60.0, 80.0] {
            for d in (1..=12).map(|i| i as f64) {
                out.push(LatencySample {
                    d,
                    u,
                    latency_ms: truth(d, u),
                });
            }
        }
        out
    }

    #[test]
    fn two_stage_recovers_exact_surface() {
        let m = ExecLatencyModel::fit_two_stage(&grid_samples()).unwrap();
        for &u in &[15.0, 50.0, 70.0] {
            for &d in &[2.0, 5.0, 10.0] {
                let p = m.predict(d, u);
                let t = truth(d, u);
                assert!(
                    (p - t).abs() < 1e-6 * t.max(1.0),
                    "predict({d},{u}) = {p}, truth {t}"
                );
            }
        }
        assert!(m.stats.r2 > 0.999999);
    }

    #[test]
    fn noisy_data_still_yields_good_fit() {
        let mut samples = grid_samples();
        // Deterministic multiplicative "noise" ±3%.
        for (i, s) in samples.iter_mut().enumerate() {
            let f = 1.0 + 0.03 * if i % 2 == 0 { 1.0 } else { -1.0 };
            s.latency_ms *= f;
        }
        let m = ExecLatencyModel::fit_two_stage(&samples).unwrap();
        assert!(m.stats.r2 > 0.99, "r2 {}", m.stats.r2);
        let p = m.predict(6.0, 40.0);
        let t = truth(6.0, 40.0);
        assert!((p - t).abs() < 0.05 * t);
    }

    #[test]
    fn prediction_clamps_negative_extrapolation() {
        // Coefficients chosen so the raw value is negative at large d·u,
        // like the paper's subtask 3.
        let m = ExecLatencyModel::from_coefficients([-0.01, 0.0, 0.1], [0.0, 0.0, 1.0]);
        assert!(m.predict_raw(100.0, 90.0) < 0.0);
        assert_eq!(m.predict(100.0, 90.0), 0.0);
        assert!(m.predict(1.0, 10.0) > 0.0);
    }

    #[test]
    fn from_coefficients_evaluates_eq3_shape() {
        let m = ExecLatencyModel::from_coefficients([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]);
        // u=2, d=3: qa = 4+4+3 = 11; qb = 16+10+6 = 32; 11*9 + 32*3 = 195.
        assert!((m.predict_raw(3.0, 2.0) - 195.0).abs() < 1e-12);
    }

    #[test]
    fn insufficient_levels_rejected() {
        let two_levels: Vec<LatencySample> = grid_samples()
            .into_iter()
            .filter(|s| s.u < 30.0)
            .collect();
        assert!(ExecLatencyModel::fit_two_stage(&two_levels).is_err());
    }

    #[test]
    fn single_d_per_level_rejected() {
        let samples: Vec<LatencySample> = [10.0, 20.0, 30.0, 40.0]
            .iter()
            .map(|&u| LatencySample {
                d: 5.0,
                u,
                latency_ms: truth(5.0, u),
            })
            .collect();
        assert!(ExecLatencyModel::fit_two_stage(&samples).is_err());
    }

    #[test]
    fn grouping_tolerates_float_jitter() {
        let mut s = grid_samples();
        for (i, p) in s.iter_mut().enumerate() {
            p.u += 1e-9 * (i % 3) as f64; // sub-tolerance jitter
        }
        assert!(ExecLatencyModel::fit_two_stage(&s).is_ok());
    }

    #[test]
    fn latency_increases_with_load_and_utilization_on_fitted_model() {
        let m = ExecLatencyModel::fit_two_stage(&grid_samples()).unwrap();
        assert!(m.predict(8.0, 50.0) > m.predict(4.0, 50.0));
        assert!(m.predict(8.0, 70.0) > m.predict(8.0, 30.0));
    }
}
