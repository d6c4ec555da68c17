//! Incremental (recursive) least squares.
//!
//! Classical fits ([`crate::linear`], [`crate::polyfit`], [`crate::model`])
//! re-solve the least-squares problem over the full sample window on
//! every refit — O(window · K²) per refit. An online predictor that
//! re-estimates its model every period cannot afford that; this module
//! maintains the estimate *incrementally*: each observation performs one
//! rank-1 Sherman–Morrison update of the inverse normal matrix, so the
//! per-observation cost is O(K²) — O(model size), independent of how many
//! observations have been absorbed.
//!
//! With forgetting factor λ ∈ (0, 1] the estimator minimizes the
//! exponentially weighted squared error `Σ λ^(n-i) (y_i − φ_iᵀθ)²`, which
//! both bounds the effective window (≈ 1/(1−λ) samples) and lets the
//! estimate track drift in the underlying surface.
//!
//! The struct is generic over the feature dimension `K`; callers supply
//! already-mapped (and, if necessary, scaled) feature vectors. See
//! `rtds-arm`'s `OnlineRefiner` for the Eq. (3) instantiation.

/// Recursive least squares over a `K`-dimensional feature space.
#[derive(Debug, Clone)]
pub struct RecursiveLeastSquares<const K: usize> {
    /// Current coefficient estimate θ.
    theta: [f64; K],
    /// Inverse of the (forgetting-weighted) normal matrix, row-major.
    p: [[f64; K]; K],
    /// Forgetting factor λ ∈ (0, 1]; 1 = infinite memory.
    lambda: f64,
    /// Rank-1 updates absorbed.
    updates: u64,
}

impl<const K: usize> RecursiveLeastSquares<K> {
    /// Starts from a prior estimate `theta0`. `prior_strength` is the
    /// weight of the prior in pseudo-observations: the initial inverse
    /// normal matrix is `I / prior_strength`, so larger values make the
    /// prior resist early updates harder.
    ///
    /// # Panics
    /// Panics unless `0 < lambda <= 1` and `prior_strength > 0`.
    pub fn new(theta0: [f64; K], lambda: f64, prior_strength: f64) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "forgetting factor in (0,1]");
        assert!(prior_strength > 0.0, "prior strength must be positive");
        let mut p = [[0.0; K]; K];
        for (i, row) in p.iter_mut().enumerate() {
            row[i] = 1.0 / prior_strength;
        }
        RecursiveLeastSquares {
            theta: theta0,
            p,
            lambda,
            updates: 0,
        }
    }

    /// The current coefficient estimate.
    pub fn theta(&self) -> &[f64; K] {
        &self.theta
    }

    /// Rank-1 updates absorbed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The forgetting factor.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Predicts `φᵀθ` for an already-mapped feature vector.
    pub fn predict(&self, phi: &[f64; K]) -> f64 {
        phi.iter().zip(&self.theta).map(|(a, b)| a * b).sum()
    }

    /// Absorbs one observation `(φ, y)` via the Sherman–Morrison rank-1
    /// update. Returns `false` (leaving the state untouched) if the
    /// inputs are non-finite or the update is numerically degenerate.
    #[allow(clippy::needless_range_loop)] // indexed form mirrors the algebra
    pub fn update(&mut self, phi: &[f64; K], y: f64) -> bool {
        if !y.is_finite() || phi.iter().any(|v| !v.is_finite()) {
            return false;
        }
        // P φ
        let mut pphi = [0.0; K];
        for i in 0..K {
            for j in 0..K {
                pphi[i] += self.p[i][j] * phi[j];
            }
        }
        // φᵀ P φ
        let denom: f64 = self.lambda + phi.iter().zip(&pphi).map(|(a, b)| a * b).sum::<f64>();
        if !denom.is_finite() || denom <= 0.0 {
            return false;
        }
        // Gain k = P φ / denom
        let mut gain = [0.0; K];
        for i in 0..K {
            gain[i] = pphi[i] / denom;
        }
        // Innovation
        let pred: f64 = phi.iter().zip(&self.theta).map(|(a, b)| a * b).sum();
        let err = y - pred;
        for i in 0..K {
            self.theta[i] += gain[i] * err;
        }
        // P = (P − k (P φ)ᵀ) / λ   (using symmetry of P)
        for i in 0..K {
            for j in 0..K {
                self.p[i][j] = (self.p[i][j] - gain[i] * pphi[j]) / self.lambda;
            }
        }
        self.updates += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_a_linear_map_exactly_in_the_limit() {
        // y = 3x₀ − 2x₁ + 0.5x₂, weak prior, no forgetting.
        let mut rls = RecursiveLeastSquares::<3>::new([0.0; 3], 1.0, 1e-3);
        for i in 0..200 {
            let x0 = (i % 7) as f64;
            let x1 = (i % 5) as f64 - 2.0;
            let x2 = (i % 11) as f64 * 0.3;
            let y = 3.0 * x0 - 2.0 * x1 + 0.5 * x2;
            assert!(rls.update(&[x0, x1, x2], y));
        }
        let t = rls.theta();
        assert!((t[0] - 3.0).abs() < 1e-4, "theta {t:?}");
        assert!((t[1] + 2.0).abs() < 1e-4, "theta {t:?}");
        assert!((t[2] - 0.5).abs() < 1e-4, "theta {t:?}");
        assert_eq!(rls.updates(), 200);
    }

    #[test]
    fn matches_batch_least_squares_on_the_same_data() {
        // Against the crate's own QR solver: with a negligible prior the
        // recursive estimate must agree with the batch solution.
        let xs: Vec<[f64; 2]> = (0..40)
            .map(|i| [1.0, (i as f64 * 0.37).sin() * 5.0 + i as f64 * 0.1])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.7 * x[0] + 0.9 * x[1]).collect();
        let mut rls = RecursiveLeastSquares::<2>::new([0.0; 2], 1.0, 1e-6);
        for (x, y) in xs.iter().zip(&ys) {
            rls.update(x, *y);
        }
        let a = crate::matrix::Matrix::from_rows(xs.len(), 2, xs.concat());
        let batch = a.lstsq(&ys).expect("batch fit");
        let t = rls.theta();
        assert!((t[0] - batch[0]).abs() < 1e-5, "{t:?} vs {batch:?}");
        assert!((t[1] - batch[1]).abs() < 1e-5, "{t:?} vs {batch:?}");
    }

    #[test]
    fn forgetting_tracks_a_drifting_target() {
        let mut rls = RecursiveLeastSquares::<1>::new([0.0], 0.9, 1.0);
        for _ in 0..100 {
            rls.update(&[1.0], 5.0);
        }
        for _ in 0..100 {
            rls.update(&[1.0], 9.0);
        }
        assert!((rls.theta()[0] - 9.0).abs() < 0.1, "{:?}", rls.theta());
    }

    #[test]
    fn strong_prior_resists_a_single_observation() {
        let mut weak = RecursiveLeastSquares::<1>::new([1.0], 1.0, 1.0);
        let mut strong = RecursiveLeastSquares::<1>::new([1.0], 1.0, 1e9);
        weak.update(&[1.0], 10.0);
        strong.update(&[1.0], 10.0);
        assert!((weak.theta()[0] - 1.0).abs() > 100.0 * (strong.theta()[0] - 1.0).abs());
    }

    #[test]
    fn rejects_degenerate_input_without_mutating() {
        let mut rls = RecursiveLeastSquares::<2>::new([1.0, 2.0], 1.0, 1.0);
        assert!(!rls.update(&[f64::NAN, 1.0], 1.0));
        assert!(!rls.update(&[1.0, 1.0], f64::INFINITY));
        assert_eq!(rls.updates(), 0);
        assert_eq!(rls.theta(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "forgetting factor")]
    fn bad_lambda_rejected() {
        let _ = RecursiveLeastSquares::<1>::new([0.0], 0.0, 1.0);
    }
}
