//! Property-style tests of the numeric substrate.
//!
//! Originally written with proptest; the build environment has no
//! registry access, so these now drive the same properties from a
//! deterministic in-file generator (xorshift-based). Each property is
//! exercised over a few hundred pseudo-random cases — deterministic,
//! so a failure reproduces exactly.

use rtds_regression::{Matrix, Polynomial, SimpleLinear};

/// Small deterministic generator for test case synthesis.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        self.0 = s;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform f64 in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }

    /// Uniform usize in `[lo, hi)`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// A vector of uniform draws.
    fn vec_f64(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.f64_in(lo, hi)).collect()
    }
}

/// Least-squares residuals are orthogonal to the column space:
/// `Aᵀ (A x − b) ≈ 0`.
#[test]
fn lstsq_residual_is_orthogonal_to_columns() {
    let mut g = Gen::new(2);
    for _ in 0..200 {
        let rows = g.usize_in(6, 20);
        // Fixed well-conditioned design: [1, t, t^2] at distinct points.
        let cols = 3;
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            let t = i as f64 / rows as f64 * 4.0 - 2.0;
            data.extend_from_slice(&[1.0, t, t * t]);
        }
        let a = Matrix::from_rows(rows, cols, data);
        let b = g.vec_f64(rows, -10.0, 10.0);
        let x = a.lstsq(&b).unwrap();
        let pred = a.matvec(&x);
        let residual: Vec<f64> = pred.iter().zip(&b).map(|(p, y)| p - y).collect();
        let scale: f64 = b.iter().map(|v| v.abs()).fold(1.0, f64::max);
        for j in 0..cols {
            let v: f64 = (0..rows).map(|i| a[(i, j)] * residual[i]).sum();
            assert!(v.abs() < 1e-7 * scale * rows as f64, "non-orthogonal: {v}");
        }
    }
}

/// A line fit is translation-equivariant: shifting y by c shifts the
/// intercept by c and leaves the slope unchanged.
#[test]
fn line_fit_translation_equivariance() {
    let mut g = Gen::new(3);
    for _ in 0..300 {
        let n = g.usize_in(4, 20);
        let ys = g.vec_f64(n, -50.0, 50.0);
        let shift = g.f64_in(-100.0, 100.0);
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let base = SimpleLinear::fit(&xs, &ys).unwrap();
        let shifted: Vec<f64> = ys.iter().map(|y| y + shift).collect();
        let moved = SimpleLinear::fit(&xs, &shifted).unwrap();
        assert!((base.slope - moved.slope).abs() < 1e-8 * (1.0 + base.slope.abs()));
        assert!(
            (base.intercept + shift - moved.intercept).abs()
                < 1e-8 * (1.0 + moved.intercept.abs())
        );
    }
}

/// Polynomial evaluation is exact at the sample points whenever the
/// fit is exact-degree (n = degree + 1 distinct points: interpolation).
#[test]
fn exact_degree_fit_interpolates() {
    let mut g = Gen::new(4);
    for _ in 0..300 {
        let c0 = g.f64_in(-5.0, 5.0);
        let c1 = g.f64_in(-5.0, 5.0);
        let c2 = g.f64_in(-2.0, 2.0);
        let xs = [0.0, 1.0, 2.0];
        let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
        let p = Polynomial::fit(&xs, &ys, 2).unwrap();
        for (&x, &y) in xs.iter().zip(&ys) {
            assert!((p.eval(x) - y).abs() < 1e-7 * (1.0 + y.abs()));
        }
    }
}

/// R² of a simple line fit is scale-invariant in y (for non-constant y
/// and nonzero scale).
#[test]
fn r2_is_scale_invariant() {
    let mut g = Gen::new(5);
    let mut tested = 0;
    for _ in 0..400 {
        let n = g.usize_in(4, 20);
        let ys = g.vec_f64(n, -50.0, 50.0);
        let scale = g.f64_in(0.1, 10.0);
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        // Skip effectively-constant targets: R² is degenerate there.
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        if !ys.iter().any(|y| (y - mean).abs() > 1e-3) {
            continue;
        }
        tested += 1;
        let a = SimpleLinear::fit(&xs, &ys).unwrap();
        let scaled: Vec<f64> = ys.iter().map(|y| y * scale).collect();
        let b = SimpleLinear::fit(&xs, &scaled).unwrap();
        assert!(
            (a.stats.r2 - b.stats.r2).abs() < 1e-7,
            "{} vs {}",
            a.stats.r2,
            b.stats.r2
        );
    }
    assert!(tested > 100, "generator produced too few usable cases");
}
