//! Deterministic random-number support.
//!
//! The simulator is fully deterministic given a seed: every stochastic
//! component (background load, network jitter, clock drift) draws from a
//! [`SimRng`] derived from the run's master seed via a stable stream id, so
//! adding a new consumer of randomness does not perturb the draws seen by
//! existing ones.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic RNG stream. It counts its draws (see
/// [`SimRng::draws`]), so the perf layer can pin how many a run makes.
pub struct SimRng {
    inner: ChaCha8Rng,
    draws: u64,
}

impl SimRng {
    /// Creates the stream `stream` of the run seeded by `master_seed`.
    ///
    /// Different `(master_seed, stream)` pairs produce statistically
    /// independent sequences; the same pair always produces the same
    /// sequence.
    pub fn from_seed_stream(master_seed: u64, stream: u64) -> Self {
        // Mix the stream id into the 32-byte ChaCha seed. splitmix64-style
        // finalizer gives good avalanche between adjacent stream ids.
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut seed = [0u8; 32];
        let a = mix(master_seed ^ 0x9e37_79b9_7f4a_7c15);
        let b = mix(a ^ stream);
        let c = mix(b.wrapping_add(0x6a09_e667_f3bc_c909));
        let d = mix(c ^ stream.rotate_left(17));
        seed[0..8].copy_from_slice(&a.to_le_bytes());
        seed[8..16].copy_from_slice(&b.to_le_bytes());
        seed[16..24].copy_from_slice(&c.to_le_bytes());
        seed[24..32].copy_from_slice(&d.to_le_bytes());
        SimRng {
            inner: ChaCha8Rng::from_seed(seed),
            draws: 0,
        }
    }

    /// Draws taken from this stream so far: one per `uniform`, `below`
    /// or `next_u64` call (so two per normal draw, one per exponential
    /// or Bernoulli draw).
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.draws += 1;
        self.inner.random::<f64>()
    }

    /// Uniform draw in `[lo, hi)`. Returns `lo` when the range is empty.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.draws += 1;
        self.inner.random_range(0..n)
    }

    /// Exponentially-distributed draw with the given mean (inter-arrival
    /// times of a Poisson process).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "exponential mean must be positive");
        // Inverse CDF; clamp the uniform away from 0 to avoid inf.
        let u = self.uniform().max(1e-300);
        -mean * u.ln()
    }

    /// Standard normal draw (Box–Muller, one value per call for simplicity —
    /// randomness here is never on a hot path).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        assert!(sd >= 0.0, "normal: negative sd");
        mean + sd * self.standard_normal()
    }

    /// Bernoulli draw.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Raw 64-bit draw (for deriving child seeds).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_stream_reproduce_exactly() {
        let mut a = SimRng::from_seed_stream(42, 7);
        let mut b = SimRng::from_seed_stream(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = SimRng::from_seed_stream(42, 0);
        let mut b = SimRng::from_seed_stream(42, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent streams should not collide");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed_stream(1, 0);
        let mut b = SimRng::from_seed_stream(2, 0);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_stays_in_unit_interval() {
        let mut r = SimRng::from_seed_stream(3, 3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_range_handles_empty_range() {
        let mut r = SimRng::from_seed_stream(3, 3);
        assert_eq!(r.uniform_range(5.0, 5.0), 5.0);
        assert_eq!(r.uniform_range(5.0, 4.0), 5.0);
        let x = r.uniform_range(2.0, 4.0);
        assert!((2.0..4.0).contains(&x));
    }

    #[test]
    fn exponential_has_roughly_correct_mean() {
        let mut r = SimRng::from_seed_stream(9, 1);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "sample mean {mean}");
    }

    #[test]
    fn normal_has_roughly_correct_moments() {
        let mut r = SimRng::from_seed_stream(9, 2);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn below_covers_domain() {
        let mut r = SimRng::from_seed_stream(11, 0);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn draws_count_every_call() {
        let mut r = SimRng::from_seed_stream(5, 0);
        assert_eq!(r.draws(), 0);
        r.uniform();
        r.below(7);
        r.next_u64();
        r.exponential(2.0);
        r.chance(0.5);
        r.normal(0.0, 1.0);
        assert_eq!(r.draws(), 7, "a normal draw takes two uniforms");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed_stream(1, 1);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
