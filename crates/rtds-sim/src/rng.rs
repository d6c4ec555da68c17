//! Deterministic random-number support.
//!
//! The simulator is fully deterministic given a seed: every stochastic
//! component (background load, network jitter, clock drift) draws from a
//! [`SimRng`] derived from the run's master seed via a stable stream id, so
//! adding a new consumer of randomness does not perturb the draws seen by
//! existing ones.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::time::SimDuration;

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
        (self.next_u64() >> 11) as i64 as f64 * UNIT
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
        exponential_of(self.next_u64() >> 11, mean)
    }

    /// Exponential draw with a mean of `mean_us` µs, in whole µs and at
    /// least 1. It takes one draw and returns exactly
    /// `SimDuration::from_secs_f64(self.exponential(mean_s).max(1e-6)).as_micros()`
    /// for `mean_s = SimDuration::from_micros(mean_us).as_secs_f64()`,
    /// but reaches libm only on a sliver of draws: it computes the
    /// logarithm in-tree and falls back to that expression only where
    /// the in-tree value could round differently or the clamp may act.
    ///
    /// # Panics
    /// Panics if `mean_us == 0`.
    #[inline]
    pub fn exp_us(&mut self, mean_us: u64) -> u64 {
        exp_us_of(self.next_u64() >> 11, mean_us)
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

/// `2^-53`: the 53-bit draw `k` (the top bits of a `u64` draw) stands
/// for the uniform `k · 2^-53` in `[0, 1)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

const TWO_52: f64 = (1u64 << 52) as f64;

/// [`SimRng::exponential`] for the 53-bit draw `k`: the inverse CDF, with
/// the uniform clamped away from 0 to avoid inf.
#[inline]
fn exponential_of(k: u64, mean: f64) -> f64 {
    let u = (k as i64 as f64 * UNIT).max(1e-300);
    -mean * u.ln()
}

/// [`SimRng::exp_us`] for the 53-bit draw `k`.
///
/// **Fast path.** With `ℓ = neg_ln_unit(k)`, the in-tree `−ln(k · 2^-53)`,
/// `y = mean_us · ℓ` is returned rounded to the nearest integer `n` when
/// `y ≥ 2` and `|y − n| < ½ − margin`, `margin = (y + mean_us) · 2^-36`:
/// `y` lies farther than `margin` from every half-integer.
///
/// **Slow path.** Otherwise the float expression itself runs: for `k = 0`,
/// below `y = 2`, where the `1e-6 s` clamp may act, and in the guard band.
///
/// **Why the margin holds.** Write `M = mean_us`, `L = −ln(k · 2^-53)`
/// and `Y = M·L` (exact reals), `ε = 2^-53`, and let the platform `ln` be
/// within 4 ulp, a relative error of `2^-50`.
/// - The float path rounds `M` (above `2^53`), `M / 10^6`, `ln`, the
///   product and two `× 1000` steps, so its value `Z` has
///   `|Z − Y| ≤ (2^-50 + 6ε) Y < 2^-49.1 Y`.
/// - `ℓ` has an absolute error `A` and a relative one `B`. `A` sums the
///   rounding of `r` (below `ε` on a value near 1, so `log1p` moves by
///   `1.004 ε`), the Taylor remainder (`|r|^6 / 6 / (1 − |r|) < 2^-50.5`),
///   the table (`logc` within `2^-50` of `ln(invc)`, checked by a unit
///   test against the platform `ln`) and the polynomial's own roundings
///   (below `2^-58`): `A < 2^-49`. `B` sums `−e ln 2` (two roundings, and
///   `|e| ln 2 ≤ L`) and the two last additions: `B ≤ 2^-51`.
/// - `y` rounds `M` (above `2^53`) and the product, so
///   `|y − Y| ≤ M·A + (B + 3ε) Y`.
///
/// Together `|y − Z| ≤ 2^-49 M + 2^-48.6 Y < 2^-48.5 (y + M)`, and the
/// margin, `(y + M) · 2^-36` less one rounding of the sum, is more than
/// `2^12` times that. Outside the band `Z` lies in `(n − ½, n + ½)`, so
/// half-up rounding of `Z` gives `n`; and `Z > 1.5`, so the clamp does
/// not act. From `y = 2^52` up the margin exceeds `½`, so no such `y`
/// passes, and below it `n` is exact. The `M` term matters as
/// `k → 2^53`: there `L` falls toward `2^-53` while `A` stays, so the
/// error is absolute, about `2^-53 M`, and a margin of `2^-36 y` alone is
/// too small wherever `y < 2^-17 M`.
#[inline]
fn exp_us_of(k: u64, mean_us: u64) -> u64 {
    if k != 0 {
        let mean = mean_us as f64;
        let y = mean * neg_ln_unit(k);
        // Below 2^52, adding 2^52 rounds y to the nearest integer n, which
        // is then the low bits of the sum, and y − n is exact.
        let big = y + TWO_52;
        let n = big - TWO_52;
        if y >= 2.0 && (y - n).abs() < 0.5 - (y + mean) * (1.0 / (1u64 << 36) as f64) {
            tally(true);
            return big.to_bits() - TWO_52.to_bits();
        }
    }
    exp_us_slow(k, mean_us)
}

/// The float path of [`exp_us_of`], out of line: it runs on a sliver of
/// arrival draws.
#[cold]
#[inline(never)]
fn exp_us_slow(k: u64, mean_us: u64) -> u64 {
    tally(false);
    assert!(mean_us > 0, "exponential mean must be positive");
    let mean_s = SimDuration::from_micros(mean_us).as_secs_f64();
    SimDuration::from_secs_f64(exponential_of(k, mean_s).max(1e-6)).as_micros()
}

/// `−ln(k · 2^-53)` for `1 ≤ k < 2^53`, from IEEE basic operations only
/// (the table-driven design of ARM's optimized-routines `log`). With
/// `k · 2^-53 = 2^e · m`, `m` in `[0.5, 1)` and `−52 ≤ e ≤ 0`, it is
/// `−e ln 2 + ln(invc) − log1p(r)` for the table entry of `m`'s interval
/// and `r = m · invc − 1`, `|r| < 2^-8`; `log1p` is its degree-5 Taylor
/// polynomial.
#[inline(always)]
fn neg_ln_unit(k: u64) -> f64 {
    // Exact: k < 2^53.
    let bits = (k as i64 as f64).to_bits();
    let e = (bits >> 52) as i64 - 1075;
    let m = f64::from_bits(bits & (u64::MAX >> 12) | 1022 << 52);
    let (invc, logc) = LN_TABLE[(bits >> 45) as usize & 127];
    let r = m * invc - 1.0;
    let r2 = r * r;
    let log1p = r + r2 * (-0.5 + r * (1.0 / 3.0) + r2 * (-0.25 + r * 0.2));
    (-e) as f64 * core::f64::consts::LN_2 + (logc - log1p)
}

/// The `ln` table: `[0.5, 1)` cut into 128 intervals of width `2^-8`,
/// indexed by the top seven mantissa bits. Entry `i` holds `invc`, the
/// reciprocal of the interval's midpoint `c` rounded to `f64`, and
/// `logc ≈ ln(invc)`. Built at compile time, so every platform uses the
/// same bits.
static LN_TABLE: [(f64, f64); 128] = ln_table();

const fn ln_table() -> [(f64, f64); 128] {
    let mut t = [(0.0, 0.0); 128];
    let mut i = 0;
    while i < 128 {
        let invc = 1.0 / (0.5 + (i as f64 + 0.5) / 256.0);
        t[i] = (invc, ln_const(invc));
        i += 1;
    }
    t
}

/// `ln(x)` for `x` in `[1, 2]` by the series
/// `ln x = 2 atanh s = 2 (s + s³/3 + s⁵/5 + …)`, `s = (x − 1)/(x + 1) ≤ 1/3`,
/// summed innermost first; thirty terms leave a remainder below `9^-30`.
const fn ln_const(x: f64) -> f64 {
    let s = (x - 1.0) / (x + 1.0);
    let s2 = s * s;
    let mut sum = 0.0;
    let mut j = 30;
    while j > 0 {
        j -= 1;
        sum = 1.0 / (2 * j + 1) as f64 + s2 * sum;
    }
    2.0 * s * sum
}

#[cfg(test)]
thread_local! {
    /// `exp_us_of` returns on this thread, `[slow, fast]`.
    static EXP_US_PATHS: core::cell::Cell<[u64; 2]> = const { core::cell::Cell::new([0; 2]) };
}

#[cfg(test)]
fn tally(fast: bool) {
    EXP_US_PATHS.with(|c| {
        let mut n = c.get();
        n[usize::from(fast)] += 1;
        c.set(n);
    });
}

#[cfg(not(test))]
#[inline(always)]
fn tally(_fast: bool) {}

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

    /// 100,000 draws cycling through every kind of draw, with means,
    /// bounds and probabilities that vary from call to call, hashed as
    /// little-endian bits (64-bit FNV-1a) for two `(seed, stream)` pairs.
    /// Pins the stream itself: a change to the generator, its refill or a
    /// draw's arithmetic fails here before it shows in a run's outputs.
    #[test]
    fn mixed_draw_stream_matches_its_digest() {
        fn digest(seed: u64, stream: u64) -> u64 {
            let mut r = SimRng::from_seed_stream(seed, stream);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |x: u64| {
                for b in x.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            for i in 0..100_000u64 {
                let k = (i % 97) as f64;
                match i % 6 {
                    0 => eat(r.uniform().to_bits()),
                    1 => eat(r.exponential(0.5 + k).to_bits()),
                    // Bounds of every width up to 2^64, so rejection runs.
                    2 => {
                        let n = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64);
                        eat(r.below(n.max(1)));
                    }
                    3 => eat(u64::from(r.chance(k / 96.0))),
                    4 => eat(r.normal(k, 1.0 + k / 8.0).to_bits()),
                    _ => eat(r.next_u64()),
                }
            }
            assert_eq!(r.draws(), 100_000 + 100_000 / 6, "a normal draw takes two");
            h
        }
        assert_eq!(
            digest(42, 7),
            0xd44a_23eb_3e70_c7cf,
            "stream (42, 7) changed"
        );
        assert_eq!(
            digest(0x5EED, 1 << 40),
            0x2d2d_eeef_f021_59a1,
            "stream (0x5EED, 2^40) changed"
        );
    }

    /// The float expression `exp_us` promises to match, for the draw `k`.
    fn float_path(k: u64, mean_us: u64) -> u64 {
        let u = (k as f64 / (1u64 << 53) as f64).max(1e-300);
        let mean_s = SimDuration::from_micros(mean_us).as_secs_f64();
        SimDuration::from_secs_f64((-mean_s * u.ln()).max(1e-6)).as_micros()
    }

    /// Means from 1 µs to 2^40 µs: fig9's 2 ms demands and 20 ms gaps,
    /// multi-second means, and values with no round binary form.
    const MEANS: [u64; 14] = [
        1,
        2,
        3,
        7,
        999,
        2_000,
        20_000,
        123_457,
        2_500_000,
        7_000_000,
        40_000_000,
        1 << 32,
        987_654_321_987,
        1 << 40,
    ];

    #[test]
    fn ln_table_matches_the_platform_ln() {
        for (i, &(invc, logc)) in LN_TABLE.iter().enumerate() {
            assert_eq!(invc, 1.0 / (0.5 + (i as f64 + 0.5) / 256.0), "invc[{i}]");
            let err = (logc - invc.ln()).abs();
            assert!(err <= f64::EPSILON / 2.0, "logc[{i}] off by {err:e}");
        }
    }

    /// `exp_us_of` against the float path on the draws most likely to
    /// round differently: the smallest and largest `k`, and `k ± 4`
    /// around each draw where `y` crosses `n + ½`, for every `n < 1000`
    /// and on a 1 % stride beyond, up to the largest `y` a mean reaches.
    /// Both paths must run.
    #[test]
    fn exp_us_matches_the_float_path_on_adversarial_draws() {
        const TOP: u64 = 1 << 53;
        let before = EXP_US_PATHS.with(|c| c.get());
        let check = |k: u64, mean_us: u64| {
            assert_eq!(
                exp_us_of(k, mean_us),
                float_path(k, mean_us),
                "k = {k}, mean = {mean_us} us"
            );
        };
        for mean_us in MEANS {
            for k in (0..64).chain(TOP - 64..TOP) {
                check(k, mean_us);
            }
            let y_max = mean_us as f64 * (TOP as f64).ln();
            let mut n = 0.0f64;
            while n + 0.5 < y_max {
                // The k where -mean·ln(k·2^-53) = n + ½.
                let k0 = ((-(n + 0.5) / mean_us as f64).exp() * TOP as f64).round() as i64;
                for k in (k0 - 4).max(0)..(k0 + 5).min(TOP as i64) {
                    check(k as u64, mean_us);
                }
                n = if n < 1000.0 { n + 1.0 } else { (n * 1.01).floor() };
            }
        }
        let after = EXP_US_PATHS.with(|c| c.get());
        assert!(after[0] > before[0], "the slow path never ran");
        assert!(after[1] > before[1], "the fast path never ran");
    }

    /// `exp_us` against `exponential` on the same stream: one draw each,
    /// equal values, over random draws for every mean.
    #[test]
    fn exp_us_draws_what_exponential_draws() {
        let mut a = SimRng::from_seed_stream(0x5EED, 9);
        let mut b = SimRng::from_seed_stream(0x5EED, 9);
        for i in 0..200_000 {
            let mean_us = MEANS[i % MEANS.len()];
            let mean_s = SimDuration::from_micros(mean_us).as_secs_f64();
            let want = SimDuration::from_secs_f64(b.exponential(mean_s).max(1e-6));
            assert_eq!(a.exp_us(mean_us), want.as_micros(), "draw {i}, mean {mean_us} us");
        }
        assert_eq!(a.draws(), b.draws());
    }

    #[test]
    #[should_panic(expected = "exponential mean must be positive")]
    fn exp_us_rejects_a_zero_mean() {
        SimRng::from_seed_stream(1, 1).exp_us(0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed_stream(1, 1);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
