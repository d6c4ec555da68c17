//! Simulation time.
//!
//! All simulation time is kept in **microseconds** as unsigned integers, so
//! event ordering is exact and runs are bit-for-bit reproducible (no floating
//! point drift in the clock). [`SimTime`] is an absolute instant since the
//! start of the simulation; [`SimDuration`] is a span between instants.
//!
//! The paper's quantities of interest live at very different scales — a
//! 1 ms round-robin quantum, a 990 ms end-to-end deadline, a 6.4 µs
//! transmission time for a single 80-byte track on a 100 Mbps segment —
//! so microsecond resolution is the coarsest unit that represents all of
//! them exactly.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute instant of simulated time, in microseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microseconds since simulation start.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time since start in (possibly fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Time since start in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is actually later (useful when mixing skewed local clocks).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Exact duration since `earlier`.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier > self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Checked addition of a duration.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// The next instant that is a multiple of `period`, strictly after
    /// `self` unless `self` is already on the boundary.
    #[inline]
    pub fn align_up(self, period: SimDuration) -> SimTime {
        assert!(period.0 > 0, "align_up: zero period");
        let rem = self.0 % period.0;
        if rem == 0 {
            self
        } else {
            SimTime(self.0 - rem + period.0)
        }
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a span from fractional milliseconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_to_u64(ms * 1_000.0))
    }

    /// Builds a span from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Self::from_millis_f64(s * 1_000.0)
    }

    /// Raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Span in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked multiplication by an integer factor.
    #[inline]
    pub fn checked_mul(self, k: u64) -> Option<SimDuration> {
        self.0.checked_mul(k).map(SimDuration)
    }

    /// Multiplies by a non-negative float factor, rounding to the nearest
    /// microsecond.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        assert!(k.is_finite() && k >= 0.0, "mul_f64: factor must be finite and >= 0");
        SimDuration(round_to_u64((self.0 as f64) * k))
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

/// Rounds `x` to the nearest integer, ties away from zero, and saturates
/// at 0 and `u64::MAX`: the same result as
/// `x.round().min(u64::MAX as f64) as u64`, with no libm call. From 2^53
/// up every `f64` is an integer, so the (saturating) cast is exact; below
/// it `x - trunc(x)` is exact, so comparing it with 0.5 rounds. Below
/// 2^53 the conversions go through `i64`, exact there, because on x86_64
/// signed conversions are single instructions and unsigned ones are not.
///
/// NaN maps to 0, where the old expression gave `u64::MAX`; no caller can
/// pass one: [`SimDuration::from_millis_f64`] rejects non-finite input and
/// [`SimDuration::mul_f64`] asserts a finite factor.
#[inline(always)]
fn round_to_u64(x: f64) -> u64 {
    if x >= 9_007_199_254_740_992.0 {
        x as u64
    } else {
        let t = x as i64;
        (t + (x - t as f64 >= 0.5) as i64).max(0) as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(rhs.0 <= self.0, "SimDuration subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// Integer division: how many whole `rhs` spans fit in `self`.
    #[inline]
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_secs(2), SimTime::from_micros(2_000_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_micros(1_000_000));
    }

    #[test]
    fn time_plus_duration_round_trips() {
        let t = SimTime::from_millis(5);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn since_measures_elapsed() {
        let a = SimTime::from_micros(100);
        let b = SimTime::from_micros(350);
        assert_eq!(b.since(a), SimDuration::from_micros(250));
        assert_eq!(b.saturating_since(a), SimDuration::from_micros(250));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn since_panics_on_negative_elapsed() {
        let a = SimTime::from_micros(100);
        let b = SimTime::from_micros(350);
        let _ = a.since(b);
    }

    #[test]
    fn align_up_snaps_to_period_boundary() {
        let p = SimDuration::from_millis(10);
        assert_eq!(SimTime::from_micros(0).align_up(p), SimTime::from_micros(0));
        assert_eq!(SimTime::from_micros(1).align_up(p), SimTime::from_millis(10));
        assert_eq!(SimTime::from_millis(10).align_up(p), SimTime::from_millis(10));
        assert_eq!(SimTime::from_micros(10_001).align_up(p), SimTime::from_millis(20));
    }

    #[test]
    fn float_conversions_are_consistent() {
        let d = SimDuration::from_micros(1_500);
        assert!((d.as_millis_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_secs_f64() - 0.0015).abs() < 1e-12);
        assert_eq!(SimDuration::from_millis_f64(1.5), d);
        assert_eq!(SimDuration::from_secs_f64(0.0015), d);
    }

    #[test]
    fn from_millis_f64_clamps_pathological_inputs() {
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NEG_INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(1);
        assert_eq!(a + b, SimDuration::from_millis(4));
        assert_eq!(a - b, SimDuration::from_millis(2));
        assert_eq!(a * 3, SimDuration::from_millis(9));
        assert_eq!(a / 3, SimDuration::from_millis(1));
        assert_eq!(a / b, 3);
        assert_eq!(a % SimDuration::from_millis(2), SimDuration::from_millis(1));
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds_to_nearest_microsecond() {
        let d = SimDuration::from_micros(1000);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(500));
        assert_eq!(d.mul_f64(1.0004), SimDuration::from_micros(1000));
        assert_eq!(d.mul_f64(1.0006), SimDuration::from_micros(1001));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn round_to_u64_matches_libm_round_on_edges_and_random_draws() {
        let old = |x: f64| x.round().min(u64::MAX as f64) as u64;
        let check = |x: f64| assert_eq!(round_to_u64(x), old(x), "x = {x:e} ({:#x})", x.to_bits());
        let two = |e: i32| 2f64.powi(e);
        let mut edges = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            0.49999999999999994,
            two(52),
            two(53),
            two(64),
            u64::MAX as f64,
            -0.5,
            -1.0,
            -2.5,
            -two(53),
            -two(64),
            f64::MIN,
            f64::NEG_INFINITY,
        ];
        for k in [0.0, 1.0, 2.0, 1e3, 1e6, 4_503_599_627_370_495.0, two(52), two(53)] {
            for x in [k, k + 0.5] {
                edges.extend([x, x.next_down(), x.next_up()]);
            }
        }
        edges.into_iter().for_each(check);
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..1_000_000u32 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let x = match i % 3 {
                // Any non-negative, non-NaN bit pattern.
                0 => f64::from_bits(s >> 1),
                // A half-integer below 2^53 or a one-ULP neighbour.
                1 => {
                    let h = (s >> 12) as f64 + 0.5;
                    [h, h.next_down(), h.next_up()][(s % 3) as usize]
                }
                // Microsecond-scale products, as the call sites make.
                _ => (s >> 40) as f64 * ((s & 0xFFFF) as f64 / 4096.0),
            };
            if !x.is_nan() {
                check(x);
            }
        }
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(format!("{}", SimTime::from_micros(1_500)), "t=1.500ms");
        assert_eq!(format!("{}", SimDuration::from_millis(990)), "990.000ms");
    }

    #[test]
    fn checked_ops_detect_overflow() {
        assert!(SimTime::MAX.checked_add(SimDuration::from_micros(1)).is_none());
        assert!(SimDuration::MAX.checked_mul(2).is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }
}
