//! # rtds-workloads — workload pattern generators
//!
//! The paper evaluates the algorithms under three workload patterns
//! (Fig. 8): an **increasing ramp**, a **decreasing ramp**, and a
//! **triangular** pattern, each defined by a minimum and maximum workload
//! over a run of periods. [`PatternSpec`] names those three plus a family
//! of extensions (step, burst, sinusoid, bounded random walk) used by the
//! extension experiments.
//!
//! [`PatternSpec::build`] instantiates a spec over a [`WorkloadRange`] as
//! a [`Pattern`], which maps a period index to the number of data items
//! (`tracks`) arriving that period. Patterns are deterministic given their
//! parameters (and seed, where applicable); [`Pattern::tracks_at`] takes
//! `&mut self` only so that the random walk can memoize.
//!
//! ```
//! use rtds_workloads::{PatternSpec, WorkloadRange};
//! let mut tri = PatternSpec::Triangular { half_period: 50 }
//!     .build(WorkloadRange::new(500, 10_500));
//! assert_eq!(tri.tracks_at(0), 500);
//! assert_eq!(tri.tracks_at(50), 10_500);
//! assert_eq!(tri.tracks_at(100), 500);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Workload interval shared by the paper's patterns: minimum and maximum
/// tracks per period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct WorkloadRange {
    /// Minimum tracks per period.
    pub min: u64,
    /// Maximum tracks per period.
    pub max: u64,
}

impl WorkloadRange {
    /// Creates a range.
    ///
    /// # Panics
    /// Panics if `min > max`.
    pub fn new(min: u64, max: u64) -> Self {
        assert!(min <= max, "workload range inverted: {min} > {max}");
        WorkloadRange { min, max }
    }

    /// Linear interpolation: fraction 0 → min, 1 → max (clamped).
    pub fn lerp(&self, f: f64) -> u64 {
        let f = f.clamp(0.0, 1.0);
        (self.min as f64 + f * (self.max - self.min) as f64).round() as u64
    }
}

/// Which workload pattern drives a run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum PatternSpec {
    /// Paper Fig. 8, increasing ramp: "starts with the minimum workload
    /// and gradually increases the workload until it reaches the maximum",
    /// then holds at the maximum.
    Increasing {
        /// Periods to go min → max.
        ramp_periods: u64,
    },
    /// Paper Fig. 8, decreasing ramp: maximum down to minimum, then holds
    /// at the minimum.
    Decreasing {
        /// Periods to go max → min.
        ramp_periods: u64,
    },
    /// Paper Fig. 8, triangular: "alternates between workload increases
    /// and decreases" — a symmetric sawtooth starting at the minimum.
    Triangular {
        /// Periods per leg.
        half_period: u64,
    },
    /// Extension: square wave alternating the minimum and the maximum —
    /// the harshest test of adaptation speed.
    Step {
        /// Periods at the minimum.
        low: u64,
        /// Periods at the maximum.
        high: u64,
    },
    /// Extension: baseline workload with bursts to the maximum, each
    /// opening its cycle.
    Burst {
        /// Cycle length.
        every: u64,
        /// Burst width.
        width: u64,
    },
    /// Extension: sinusoid between the range bounds, starting at the
    /// minimum — a smooth analogue of the triangular pattern.
    Sinusoid {
        /// Wavelength in periods.
        wavelength: u64,
    },
    /// Extension: bounded random walk — starts mid-range and moves by a
    /// uniform step each period, clamped at the range bounds.
    RandomWalk {
        /// Maximum per-period step, tracks.
        max_step: u64,
        /// Walk seed.
        seed: u64,
    },
}

impl PatternSpec {
    /// Instantiates the pattern over a workload range.
    ///
    /// # Panics
    /// Panics on an empty ramp, leg, phase or wavelength, unless
    /// `0 < width < every` for a burst, and on a zero walk step or a
    /// single-point walk range.
    pub fn build(self, range: WorkloadRange) -> Pattern {
        let (mut state, mut memo) = (0, Vec::new());
        match self {
            PatternSpec::Increasing { ramp_periods } | PatternSpec::Decreasing { ramp_periods } => {
                assert!(ramp_periods > 0, "ramp needs at least one period");
            }
            PatternSpec::Triangular { half_period } => {
                assert!(half_period > 0, "triangle needs a positive half-period");
            }
            PatternSpec::Step { low, high } => {
                assert!(low > 0 && high > 0, "phases must be non-empty");
            }
            PatternSpec::Burst { every, width } => {
                assert!(width > 0 && width < every, "need 0 < width < every");
            }
            PatternSpec::Sinusoid { wavelength } => {
                assert!(wavelength > 0, "wavelength must be positive");
            }
            PatternSpec::RandomWalk { max_step, seed } => {
                assert!(max_step > 0, "walk needs a positive step");
                assert!(range.min < range.max, "walk needs a non-degenerate range");
                state = seed | 1; // xorshift state must be nonzero
                memo.push((range.min + range.max) / 2);
            }
        }
        Pattern { spec: self, range, state, memo }
    }

    /// Pattern family name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PatternSpec::Increasing { .. } => "increasing-ramp",
            PatternSpec::Decreasing { .. } => "decreasing-ramp",
            PatternSpec::Triangular { .. } => "triangular",
            PatternSpec::Step { .. } => "step",
            PatternSpec::Burst { .. } => "burst",
            PatternSpec::Sinusoid { .. } => "sinusoid",
            PatternSpec::RandomWalk { .. } => "random-walk",
        }
    }
}

/// A [`PatternSpec`] instantiated over a [`WorkloadRange`]: the
/// deterministic per-period workload source a task is driven by.
#[derive(Debug, Clone)]
pub struct Pattern {
    spec: PatternSpec,
    range: WorkloadRange,
    /// Random walk only: xorshift64* state.
    state: u64,
    /// Random walk only: the series so far, so sequential queries are
    /// O(1) amortized and random access replays the same draws.
    memo: Vec<u64>,
}

impl Pattern {
    /// Number of tracks arriving in period `period` (0-based).
    pub fn tracks_at(&mut self, period: u64) -> u64 {
        let range = self.range;
        match self.spec {
            PatternSpec::Increasing { ramp_periods } => {
                range.lerp(period.min(ramp_periods) as f64 / ramp_periods as f64)
            }
            PatternSpec::Decreasing { ramp_periods } => {
                range.lerp(1.0 - period.min(ramp_periods) as f64 / ramp_periods as f64)
            }
            PatternSpec::Triangular { half_period } => {
                let cycle = 2 * half_period;
                let pos = period % cycle;
                let f = if pos <= half_period {
                    pos as f64 / half_period as f64
                } else {
                    (cycle - pos) as f64 / half_period as f64
                };
                range.lerp(f)
            }
            PatternSpec::Step { low, high } => {
                if period % (low + high) < low {
                    range.min
                } else {
                    range.max
                }
            }
            PatternSpec::Burst { every, width } => {
                if period % every < width {
                    range.max
                } else {
                    range.min
                }
            }
            PatternSpec::Sinusoid { wavelength } => {
                let phase = period as f64 / wavelength as f64 * core::f64::consts::TAU;
                // Start at the minimum (like the triangle): use 1 - cos.
                range.lerp((1.0 - phase.cos()) / 2.0)
            }
            PatternSpec::RandomWalk { max_step, .. } => {
                let idx = usize::try_from(period).expect("period fits usize");
                while self.memo.len() <= idx {
                    let prev = *self.memo.last().expect("memo never empty");
                    let r = self.next_u64();
                    let step = r % (2 * max_step + 1);
                    let next = if step <= max_step {
                        prev.saturating_add(step)
                    } else {
                        prev.saturating_sub(step - max_step)
                    };
                    self.memo.push(next.clamp(range.min, range.max));
                }
                self.memo[idx]
            }
        }
    }

    /// Pattern family name for reports.
    pub fn name(&self) -> &'static str {
        self.spec.name()
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: plenty for workload jitter, no rand dependency here.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range() -> WorkloadRange {
        WorkloadRange::new(500, 10_500)
    }

    fn series(p: &mut Pattern, n: u64) -> Vec<u64> {
        (0..n).map(|i| p.tracks_at(i)).collect()
    }

    #[test]
    fn range_lerp_clamps_and_interpolates() {
        let r = range();
        assert_eq!(r.lerp(0.0), 500);
        assert_eq!(r.lerp(1.0), 10_500);
        assert_eq!(r.lerp(0.5), 5_500);
        assert_eq!(r.lerp(-1.0), 500);
        assert_eq!(r.lerp(2.0), 10_500);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        let _ = WorkloadRange::new(10, 5);
    }

    #[test]
    fn every_spec_has_a_stable_name_and_stays_in_range() {
        let range = WorkloadRange::new(100, 1_000);
        for (spec, name) in [
            (PatternSpec::Increasing { ramp_periods: 10 }, "increasing-ramp"),
            (PatternSpec::Decreasing { ramp_periods: 10 }, "decreasing-ramp"),
            (PatternSpec::Triangular { half_period: 5 }, "triangular"),
            (PatternSpec::Step { low: 2, high: 2 }, "step"),
            (PatternSpec::Burst { every: 5, width: 1 }, "burst"),
            (PatternSpec::Sinusoid { wavelength: 10 }, "sinusoid"),
            (PatternSpec::RandomWalk { max_step: 50, seed: 1 }, "random-walk"),
        ] {
            let mut p = spec.build(range);
            assert_eq!(spec.name(), name);
            assert_eq!(p.name(), name);
            for i in 0..20 {
                let v = p.tracks_at(i);
                assert!((100..=1_000).contains(&v), "{name} out of range: {v}");
            }
        }
    }

    #[test]
    fn increasing_ramp_goes_min_to_max_then_holds() {
        let mut p = PatternSpec::Increasing { ramp_periods: 100 }.build(range());
        assert_eq!(p.tracks_at(0), 500);
        assert_eq!(p.tracks_at(100), 10_500);
        assert_eq!(p.tracks_at(250), 10_500, "holds after the ramp");
        let s = series(&mut p, 101);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "monotone increase");
    }

    #[test]
    fn decreasing_ramp_goes_max_to_min_then_holds() {
        let mut p = PatternSpec::Decreasing { ramp_periods: 100 }.build(range());
        assert_eq!(p.tracks_at(0), 10_500);
        assert_eq!(p.tracks_at(100), 500);
        assert_eq!(p.tracks_at(400), 500);
        let s = series(&mut p, 101);
        assert!(s.windows(2).all(|w| w[0] >= w[1]), "monotone decrease");
    }

    #[test]
    fn triangular_oscillates_between_bounds() {
        let mut p = PatternSpec::Triangular { half_period: 50 }.build(range());
        assert_eq!(p.tracks_at(0), 500);
        assert_eq!(p.tracks_at(50), 10_500);
        assert_eq!(p.tracks_at(100), 500);
        assert_eq!(p.tracks_at(150), 10_500);
        // Symmetry of the two legs.
        assert_eq!(p.tracks_at(25), p.tracks_at(75));
    }

    #[test]
    fn triangular_covers_full_range_repeatedly() {
        let mut p = PatternSpec::Triangular { half_period: 30 }.build(range());
        let s = series(&mut p, 300);
        assert_eq!(*s.iter().min().unwrap(), 500);
        assert_eq!(*s.iter().max().unwrap(), 10_500);
        let peaks = s.iter().filter(|&&v| v == 10_500).count();
        assert!(peaks >= 4, "several peaks over 300 periods: {peaks}");
    }

    #[test]
    fn step_alternates_phases_with_right_lengths() {
        let mut p = PatternSpec::Step { low: 10, high: 5 }.build(range());
        let s = series(&mut p, 30);
        assert!(s[..10].iter().all(|&v| v == 500));
        assert!(s[10..15].iter().all(|&v| v == 10_500));
        assert!(s[15..25].iter().all(|&v| v == 500));
    }

    #[test]
    fn burst_is_high_only_during_bursts() {
        let mut p = PatternSpec::Burst { every: 20, width: 3 }.build(range());
        let s = series(&mut p, 60);
        let highs = s.iter().filter(|&&v| v == 10_500).count();
        assert_eq!(highs, 9, "3 bursts x 3 periods");
        assert_eq!(s[0], 10_500, "burst opens each cycle");
        assert_eq!(s[3], 500);
    }

    #[test]
    fn sinusoid_starts_at_min_peaks_mid_wavelength() {
        let mut p = PatternSpec::Sinusoid { wavelength: 100 }.build(range());
        assert_eq!(p.tracks_at(0), 500);
        assert_eq!(p.tracks_at(50), 10_500);
        assert_eq!(p.tracks_at(100), 500);
        let s = series(&mut p, 200);
        assert!(s.iter().all(|&v| (500..=10_500).contains(&v)));
    }

    fn walk(max_step: u64, seed: u64) -> Pattern {
        PatternSpec::RandomWalk { max_step, seed }.build(range())
    }

    #[test]
    fn random_walk_is_bounded_and_deterministic() {
        let sa = series(&mut walk(400, 42), 500);
        let sb = series(&mut walk(400, 42), 500);
        assert_eq!(sa, sb);
        assert!(sa.iter().all(|&v| (500..=10_500).contains(&v)));
        // It actually moves.
        let distinct: std::collections::HashSet<_> = sa.iter().collect();
        assert!(distinct.len() > 50, "walk explores: {}", distinct.len());
    }

    #[test]
    fn random_walk_different_seeds_differ() {
        assert_ne!(series(&mut walk(400, 2), 100), series(&mut walk(400, 4), 100));
    }

    #[test]
    fn random_walk_supports_random_access() {
        let direct = walk(100, 7).tracks_at(250);
        let sequential = series(&mut walk(100, 7), 251)[250];
        assert_eq!(direct, sequential);
    }
}
