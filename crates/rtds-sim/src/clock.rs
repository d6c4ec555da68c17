//! The configured clock skew: parameters that no timestamp reads.
//!
//! The paper assumes "the clocks of the processors are synchronized using
//! an algorithm such as \[Mills95\]" (§3, item 12): NTP-style sync keeps
//! offsets bounded but not zero. The simulator stamps every observation
//! with global time, so no node-local clock is kept. A [`ClockConfig`]
//! still shapes a run in one way: the kernel makes the draws a drifting,
//! periodically re-synchronized clock per node would make, one offset and
//! one drift rate per node at construction and one fresh offset per node
//! at every `ClockSync` event, and those draws shift every later draw of
//! the kernel RNG stream. The values drawn are discarded.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Configuration of the clock-skew model.
#[derive(Debug, Clone, Copy)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ClockConfig {
    /// Maximum absolute drift rate in parts-per-million. One rate per node
    /// is drawn uniformly in `[-max, +max]`.
    pub max_drift_ppm: f64,
    /// Interval between synchronization rounds.
    pub sync_interval: SimDuration,
    /// Residual offset bound after a sync round, microseconds. Mills-style
    /// NTP on a LAN achieves sub-millisecond accuracy.
    pub sync_error_us: f64,
}

impl ClockConfig {
    /// A LAN profile consistent with \[Mills95\]-class synchronization:
    /// ±50 ppm oscillators, 10 s sync rounds, ≤500 µs residual error.
    pub fn lan_default() -> Self {
        ClockConfig {
            max_drift_ppm: 50.0,
            sync_interval: SimDuration::from_secs(10),
            sync_error_us: 500.0,
        }
    }

    /// Perfect clocks: no drift, no residual error. Useful for isolating
    /// algorithmic effects in tests.
    pub fn perfect() -> Self {
        ClockConfig {
            max_drift_ppm: 0.0,
            sync_interval: SimDuration::from_secs(10),
            sync_error_us: 0.0,
        }
    }

    /// The construction-time draws for `n` nodes: per node, an initial
    /// offset in `±sync_error_us`, then a drift rate in `±max_drift_ppm`.
    /// An empty range draws nothing.
    pub(crate) fn draw_initial(&self, n: usize, rng: &mut SimRng) {
        for _ in 0..n {
            rng.uniform_range(-self.sync_error_us, self.sync_error_us);
            rng.uniform_range(-self.max_drift_ppm, self.max_drift_ppm);
        }
    }

    /// The draws of one synchronization round for `n` nodes: a fresh
    /// offset in `±sync_error_us` per node, or nothing when the error
    /// bound is not positive.
    pub(crate) fn draw_sync_round(&self, n: usize, rng: &mut SimRng) {
        let e = self.sync_error_us;
        if e > 0.0 {
            for _ in 0..n {
                rng.uniform_range(-e, e);
            }
        }
    }
}
