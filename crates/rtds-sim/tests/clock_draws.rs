//! The clock configuration's exact footprint on the kernel RNG stream.
//!
//! No timestamp reads a node's clock offset, so the clock configuration
//! shows in a run only through the kernel RNG draws it makes, and those
//! draws shift every later draw of the run. The counts pinned here are
//! part of the byte-identity contract: at construction, one offset and one
//! drift draw per node; at every sync round, one offset draw per node; and
//! no draw at all from an empty range.

use rtds_sim::perf::PHASE_NAMES;
use rtds_sim::prelude::*;

/// Runs an `n`-node cluster with no task, no load and the null controller
/// to a 35 s horizon and returns `(rng_draws, sync rounds)`.
fn draws(n: usize, clock: ClockConfig) -> (u64, u64) {
    let mut cluster = Cluster::new(ClusterConfig {
        n_nodes: n,
        clock,
        ..ClusterConfig::paper_baseline(42, SimDuration::from_secs(35))
    });
    cluster.enable_perf(None);
    let p = cluster.run().perf.expect("perf was enabled");
    let sync = PHASE_NAMES.iter().position(|&name| name == "clock_sync").unwrap();
    (p.rng_draws, p.events[sync])
}

#[test]
fn lan_clocks_draw_two_per_node_and_one_per_node_per_sync_round() {
    for n in [1, 3, 6, 16] {
        let (rng_draws, rounds) = draws(n, ClockConfig::lan_default());
        // 10 s sync rounds inside a 35 s horizon: at 10, 20 and 30 s.
        assert_eq!(rounds, 3);
        assert_eq!(rng_draws, 2 * n as u64 + n as u64 * rounds, "{n} nodes");
    }
}

#[test]
fn perfect_clocks_draw_nothing() {
    for n in [1, 6] {
        let (rng_draws, rounds) = draws(n, ClockConfig::perfect());
        assert_eq!(rounds, 3, "sync rounds are scheduled even with perfect clocks");
        assert_eq!(rng_draws, 0, "{n} nodes");
    }
}

#[test]
fn each_empty_range_skips_its_own_draw() {
    let lan = ClockConfig::lan_default();
    let drift_only = ClockConfig { sync_error_us: 0.0, ..lan };
    let error_only = ClockConfig { max_drift_ppm: 0.0, ..lan };
    for n in [1, 6] {
        let n64 = n as u64;
        assert_eq!(draws(n, drift_only), (n64, 3), "drift only, {n} nodes");
        assert_eq!(draws(n, error_only), (n64 + 3 * n64, 3), "error only, {n} nodes");
    }
}
