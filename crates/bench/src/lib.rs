//! # rtds-bench — hot-path bench harness
//!
//! The scenario builders behind `benches/hotpath.rs`, the one criterion
//! bench: it guards the simulator core's hot paths, gated in CI against a
//! host reference kernel. The paper's tables and figures are timed by
//! `run_all NAME --perf` and perfbench instead.

#![forbid(unsafe_code)]

use rtds_experiments::scenario::{PatternSpec, PolicySpec, ScenarioConfig};
use rtds_sim::cluster::{Cluster, ClusterApi, ClusterConfig};
use rtds_sim::ids::{LoadGenId, NodeId};
use rtds_sim::load::PoissonLoad;
use rtds_sim::metrics::RunMetrics;
use rtds_sim::time::SimDuration;

/// A short but representative evaluation scenario: 40 periods of the
/// triangular pattern at the pre-threshold high-workload point.
pub fn bench_scenario(pattern: PatternSpec, policy: PolicySpec) -> ScenarioConfig {
    ScenarioConfig { n_periods: 40, seed: 0xBE_0C4, ..ScenarioConfig::paper(pattern, policy, 12_000) }
}

/// A background-dominated variant of [`bench_scenario`]: same pipeline,
/// but ambient load at 45 % per node, so `BgPoll`/background-dispatch
/// volume dominates the event budget. This is the case the background
/// fast path targets.
pub fn bench_bg_heavy_scenario() -> ScenarioConfig {
    ScenarioConfig {
        ambient_util: 0.45,
        ..bench_scenario(
            PatternSpec::Triangular { half_period: 5 },
            PolicySpec::Predictive,
        )
    }
}

/// Runs a pure ambient-load cluster of `n_nodes` (no application task):
/// the large-cluster scaling case, where background event volume grows
/// linearly with node count and every node is eligible for boundary
/// elision. Returns the metrics so benches can keep the result live.
pub fn run_large_cluster(n_nodes: usize) -> RunMetrics {
    let mut cfg = ClusterConfig::paper_baseline(0xC1_05E ^ n_nodes as u64, SimDuration::from_secs(20));
    cfg.n_nodes = n_nodes;
    let mut cluster = Cluster::new(cfg);
    for n in 0..n_nodes {
        cluster.add_load(Box::new(PoissonLoad::with_utilization(
            LoadGenId(n as u32),
            NodeId(n as u32),
            0.60,
            SimDuration::from_millis(2),
        )));
    }
    cluster.run().metrics
}
