//! Long-horizon soak test (ignored by default; run with
//! `cargo test -p rtds --test soak -- --ignored`).
//!
//! Exercises a full-length evaluation run (600 periods — the scale of the
//! paper's Fig. 8 traces) under the predictive manager with ambient load,
//! jittered releases, LAN clock skew, and two mid-run node failures, and
//! checks the run stays healthy and bounded.

use rtds::arm::config::ArmConfig;
use rtds::arm::manager::ResourceManager;
use rtds::dynbench::app::aaw_task;
use rtds::experiments::models::quick_predictor;
use rtds::prelude::*;

#[test]
#[ignore = "long-running soak; run explicitly"]
fn six_hundred_period_mission_stays_healthy() {
    let mut config = ClusterConfig::paper_baseline(0x50A1u64, SimDuration::from_secs(600));
    config.release_jitter_us = 100_000;
    let mut cluster = Cluster::new(config);
    let mut pattern =
        PatternSpec::Triangular { half_period: 40 }.build(WorkloadRange::new(500, 14_000));
    cluster.add_task(aaw_task(), Box::new(move |i| pattern.tracks_at(i)));
    for n in 0..6 {
        cluster.add_load(Box::new(PoissonLoad::with_utilization(
            LoadGenId(n),
            NodeId(n),
            0.10,
            SimDuration::from_millis(2),
        )));
    }
    cluster.set_controller(Box::new(ResourceManager::new(
        ArmConfig::paper_predictive(),
        quick_predictor(),
    )));
    cluster.fail_node_at(NodeId(5), SimTime::from_secs(200));
    cluster.fail_node_at(NodeId(0), SimTime::from_secs(400));
    let out = cluster.run();
    let s = out.metrics.summarize(&[2, 4]);

    assert!(s.released_periods >= 599, "every period released");
    assert!(
        s.missed_deadline_pct < 5.0,
        "healthy despite failures: {s:?}"
    );
    assert!(s.avg_replicas >= 1.0 && s.avg_replicas <= 6.0);
    // No runaway placement churn: bounded per period.
    assert!(
        s.placement_changes < 2 * s.released_periods as u64,
        "placement churn bounded: {}",
        s.placement_changes
    );
    // Latency distribution is sane.
    let d = out.metrics.latency_distribution().expect("completions");
    assert!(d.p99_ms < 2_000.0, "p99 {d:?}");
    assert!(d.n > 550);
}
