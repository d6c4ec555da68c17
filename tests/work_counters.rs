//! Exact deterministic work counters of two small fixed clusters.
//!
//! The counters a `PerfReport` carries — heap traffic, events by kind,
//! the three lane-fire counts and the RNG draws — are exact functions of
//! the inputs,
//! so any change to how the simulator schedules work (rather than how
//! long it takes) shows here as a mismatch. A refactor of the event
//! loop or the virtual lanes must leave every value below unchanged.
//! Wall times are not compared.

use rtds::arm::config::ArmConfig;
use rtds::arm::manager::ResourceManager;
use rtds::experiments::models::quick_predictor;
use rtds::experiments::scenario::PatternSpec;
use rtds::prelude::*;
use rtds::sim::perf::PHASE_NAMES;
use rtds::workloads::WorkloadRange;

/// Runs `cluster` with perf on and renders its deterministic counters as
/// `name=value` words. Event kinds that never fired are left out, so one
/// that starts firing shows up as a mismatch too.
fn counters(mut cluster: Cluster) -> String {
    cluster.enable_perf(None);
    let p = cluster.run().perf.expect("perf was enabled");
    let q = &p.queue;
    let mut words = vec![
        format!("scheduled={}", q.scheduled),
        format!("popped={}", q.popped),
        format!("cancelled={}", q.cancelled),
    ];
    for (name, n) in PHASE_NAMES.iter().zip(p.events) {
        if n > 0 {
            words.push(format!("{name}={n}"));
        }
    }
    words.push(format!("elided_dispatches={}", p.elided_dispatches));
    words.push(format!("elided_bg_polls={}", p.elided_bg_polls));
    words.push(format!("elided_bg_dispatches={}", p.elided_bg_dispatches));
    words.push(format!("rng_draws={}", p.rng_draws));
    words.join(" ")
}

/// Poisson ambient load on node `n` with a 2 ms mean demand.
fn poisson(n: u32, utilization: f64) -> Box<dyn LoadGenerator> {
    let demand = SimDuration::from_millis(2);
    Box::new(PoissonLoad::with_utilization(LoadGenId(n), NodeId(n), utilization, demand))
}

#[test]
fn paper_baseline_with_ambient_load_and_predictive_controller() {
    // Table 1's six nodes and AAW task under a triangular workload, 10 %
    // Poisson ambient load on every node, managed by the predictive
    // algorithm, for 40 periods.
    let config = ClusterConfig::paper_baseline(0x5EED, SimDuration::from_secs(40));
    let mut cluster = Cluster::new(config);
    let range = WorkloadRange::new(500, 10_000);
    let mut pattern = PatternSpec::Triangular { half_period: 5 }.build(range);
    cluster.add_task(aaw_task(), Box::new(move |period| pattern.tracks_at(period)));
    for n in 0..6 {
        cluster.add_load(poisson(n, 0.10));
    }
    let manager = ResourceManager::new(ArmConfig::paper_predictive(), quick_predictor());
    cluster.set_controller(Box::new(manager));
    assert_eq!(
        counters(cluster),
        "scheduled=2735 popped=2735 cancelled=0 period_release=41 dispatch=2114 \
         tx_complete=179 deliver=182 clock_sync=4 sample=400 elided_dispatches=22566 \
         elided_bg_polls=12126 elided_bg_dispatches=14036 rng_draws=24294"
    );
}

#[test]
fn ambient_only_round_robin_cluster() {
    // Sixteen round-robin (1 ms) nodes under 60 % Poisson load, no task
    // and no controller: nearly all work runs on the virtual lanes.
    let mut cluster = Cluster::new(ClusterConfig {
        n_nodes: 16,
        ..ClusterConfig::paper_baseline(7, SimDuration::from_secs(10))
    });
    for n in 0..16 {
        cluster.add_load(poisson(n, 0.6));
    }
    assert_eq!(
        counters(cluster),
        "scheduled=101 popped=101 cancelled=0 clock_sync=1 sample=100 \
         elided_dispatches=25386 elided_bg_polls=47809 elided_bg_dispatches=94936 rng_draws=95682"
    );
}

#[test]
fn ambient_only_cluster_with_a_crash_restart_and_a_permanent_failure() {
    // Eight task-less round-robin (1 ms) nodes under 60 % Poisson load.
    // Node 2 crashes at 1.5 s and restarts 0.75 s later; node 5 fails for
    // good at 3.25 s. Both nodes run background work only, so a kill
    // that finds one busy tears its pending slice boundary down with it.
    let mut cluster = Cluster::new(ClusterConfig {
        n_nodes: 8,
        ..ClusterConfig::paper_baseline(11, SimDuration::from_secs(5))
    });
    for n in 0..8 {
        cluster.add_load(poisson(n, 0.6));
    }
    cluster.crash_node_at(
        NodeId(2),
        SimTime::from_millis(1_500),
        Some(SimDuration::from_millis(750)),
    );
    cluster.fail_node_at(NodeId(5), SimTime::from_millis(3_250));
    assert_eq!(
        counters(cluster),
        "scheduled=53 popped=53 cancelled=0 sample=50 node_fail=1 node_crash=1 node_restart=1 \
         elided_dispatches=5841 elided_bg_polls=11314 elided_bg_dispatches=22777 rng_draws=22648"
    );
}
