//! Quickstart: run the paper's system once and print the headline metrics.
//!
//! Builds the Table 1 cluster (6 nodes, round-robin CPUs, 100 Mbps shared
//! Ethernet), loads it with the AAW surveillance pipeline under a
//! triangular threat workload, lets the **predictive** resource manager
//! adapt, and prints the four evaluation metrics plus the combined metric.
//!
//! Run with: `cargo run --release --example quickstart`

use rtds::prelude::*;

fn main() {
    // A triangular workload oscillating between 500 and 12_000 tracks per
    // 1-second period — enough to force replication on the peaks.
    let scenario = ScenarioConfig {
        pattern: PatternSpec::Triangular { half_period: 15 },
        policy: PolicySpec::Predictive,
        workload: WorkloadRange::new(500, 12_000),
        n_periods: 120,
        ambient_util: 0.10,
        seed: 42,
        scheduler: SchedulerKind::paper_baseline(),
        online_refinement: false,
        failures: Vec::new(),
        faults: FaultPlan::default(),
        observe: false,
    };

    // The predictor normally comes from a profiling campaign
    // (`rtds::experiments::models::fitted_predictor()`); the analytic
    // variant is instant and close enough for a demo.
    let predictor = rtds::experiments::models::quick_predictor();

    println!("running {} periods of the AAW pipeline under a triangular workload…", scenario.n_periods);
    let result = run_scenario(&scenario, &predictor);

    let s = &result.summary;
    println!();
    println!("policy                 : {}", result.policy);
    println!("periods decided        : {}", s.decided_periods);
    println!("missed deadlines       : {:.2} %", s.missed_deadline_pct);
    println!("avg CPU utilization    : {:.2} %", s.avg_cpu_util_pct);
    println!("avg network utilization: {:.2} %", s.avg_net_util_pct);
    println!("avg subtask replicas   : {:.2}", s.avg_replicas);
    println!("placement changes      : {}", s.placement_changes);
    println!("combined metric        : {:.2}  (smaller is better)", result.breakdown.combined);
}
