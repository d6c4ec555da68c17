//! Policy shootout: static vs predictive vs non-predictive, across
//! workload patterns.
//!
//! Runs the same mission under three management policies and four
//! workload patterns (the paper's three plus a square wave, the harshest
//! adaptation test) and prints one comparison table — a compact version of
//! the whole evaluation section.
//!
//! Run with: `cargo run --release --example policy_shootout`

use rtds::experiments::models::quick_predictor;
use rtds::prelude::*;

fn main() {
    let n_periods = 120u64;
    let patterns: Vec<(&str, PatternSpec)> = vec![
        ("increasing-ramp", PatternSpec::Increasing { ramp_periods: n_periods }),
        ("decreasing-ramp", PatternSpec::Decreasing { ramp_periods: n_periods }),
        ("triangular", PatternSpec::Triangular { half_period: 15 }),
        ("step", PatternSpec::Step { low: 10, high: 10 }),
    ];
    let policies = [
        PolicySpec::None,
        PolicySpec::Predictive,
        PolicySpec::NonPredictive,
    ];
    let predictor = quick_predictor();

    println!(
        "{:<16} {:<15} {:>8} {:>8} {:>8} {:>9} {:>9}",
        "pattern", "policy", "miss%", "cpu%", "net%", "replicas", "combined"
    );
    println!("{}", "-".repeat(80));
    for (name, pattern) in &patterns {
        for policy in policies {
            let scenario = ScenarioConfig {
                pattern: *pattern,
                policy,
                workload: WorkloadRange::new(500, 14_000),
                n_periods,
                ambient_util: 0.10,
                seed: 2024,
                scheduler: rtds::sim::sched::SchedulerKind::paper_baseline(),
                online_refinement: false,
                failures: Vec::new(),
                faults: FaultPlan::default(),
                observe: false,
            };
            let r = run_scenario(&scenario, &predictor);
            println!(
                "{:<16} {:<15} {:>8.2} {:>8.2} {:>8.2} {:>9.2} {:>9.2}",
                name,
                r.policy,
                r.summary.missed_deadline_pct,
                r.summary.avg_cpu_util_pct,
                r.summary.avg_net_util_pct,
                r.summary.avg_replicas,
                r.breakdown.combined,
            );
        }
        println!();
    }
    println!("combined metric: missed% + cpu% + net% + replica-use% (smaller is better)");
}
