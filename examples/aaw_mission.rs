//! AAW mission timeline: watch the resource manager adapt, period by
//! period.
//!
//! Drives the five-subtask Anti-Air-Warfare pipeline through a threat
//! scenario — a calm patrol, a rapidly building raid, the engagement peak,
//! and the stand-down — and prints a per-period log of workload, replica
//! placement of the two replicable subtasks (Filter, EvalDecide),
//! end-to-end latency, and deadline outcome. This is the paper's Fig. 1
//! loop made visible.
//!
//! Run with: `cargo run --release --example aaw_mission`

use rtds::arm::config::ArmConfig;
use rtds::arm::manager::ResourceManager;
use rtds::dynbench::app::{aaw_task, EVAL_DECIDE_STAGE, FILTER_STAGE};
use rtds::prelude::*;

/// The raid profile: tracks per period over the 90-period mission.
fn raid_profile(period: u64) -> u64 {
    match period {
        0..=19 => 1_000,                          // patrol
        20..=39 => 1_000 + (period - 19) * 700,   // raid builds: +700/period
        40..=59 => 15_000,                        // engagement peak
        60..=79 => 15_000 - (period - 59) * 700,  // stand-down
        _ => 1_000,
    }
}

fn main() {
    let horizon_periods = 90u64;
    let mut config = ClusterConfig::paper_baseline(7, SimDuration::from_secs(horizon_periods));
    config.clock = ClockConfig::lan_default();
    let mut cluster = Cluster::new(config);
    cluster.add_task(aaw_task(), Box::new(raid_profile));
    for n in 0..6 {
        cluster.add_load(Box::new(PoissonLoad::with_utilization(
            LoadGenId(n),
            NodeId(n),
            0.10,
            SimDuration::from_millis(2),
        )));
    }
    let predictor = rtds::experiments::models::quick_predictor();
    cluster.set_controller(Box::new(ResourceManager::new(
        ArmConfig::paper_predictive(),
        predictor,
    )));
    cluster.enable_trace(200_000);

    let outcome = cluster.run();

    println!("period  tracks  filter-replicas  evaldecide-replicas  latency-ms  deadline");
    println!("--------------------------------------------------------------------------");
    for p in &outcome.metrics.periods {
        let latency = p
            .end_to_end
            .map(|d| format!("{:9.1}", d.as_millis_f64()))
            .unwrap_or_else(|| "        -".into());
        let verdict = match (p.shed, p.missed) {
            (true, _) => "SHED",
            (_, Some(true)) => "MISS",
            (_, Some(false)) => "ok",
            (_, None) => "…",
        };
        println!(
            "{:>6}  {:>6}  {:>15}  {:>19}  {}  {}",
            p.instance,
            p.tracks,
            p.replicas_per_stage[FILTER_STAGE],
            p.replicas_per_stage[EVAL_DECIDE_STAGE],
            latency,
            verdict
        );
    }

    let s = outcome.metrics.summarize(&[FILTER_STAGE, EVAL_DECIDE_STAGE]);
    println!();
    println!(
        "mission summary: {:.1}% missed, avg {:.2} replicas, {} placement changes",
        s.missed_deadline_pct, s.avg_replicas, s.placement_changes
    );
    let peak = outcome
        .metrics
        .periods
        .iter()
        .map(|p| p.replicas_per_stage[FILTER_STAGE])
        .max()
        .unwrap_or(1);
    println!("peak Filter replication during the raid: {peak} replicas");

    // Every placement decision the manager took, from the structured trace.
    if let Some(trace) = &outcome.trace {
        println!();
        println!("placement decisions:");
        for (t, e) in trace.events() {
            if let TraceEvent::Placement { stage, nodes } = e {
                println!("  {t} {stage} -> {nodes:?}");
            }
        }
    }
}
