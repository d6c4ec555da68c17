//! Degraded-network demo: the failure-realism layer in one table.
//!
//! Runs the same AAW scenario three times — over a clean bus, over a
//! lossy/jammed bus with no recovery, and over the same degraded bus with
//! sender-side retransmission — plus a crash–restart variant, and prints a
//! survivability comparison. This is the headline demonstration that (a)
//! message loss without recovery translates directly into missed
//! deadlines, and (b) timeout/retransmit with exponential backoff buys
//! most of that back at the cost of extra bus traffic.
//!
//! Run with: `cargo run --release --example degraded_network`

use rtds::prelude::*;
use rtds::sim::net::JamWindow;

struct Row {
    label: &'static str,
    result: ScenarioResult,
}

fn main() {
    let base = ScenarioConfig {
        pattern: PatternSpec::Triangular { half_period: 15 },
        policy: PolicySpec::Predictive,
        workload: WorkloadRange::new(500, 8_000),
        n_periods: 120,
        ambient_util: 0.10,
        seed: 42,
        scheduler: SchedulerKind::paper_baseline(),
        online_refinement: false,
        failures: Vec::new(),
        faults: FaultPlan::default(),
        observe: false,
    };
    let predictor = rtds::experiments::models::quick_predictor();

    // A 10% lossy bus that also loses a quarter of its bandwidth for two
    // seconds out of every twenty (periodic jamming).
    let degraded = FaultPlan {
        drop_prob: 0.10,
        dup_prob: 0.02,
        retx_timeout_us: 0, // losses are final
        jam: Some(JamWindow {
            start_us: 10_000_000,
            duration_us: 2_000_000,
            bandwidth_factor: 0.25,
            repeat_us: 20_000_000,
        }),
        crashes: Vec::new(),
    };
    let recovered = FaultPlan {
        // Comfortably above the worst-case wire time of a peak-load stage
        // message (~54 ms for 8k tracks), so timeouts mean loss, not haste.
        retx_timeout_us: 80_000,
        ..degraded.clone()
    };
    let crashy = FaultPlan {
        crashes: vec![CrashFault { node: 2, at_s: 40, restart_after_s: Some(10) }],
        ..recovered.clone()
    };

    let mut rows = Vec::new();
    for (label, faults) in [
        ("clean", FaultPlan::default()),
        ("degraded", degraded),
        ("degraded + retx", recovered),
        ("degraded + retx + crash", crashy),
    ] {
        let mut cfg = base.clone();
        cfg.faults = faults;
        println!("running '{label}'…");
        rows.push(Row { label, result: run_scenario(&cfg, &predictor) });
    }

    println!();
    println!(
        "{:<24} {:>8} {:>8} {:>8} {:>9} {:>7} {:>9} {:>9}",
        "scenario", "miss %", "cpu %", "net %", "replicas", "lost", "dropped", "retx"
    );
    for Row { label, result } in &rows {
        let s = &result.summary;
        let m = &result.metrics;
        println!(
            "{:<24} {:>8.2} {:>8.2} {:>8.2} {:>9.2} {:>7} {:>9} {:>9}",
            label,
            s.missed_deadline_pct,
            s.avg_cpu_util_pct,
            s.avg_net_util_pct,
            s.avg_replicas,
            m.messages_lost,
            m.messages_dropped,
            m.retransmits,
        );
    }
    println!();
    let m = &rows[2].result.metrics;
    println!(
        "retransmission recovered {} of {} corrupted messages ({} abandoned \
         after {} retries)",
        m.messages_dropped - m.messages_lost,
        m.messages_dropped,
        m.messages_lost,
        3, // BusConfig::retx_max_retries default
    );
}
