//! Fast-path / reference-path equivalence: running ambient load on
//! virtual lanes (the only path the public API runs) must be invisible in
//! every observable — metrics, summaries, event traces, and
//! decision-audit records — against the reference heap-event path, across
//! seeds, workload patterns, fault plans, and CPU schedulers. This is the
//! contract that lets `tests/golden/` and the figure outputs stay
//! byte-stable. The reference path is reachable only through the
//! doc-hidden oracle seam `run_scenario_reference`.

use rtds::experiments::models::quick_predictor;
use rtds::experiments::scenario::{
    run_scenario, run_scenario_reference, CrashFault, FaultPlan, ObserveConfig, PatternSpec,
    PolicySpec, ScenarioConfig, ScenarioResult,
};
use rtds::workloads::WorkloadRange;
use rtds_sim::sched::SchedulerKind;

fn scenario(
    pattern: PatternSpec,
    seed: u64,
    (faults, failures): (FaultPlan, Vec<(u32, u64)>),
    scheduler: SchedulerKind,
) -> ScenarioConfig {
    ScenarioConfig {
        pattern,
        policy: PolicySpec::Predictive,
        workload: WorkloadRange::new(500, 10_000),
        n_periods: 30,
        ambient_util: 0.25,
        seed,
        scheduler,
        online_refinement: false,
        failures,
        faults,
        observe: ObserveConfig::full(),
    }
}

/// The faulty axis: a lossy, duplicating bus, a crash with restart of
/// node 2, and a mid-horizon permanent failure of node 4.
fn faulty() -> (FaultPlan, Vec<(u32, u64)>) {
    let plan = FaultPlan {
        drop_prob: 0.10,
        dup_prob: 0.05,
        retx_timeout_us: 20_000,
        jam: None,
        crashes: vec![CrashFault {
            node: 2,
            at_s: 8,
            restart_after_s: Some(3),
        }],
    };
    (plan, vec![(4, 15)])
}

/// Every observable of a run, rendered to comparable text. `RunMetrics`
/// intentionally has no `PartialEq` (it carries floats); the Debug
/// rendering is exact and catches any drifted field.
fn observables(r: &ScenarioResult) -> String {
    let trace = r.trace.as_ref().map(|t| t.render()).unwrap_or_default();
    let decisions = format!("{:?}", r.decisions);
    format!(
        "metrics={:?}\nsummary={:?}\nbreakdown={:?}\ntrace={trace}\ndecisions={decisions}",
        r.metrics, r.summary, r.breakdown,
    )
}

#[test]
fn fast_path_matches_slow_path_across_patterns_seeds_and_faults() {
    let predictor = quick_predictor();
    let patterns = [
        PatternSpec::Triangular { half_period: 5 },
        PatternSpec::Increasing { ramp_periods: 30 },
        PatternSpec::Step { low: 5, high: 5 },
    ];
    // The paper's round-robin 1 ms, plus the schedulers that take the
    // quantum-less arm of the dispatch path (FIFO, non-preemptive static
    // priority) and two other slice lengths.
    let schedulers = [
        SchedulerKind::paper_baseline(),
        SchedulerKind::Fifo,
        SchedulerKind::StaticPriority { quantum_us: None },
        SchedulerKind::StaticPriority { quantum_us: Some(1_000) },
        SchedulerKind::RoundRobin { quantum_us: 5_000 },
    ];
    for pattern in patterns {
        for scheduler in schedulers {
            for faults in [(FaultPlan::default(), Vec::new()), faulty()] {
                for seed in [0x5EED_u64, 1, 0xBAD_CAFE] {
                    let cfg = scenario(pattern, seed, faults.clone(), scheduler);
                    let fast = run_scenario(&cfg, &predictor);
                    let reference = run_scenario_reference(&cfg, &predictor);
                    assert_eq!(
                        observables(&fast),
                        observables(&reference),
                        "fast path diverged: pattern {pattern:?}, scheduler {scheduler:?}, \
                         seed {seed:#x}, faults active: {}",
                        faults.0.is_active(),
                    );
                }
            }
        }
    }
}

#[test]
fn fast_path_matches_slow_path_without_ambient_load() {
    // Degenerate case: no generators at all. The fast path must be a
    // strict no-op (no lanes ever armed).
    let predictor = quick_predictor();
    let mut cfg = scenario(
        PatternSpec::Triangular { half_period: 5 },
        7,
        (FaultPlan::default(), Vec::new()),
        SchedulerKind::paper_baseline(),
    );
    cfg.ambient_util = 0.0;
    assert_eq!(
        observables(&run_scenario(&cfg, &predictor)),
        observables(&run_scenario_reference(&cfg, &predictor)),
    );
}
