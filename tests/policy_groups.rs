//! `run_policies` against standalone runs.
//!
//! A policy group simulates one run for every policy that acts exactly
//! like the first one and re-runs the others alone. Either way, each
//! policy's result must equal its own `run_scenario`: summary, breakdown,
//! raw metrics, name, decision records and rendered trace.

use rtds::experiments::export::chrome_trace;
use rtds::experiments::models::quick_predictor;
use rtds::experiments::scenario::{
    run_policies, run_scenario, CrashFault, FaultPlan, PatternSpec, PolicySpec, ScenarioConfig,
    ScenarioResult,
};
use rtds::sim::net::JamWindow;

use PolicySpec::{Incremental, NonPredictive, None as Static, Predictive};

const LOW: u64 = 2_000;
const HIGH: u64 = 14_000;

fn quick(max_tracks: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(
        PatternSpec::Triangular { half_period: 5 },
        Predictive,
        max_tracks,
    );
    cfg.n_periods = 40;
    cfg
}

/// Runs `cfg` as a group and each policy alone, and compares them.
/// Returns the group's results.
fn check(case: &str, cfg: &ScenarioConfig, policies: &[PolicySpec]) -> Vec<ScenarioResult> {
    let predictor = quick_predictor();
    let group = run_policies(cfg, policies, &predictor);
    assert_eq!(group.len(), policies.len(), "{case}");
    for (&policy, shared) in policies.iter().zip(&group) {
        let alone = run_scenario(&ScenarioConfig { policy, ..cfg.clone() }, &predictor);
        let what = format!("{case}, {}", policy.name());
        assert_eq!(shared.policy, alone.policy, "{what}");
        assert_eq!(shared.summary, alone.summary, "{what}");
        assert_eq!(shared.breakdown, alone.breakdown, "{what}");
        assert_eq!(
            format!("{:?}", shared.metrics),
            format!("{:?}", alone.metrics),
            "{what}: metrics"
        );
        assert_eq!(shared.decisions, alone.decisions, "{what}: decisions");
        assert_eq!(
            chrome_trace(shared.trace.as_ref(), &shared.decisions, None),
            chrome_trace(alone.trace.as_ref(), &alone.decisions, None),
            "{what}: trace"
        );
    }
    group
}

#[test]
fn low_load_pair_shares_one_quiet_run() {
    let group = check("low load", &quick(LOW), &[Predictive, NonPredictive]);
    assert!(group.iter().all(|r| r.summary.placement_changes == 0));
}

#[test]
fn high_load_pair_diverges() {
    let group = check("high load", &quick(HIGH), &[Predictive, NonPredictive]);
    assert_ne!(group[0].summary, group[1].summary, "the policies should act differently");
}

#[test]
fn three_policies_in_two_orders() {
    for max in [LOW, HIGH] {
        check("static first", &quick(max), &[Static, Incremental, Predictive]);
        check("static in the middle", &quick(max), &[Predictive, Static, Incremental]);
    }
}

#[test]
fn observed_groups_keep_each_policys_decisions() {
    for max in [LOW, HIGH] {
        let cfg = ScenarioConfig { observe: true, ..quick(max) };
        check("observed", &cfg, &[Predictive, NonPredictive, Incremental]);
    }
    // Two copies of one policy never diverge, so the second shares a run
    // full of actions: its decisions must still be its own records.
    let cfg = ScenarioConfig { observe: true, ..quick(HIGH) };
    let group = check("observed twin", &cfg, &[Predictive, Predictive]);
    assert!(group[1].summary.placement_changes > 0);
    assert!(!group[1].decisions.is_empty());
}

#[test]
fn online_refinement_groups() {
    for max in [LOW, HIGH] {
        let cfg = ScenarioConfig { online_refinement: true, ..quick(max) };
        check("online refinement", &cfg, &[Predictive, NonPredictive, Predictive]);
    }
}

#[test]
fn lossy_bus_with_crash_restarts() {
    let faults = FaultPlan {
        drop_prob: 0.10,
        dup_prob: 0.02,
        retx_timeout_us: 80_000,
        jam: Some(JamWindow {
            start_us: 10_000_000,
            duration_us: 2_000_000,
            bandwidth_factor: 0.25,
            repeat_us: 20_000_000,
        }),
        crashes: vec![
            CrashFault { node: 2, at_s: 12, restart_after_s: Some(4) },
            CrashFault { node: 4, at_s: 25, restart_after_s: Some(6) },
        ],
    };
    for max in [LOW, HIGH] {
        let cfg = ScenarioConfig {
            ambient_util: 0.0,
            online_refinement: true,
            faults: faults.clone(),
            ..quick(max)
        };
        check("degraded", &cfg, &[Predictive, NonPredictive]);
    }
}

#[test]
fn legacy_permanent_failures() {
    for max in [LOW, HIGH] {
        let cfg = ScenarioConfig { failures: vec![(5, 13), (4, 26)], ..quick(max) };
        check("failures", &cfg, &[Static, Predictive, NonPredictive]);
    }
}
