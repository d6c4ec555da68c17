//! Observability-layer integration tests.
//!
//! The contract under test: enabling the trace and decision sinks is
//! *pure observation* — byte-identical results to an unobserved run —
//! while every placement change the manager makes is explained by a
//! decision record, and the exporters produce documents that actually
//! load in their target tools.

use std::path::PathBuf;

use rtds::arm::audit::DecisionArm;
use rtds::experiments::export::{chrome_trace, decisions_jsonl, validate_chrome_trace};
use rtds::experiments::models::quick_predictor;
use rtds::experiments::report::Table;
use rtds::experiments::scenario::{
    run_scenario, PatternSpec, PolicySpec, ScenarioConfig, ScenarioResult,
};
use rtds::experiments::sweep::{run_sweep, SweepConfig};
use rtds::sim::metrics::ResidualKind;
use rtds::sim::trace::TraceEvent;

fn observed(policy: PolicySpec) -> ScenarioResult {
    let mut cfg = ScenarioConfig::paper(
        PatternSpec::Triangular { half_period: 10 },
        policy,
        14_000,
    );
    cfg.n_periods = 40;
    cfg.observe = true;
    run_scenario(&cfg, &quick_predictor())
}

/// The golden-determinism guarantee: the quick sweep with *both* sinks
/// enabled must reproduce `tests/golden/fig9_quick.csv` byte for byte.
/// This is the same pipeline as `tests/golden.rs`, differing only in
/// `observe` — any divergence means observation perturbed the simulation.
#[test]
fn observed_sweep_is_byte_identical_to_golden() {
    let mut cfg = SweepConfig::quick(PatternSpec::Triangular { half_period: 10 });
    cfg.units = vec![4, 16, 28];
    cfg.n_periods = 40;
    cfg.threads = 1;
    cfg.observe = true;
    let points = run_sweep(&cfg, &quick_predictor());
    let mut t = Table::new(vec![
        "units",
        "policy",
        "missed_pct",
        "cpu_pct",
        "net_pct",
        "avg_replicas",
        "combined",
    ]);
    for p in &points {
        t.row(vec![
            p.units.to_string(),
            p.policy.name().to_string(),
            format!("{:.6}", p.missed_pct),
            format!("{:.6}", p.cpu_pct),
            format!("{:.6}", p.net_pct),
            format!("{:.6}", p.avg_replicas),
            format!("{:.6}", p.combined),
        ]);
    }
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig9_quick.csv");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden_path.display()));
    assert_eq!(
        t.to_csv(),
        golden,
        "enabling observability sinks changed simulation results (observer effect)"
    );
}

/// Every `Placement` trace event in a managed run must be matched by a
/// decision record at the same instant, for the same stage, choosing
/// exactly that replica set — i.e. no placement ever changes without an
/// audit trail saying why.
#[test]
fn every_placement_change_is_explained_by_a_decision() {
    for policy in [PolicySpec::Predictive, PolicySpec::NonPredictive] {
        let r = observed(policy);
        let trace = r.trace.as_ref().expect("trace sink enabled");
        let mut placements = 0;
        for (t, e) in trace.events() {
            if let TraceEvent::Placement { stage, nodes } = e {
                placements += 1;
                let explained = r.decisions.iter().any(|(dt, d)| {
                    dt == t
                        && d.task == stage.task.0
                        && d.stage == stage.subtask.0
                        && d.arm != DecisionArm::NoOp
                        && d.chosen == *nodes
                });
                assert!(
                    explained,
                    "{policy:?}: placement at {t} for {stage} -> {nodes:?} \
                     has no matching decision record"
                );
            }
        }
        assert!(placements > 0, "{policy:?}: scenario should change placements");
    }
}

/// The decision stream carries the paper's decision procedure: replicate
/// decisions from the predictive policy name candidates with forecasts
/// compared against the `dl(st) − sl` threshold.
#[test]
fn predictive_decisions_expose_forecasts_and_thresholds() {
    let r = observed(PolicySpec::Predictive);
    let replicate: Vec<_> = r
        .decisions
        .iter()
        .filter(|(_, d)| d.arm == DecisionArm::Replicate)
        .collect();
    assert!(!replicate.is_empty(), "heavy load must trigger replication");
    for (_, d) in &replicate {
        assert_eq!(d.policy, "predictive");
        assert!(d.threshold_ms > 0.0 && d.threshold_ms < d.budget_ms);
        assert!(
            !d.candidates.is_empty() || d.out_of_processors,
            "a replicate decision either examines candidates or records that \
             none were available"
        );
        for c in &d.candidates {
            assert!(c.eex_ms.is_some() && c.ecd_ms.is_some(), "predictive forecasts");
        }
        // Running out of processors (or a threshold already met) may keep
        // the set as-is, but replication never shrinks it.
        assert!(d.chosen.len() >= d.before.len());
    }
    assert!(
        replicate.iter().any(|(_, d)| d.chosen.len() > d.before.len()),
        "at least one replicate decision must actually grow a replica set"
    );
}

/// Exporters produce documents that re-parse and validate.
#[test]
fn exports_validate_against_their_schemas() {
    let r = observed(PolicySpec::Predictive);
    let doc = chrome_trace(r.trace.as_ref(), &r.decisions, None);
    let n = validate_chrome_trace(&doc).expect("exported Chrome trace validates");
    assert!(n > 0);
    assert!(doc.contains("ReplicateSubtask"));

    let jsonl = decisions_jsonl(&r.decisions);
    assert_eq!(jsonl.lines().count(), r.decisions.len());
    for line in jsonl.lines() {
        let v: rtds::experiments::serde_json::Value =
            rtds::experiments::serde_json::from_str(line).expect("valid JSON line");
        assert!(v["at_us"].as_u64().is_some());
        assert!(v["decision"]["policy"].as_str().is_some());
    }
}

/// Forecast-accuracy telemetry: predictive runs accumulate per-stage
/// residual statistics for both the Eq. (3) execution forecast and the
/// Eqs. (4)–(6) communication forecast; non-forecasting policies report
/// none.
#[test]
fn forecast_residuals_land_in_run_metrics() {
    let r = observed(PolicySpec::Predictive);
    let res = &r.metrics.forecast_residuals;
    assert!(!res.is_empty(), "predictive run must report residuals");
    for s in res {
        assert!(s.count > 0);
        assert!(s.mean_abs_err_ms().is_finite());
        assert!(s.max_abs_err_ms >= 0.0);
        assert!(s.max_abs_err_ms + 1e-12 >= s.mean_abs_err_ms());
    }
    assert!(res.iter().any(|s| matches!(s.kind, ResidualKind::Exec)));
    assert!(res.iter().any(|s| matches!(s.kind, ResidualKind::Comm)));

    let n = observed(PolicySpec::NonPredictive);
    assert!(
        n.metrics.forecast_residuals.is_empty(),
        "non-forecasting policies have no forecasts to score"
    );
}

/// The static policy makes no decisions, and disabled sinks yield no
/// artifacts at all.
#[test]
fn sinks_off_and_static_policy_yield_no_artifacts() {
    let r = observed(PolicySpec::None);
    assert!(r.decisions.is_empty(), "static policy makes no decisions");

    let mut cfg = ScenarioConfig::paper(
        PatternSpec::Triangular { half_period: 10 },
        PolicySpec::Predictive,
        14_000,
    );
    cfg.n_periods = 30;
    let r = run_scenario(&cfg, &quick_predictor());
    assert!(r.trace.is_none(), "no trace without opt-in");
    assert!(r.decisions.is_empty(), "no decisions without opt-in");
}
