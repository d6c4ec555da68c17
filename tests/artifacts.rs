//! Artifact well-formedness: every figure runner must emit tables whose
//! CSV and JSON forms are parseable and mutually consistent, and the
//! run-metrics types must survive serde round-trips (they are the
//! persistence surface of the whole harness).

use rtds::experiments::figures::{patterns, tables, FigureOptions};
use rtds::experiments::models::quick_predictor;
use rtds::prelude::*;

fn opts(tag: &str) -> FigureOptions {
    FigureOptions::quick_for_tests(tag)
}

/// Minimal CSV parser sufficient for our own output (no embedded quotes
/// in the figures' numeric tables).
fn parse_csv(s: &str) -> Vec<Vec<String>> {
    s.lines()
        .map(|l| l.split(',').map(|c| c.trim_matches('"').to_string()).collect())
        .collect()
}

#[test]
fn figure_tables_round_trip_csv_and_json() {
    for fig in [tables::table1(&opts("art1")), patterns::fig8(&opts("art2"))] {
        for (name, table) in &fig.tables {
            let csv = table.to_csv();
            let rows = parse_csv(&csv);
            assert!(rows.len() >= 2, "{name}: header + data");
            let width = rows[0].len();
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(r.len(), width, "{name}: row {i} arity");
            }
            // JSON parses and has one object per data row with the same keys.
            let parsed: Vec<serde_json::Value> =
                serde_json::from_str(&table.to_json()).expect("valid JSON");
            assert_eq!(parsed.len(), rows.len() - 1, "{name}: JSON row count");
            for obj in &parsed {
                let map = obj.as_object().expect("objects");
                assert_eq!(map.len(), width, "{name}: JSON key count");
                for key in &rows[0] {
                    assert!(map.contains_key(key), "{name}: missing key {key}");
                }
            }
        }
    }
}

#[test]
fn saved_artifacts_land_on_disk_and_parse() {
    let o = opts("art-disk");
    let fig = tables::table1(&o);
    let paths = fig.save_csvs(&o.out_dir).expect("save");
    assert_eq!(paths.len(), 2, "CSV + JSON per table");
    for p in &paths {
        let content = std::fs::read_to_string(p).expect("readable");
        assert!(!content.is_empty());
        if p.extension().and_then(|e| e.to_str()) == Some("json") {
            let _: Vec<serde_json::Value> = serde_json::from_str(&content).expect("valid JSON");
        }
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn run_metrics_survive_serde_round_trip() {
    // Produce real metrics from a short managed run, then round-trip the
    // whole structure through JSON.
    let scenario = ScenarioConfig {
        pattern: PatternSpec::Triangular { half_period: 5 },
        policy: PolicySpec::Predictive,
        workload: WorkloadRange::new(500, 9_000),
        n_periods: 15,
        ambient_util: 0.10,
        seed: 77,
        scheduler: SchedulerKind::paper_baseline(),
        online_refinement: false,
        failures: vec![(5, 8)],
        faults: FaultPlan::default(),
        observe: false,
    };
    let r = run_scenario(&scenario, &quick_predictor());
    let json = serde_json::to_string(&r.metrics).expect("serialize");
    let back: rtds::sim::metrics::RunMetrics = serde_json::from_str(&json).expect("deserialize");

    assert_eq!(back.periods.len(), r.metrics.periods.len());
    assert_eq!(back.horizon, r.metrics.horizon);
    assert_eq!(back.placement_changes, r.metrics.placement_changes);
    assert_eq!(back.stage_records.len(), r.metrics.stage_records.len());
    for (a, b) in back.periods.iter().zip(&r.metrics.periods) {
        assert_eq!(a.instance, b.instance);
        assert_eq!(a.end_to_end, b.end_to_end);
        assert_eq!(a.missed, b.missed);
        assert_eq!(a.replicas_per_stage, b.replicas_per_stage);
    }
    // Summaries computed before and after the round trip agree.
    let s1 = r.metrics.summarize(&[2, 4]);
    let s2 = back.summarize(&[2, 4]);
    assert_eq!(s1, s2);
}

#[test]
fn latency_distribution_round_trips_and_orders() {
    let scenario = ScenarioConfig {
        pattern: PatternSpec::Increasing { ramp_periods: 12 },
        policy: PolicySpec::None,
        workload: WorkloadRange::new(500, 6_000),
        n_periods: 12,
        ambient_util: 0.0,
        seed: 3,
        scheduler: SchedulerKind::paper_baseline(),
        online_refinement: false,
        failures: Vec::new(),
        faults: FaultPlan::default(),
        observe: false,
    };
    let r = run_scenario(&scenario, &quick_predictor());
    let d = r.metrics.latency_distribution().expect("completions");
    assert!(d.min_ms <= d.p50_ms && d.p50_ms <= d.p95_ms);
    assert!(d.p95_ms <= d.p99_ms && d.p99_ms <= d.max_ms);
    assert!(d.mean_ms >= d.min_ms && d.mean_ms <= d.max_ms);
    let json = serde_json::to_string(&d).unwrap();
    let back: rtds::sim::metrics::LatencyDistribution = serde_json::from_str(&json).unwrap();
    assert_eq!(back, d);
}

#[test]
fn profile_data_artifact_from_campaign_is_loadable() {
    // The `profile` binary's artifact shape: build a small campaign,
    // save, reload, and verify the fitted models are usable.
    use rtds::dynbench::profile::{profile_execution, ProfileConfig};
    let cfg = ProfileConfig::quick(9);
    let mut data = ProfileData::default();
    data.exec_samples
        .insert(2, profile_execution(rtds::dynbench::filter_cost(), &cfg));
    data.fit_all();
    let dir = std::env::temp_dir().join("rtds-artifact-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile.json");
    data.save(&path).unwrap();
    let back = ProfileData::load(&path).unwrap();
    let m = back.exec_models.get(&2).expect("fitted model survives");
    assert!(m.predict(20.0, 40.0) > 0.0);
    std::fs::remove_file(&path).ok();
}
