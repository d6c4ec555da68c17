//! End-to-end integration tests across all workspace crates: simulator +
//! regression + benchmark app + resource manager + experiment harness.

use rtds::arm::config::ArmConfig;
use rtds::arm::manager::ResourceManager;
use rtds::dynbench::app::{aaw_task, EVAL_DECIDE_STAGE, FILTER_STAGE};
use rtds::experiments::models::{predictor_from_profile, quick_predictor};
use rtds::prelude::*;

fn quick_scenario(policy: PolicySpec, max_tracks: u64, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        pattern: PatternSpec::Triangular { half_period: 10 },
        policy,
        workload: WorkloadRange::new(500.min(max_tracks), max_tracks),
        n_periods: 50,
        ambient_util: 0.10,
        seed,
        scheduler: SchedulerKind::paper_baseline(),
        online_refinement: false,
        failures: Vec::new(),
        faults: FaultPlan::default(),
        observe: false,
    }
}

#[test]
fn full_pipeline_light_load_all_policies_agree() {
    let p = quick_predictor();
    let mut results = Vec::new();
    for policy in [PolicySpec::None, PolicySpec::Predictive, PolicySpec::NonPredictive] {
        let r = run_scenario(&quick_scenario(policy, 2_000, 1), &p);
        assert_eq!(
            r.summary.missed_deadline_pct, 0.0,
            "light load must be deadline-clean under {policy:?}"
        );
        results.push(r);
    }
    // No replication is needed, so all three behave identically on the
    // replica metric (the paper: "for smaller workloads where no
    // replication is needed, the performance of both algorithms is the
    // same").
    for r in &results {
        assert!(
            (r.summary.avg_replicas - 1.0).abs() < 0.05,
            "no replication at light load: {}",
            r.summary.avg_replicas
        );
    }
}

#[test]
fn adaptation_beats_static_placement_at_heavy_load() {
    let p = quick_predictor();
    let stat = run_scenario(&quick_scenario(PolicySpec::None, 16_000, 2), &p);
    let pred = run_scenario(&quick_scenario(PolicySpec::Predictive, 16_000, 2), &p);
    let nonp = run_scenario(&quick_scenario(PolicySpec::NonPredictive, 16_000, 2), &p);
    assert!(
        stat.summary.missed_deadline_pct > 5.0,
        "static must collapse: {:?}",
        stat.summary
    );
    assert!(pred.summary.missed_deadline_pct < stat.summary.missed_deadline_pct / 2.0);
    assert!(nonp.summary.missed_deadline_pct < stat.summary.missed_deadline_pct / 2.0);
}

#[test]
fn nonpredictive_overprovisions_relative_to_predictive() {
    let p = quick_predictor();
    // Just past the replication onset, where the predictive algorithm
    // still gets by with one or two replicas while the non-predictive one
    // grabs every idle node (cf. Fig. 9d's widest gap region).
    let pred = run_scenario(&quick_scenario(PolicySpec::Predictive, 10_500, 3), &p);
    let nonp = run_scenario(&quick_scenario(PolicySpec::NonPredictive, 10_500, 3), &p);
    assert!(
        nonp.summary.avg_replicas > pred.summary.avg_replicas + 0.2,
        "non-predictive {} vs predictive {}",
        nonp.summary.avg_replicas,
        pred.summary.avg_replicas
    );
}

#[test]
fn combined_metric_prefers_predictive_under_fluctuating_load() {
    // The paper's headline conclusion, at a workload high enough to need
    // replication but inside the pre-threshold band.
    let p = quick_predictor();
    let pred = run_scenario(&quick_scenario(PolicySpec::Predictive, 12_500, 4), &p);
    let nonp = run_scenario(&quick_scenario(PolicySpec::NonPredictive, 12_500, 4), &p);
    assert!(
        pred.breakdown.combined <= nonp.breakdown.combined + 1.0,
        "predictive {} vs non-predictive {}",
        pred.breakdown.combined,
        nonp.breakdown.combined
    );
}

#[test]
fn same_seed_reproduces_bit_identical_summaries() {
    let p = quick_predictor();
    let a = run_scenario(&quick_scenario(PolicySpec::Predictive, 13_000, 9), &p);
    let b = run_scenario(&quick_scenario(PolicySpec::Predictive, 13_000, 9), &p);
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.breakdown.combined, b.breakdown.combined);
    let lat_a: Vec<_> = a.metrics.periods.iter().map(|x| x.end_to_end).collect();
    let lat_b: Vec<_> = b.metrics.periods.iter().map(|x| x.end_to_end).collect();
    assert_eq!(lat_a, lat_b);
}

#[test]
fn different_seeds_change_details_not_orderings() {
    let p = quick_predictor();
    let a = run_scenario(&quick_scenario(PolicySpec::Predictive, 13_000, 10), &p);
    let b = run_scenario(&quick_scenario(PolicySpec::Predictive, 13_000, 11), &p);
    // Ambient Poisson load differs -> different exact latencies…
    let lat_a: Vec<_> = a.metrics.periods.iter().map(|x| x.end_to_end).collect();
    let lat_b: Vec<_> = b.metrics.periods.iter().map(|x| x.end_to_end).collect();
    assert_ne!(lat_a, lat_b, "seeds must matter");
    // …but the run is still deadline-clean-ish either way.
    assert!(a.summary.missed_deadline_pct < 20.0);
    assert!(b.summary.missed_deadline_pct < 20.0);
}

#[test]
fn profile_fitted_predictor_drives_the_manager() {
    // A miniature profiling campaign (coarse grid), fitted end to end,
    // then used for an actual managed run — the paper's full §4.2.1 loop.
    use rtds::dynbench::profile::{profile_buffer_delay, profile_execution, ProfileConfig};
    let cfg = ProfileConfig {
        utilizations_pct: vec![10.0, 40.0, 70.0],
        data_sizes: vec![1_000, 5_000, 10_000],
        periods_per_point: 3,
        warmup_periods: 1,
        seed: 5,
    };
    let task = aaw_task();
    let mut data = ProfileData::default();
    for (j, stage) in task.stages.iter().enumerate() {
        data.exec_samples.insert(j, profile_execution(stage.cost, &cfg));
    }
    data.buffer_samples = profile_buffer_delay(&cfg, 3);
    let fitted = data.fit_all();
    assert_eq!(fitted, 6, "5 stage models + 1 buffer model");
    let predictor = predictor_from_profile(&data);

    let r = run_scenario(&quick_scenario(PolicySpec::Predictive, 14_000, 6), &predictor);
    assert!(
        r.summary.missed_deadline_pct < 15.0,
        "fitted predictor must manage the load: {:?}",
        r.summary
    );
    assert!(r.summary.avg_replicas > 1.0, "replication happened");
}

#[test]
fn manager_stats_align_with_cluster_placement_changes() {
    let predictor = quick_predictor();
    let scenario = quick_scenario(PolicySpec::Predictive, 15_000, 7);
    // Re-run manually so we can hold onto the manager's stats.
    let mut config = ClusterConfig::paper_baseline(scenario.seed, SimDuration::from_secs(50));
    config.clock = ClockConfig::perfect();
    let mut cluster = Cluster::new(config);
    cluster.add_task(aaw_task(), Box::new(|i| 500 + (i % 20) * 700));
    cluster.set_controller(Box::new(ResourceManager::new(
        ArmConfig::paper_predictive(),
        predictor,
    )));
    let out = cluster.run();
    // Every placement change the cluster applied was a manager action; the
    // manager never emits no-op actions, so the counters agree.
    assert_eq!(out.metrics.rejected_actions, 0, "manager actions are always valid");
    assert!(out.metrics.placement_changes > 0);
}

#[test]
fn replica_counts_stay_within_cluster_bounds() {
    let p = quick_predictor();
    for policy in [PolicySpec::Predictive, PolicySpec::NonPredictive] {
        let r = run_scenario(&quick_scenario(policy, 17_500, 8), &p);
        for rec in &r.metrics.periods {
            for (j, &k) in rec.replicas_per_stage.iter().enumerate() {
                assert!(k >= 1, "stage {j} lost its last replica");
                assert!(k <= 6, "stage {j} exceeded the cluster: {k}");
                if j != FILTER_STAGE && j != EVAL_DECIDE_STAGE {
                    assert_eq!(k, 1, "non-replicable stage {j} was replicated");
                }
            }
        }
    }
}

#[test]
fn workload_patterns_feed_the_scenario_exactly() {
    let p = quick_predictor();
    let scenario = ScenarioConfig {
        pattern: PatternSpec::Increasing { ramp_periods: 40 },
        policy: PolicySpec::None,
        workload: WorkloadRange::new(1_000, 9_000),
        n_periods: 40,
        ambient_util: 0.0,
        seed: 12,
        scheduler: SchedulerKind::paper_baseline(),
        online_refinement: false,
        failures: Vec::new(),
        faults: FaultPlan::default(),
        observe: false,
    };
    let r = run_scenario(&scenario, &p);
    let tracks: Vec<u64> = r.metrics.periods.iter().map(|x| x.tracks).collect();
    assert_eq!(tracks[0], 1_000);
    assert!(tracks.windows(2).all(|w| w[0] <= w[1]), "ramp is monotone");
    assert_eq!(*tracks.last().unwrap(), 9_000);
}
