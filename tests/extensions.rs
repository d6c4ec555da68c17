//! Integration tests for the extension features: multi-task management,
//! online model refinement, control latency, and decentralized
//! coordination.

use rtds::arm::config::ArmConfig;
use rtds::arm::manager::{CompositeManager, ResourceManager};
use rtds::arm::predictor::analytic_predictor;
use rtds::dynbench::app::{aaw_task, surveillance_task, EVAL_DECIDE_STAGE, FILTER_STAGE};
use rtds::experiments::models::{quick_predictor, LINK_BPS};
use rtds::prelude::*;
use rtds::regression::BufferDelayModel;

fn comm() -> CommDelayModel {
    CommDelayModel::new(BufferDelayModel::from_slope(0.0005), LINK_BPS)
}

#[test]
fn two_tasks_coexist_under_composite_management() {
    let mut cluster = Cluster::new({
        let mut c = ClusterConfig::paper_baseline(11, SimDuration::from_secs(40));
        c.clock = ClockConfig::perfect();
        c
    });
    let aaw = aaw_task();
    let surv = surveillance_task(TaskId(1));
    cluster.add_task(aaw.clone(), Box::new(|i| 500 + (i % 15) * 800));
    cluster.add_task(surv.clone(), Box::new(|i| 500 + ((i + 7) % 15) * 600));
    let m0 = ResourceManager::new(ArmConfig::paper_predictive(), analytic_predictor(&aaw, comm()));
    let m1 = ResourceManager::new(ArmConfig::paper_predictive(), analytic_predictor(&surv, comm()))
        .for_task(TaskId(1));
    cluster.set_controller(Box::new(CompositeManager::new(vec![m0, m1])));
    let out = cluster.run();

    // Period records interleave the two tasks' releases; both must be
    // overwhelmingly deadline-clean (light-to-moderate combined load).
    let (mut aaw_ok, mut surv_ok) = (0, 0);
    for (i, p) in out.metrics.periods.iter().enumerate() {
        if p.missed == Some(false) {
            if i % 2 == 0 {
                aaw_ok += 1;
            } else {
                surv_ok += 1;
            }
        }
    }
    assert!(aaw_ok >= 35, "AAW task healthy: {aaw_ok}");
    assert!(surv_ok >= 35, "surveillance task healthy: {surv_ok}");
    // Each record carries the right per-task stage arity.
    for (i, p) in out.metrics.periods.iter().enumerate() {
        assert_eq!(p.replicas_per_stage.len(), if i % 2 == 0 { 5 } else { 3 });
    }
}

#[test]
fn total_periodic_workload_feeds_eq5_across_tasks() {
    // With two tasks, the controller's ControlContext.total_tracks must
    // be the sum of both tasks' current workloads.
    struct Probe {
        seen: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
    }
    impl Controller for Probe {
        fn on_period_boundary(
            &mut self,
            _c: &[PeriodObservation],
            ctx: &ControlContext,
        ) -> Vec<ControlAction> {
            self.seen.lock().unwrap().push(ctx.total_tracks());
            Vec::new()
        }
        fn name(&self) -> &'static str {
            "probe"
        }
    }
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut cluster = Cluster::new({
        let mut c = ClusterConfig::paper_baseline(12, SimDuration::from_secs(5));
        c.clock = ClockConfig::perfect();
        c
    });
    cluster.add_task(aaw_task(), Box::new(|_| 3_000));
    cluster.add_task(surveillance_task(TaskId(1)), Box::new(|_| 2_000));
    cluster.set_controller(Box::new(Probe { seen: seen.clone() }));
    cluster.run();
    let v = seen.lock().unwrap().clone();
    // After both tasks have released at least once, total = 5000.
    assert!(v.contains(&5_000), "{v:?}");
}

#[test]
fn composite_manager_supports_mixed_policies() {
    // Task 0 managed predictively, task 1 by the non-predictive rule —
    // policies coexist on one cluster without interfering.
    let mut cluster = Cluster::new({
        let mut c = ClusterConfig::paper_baseline(21, SimDuration::from_secs(30));
        c.clock = ClockConfig::perfect();
        c
    });
    let aaw = aaw_task();
    let surv = surveillance_task(TaskId(1));
    cluster.add_task(aaw.clone(), Box::new(|i| 500 + (i % 12) * 1_000));
    cluster.add_task(surv.clone(), Box::new(|i| 500 + ((i + 6) % 12) * 700));
    let m0 = ResourceManager::new(ArmConfig::paper_predictive(), analytic_predictor(&aaw, comm()));
    let m1 = ResourceManager::new(
        ArmConfig::paper_nonpredictive(),
        analytic_predictor(&surv, comm()),
    )
    .for_task(TaskId(1));
    cluster.set_controller(Box::new(CompositeManager::new(vec![m0, m1])));
    let out = cluster.run();
    let ok = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.missed == Some(false))
        .count();
    assert!(ok >= 50, "both tasks mostly healthy: {ok}");
    assert_eq!(out.metrics.rejected_actions, 0);
}

#[test]
fn incremental_policy_adapts_one_replica_at_a_time() {
    let p = quick_predictor();
    let scenario = ScenarioConfig {
        pattern: PatternSpec::Triangular { half_period: 10 },
        policy: PolicySpec::Incremental,
        workload: WorkloadRange::new(500, 14_000),
        n_periods: 50,
        ambient_util: 0.10,
        seed: 22,
        scheduler: SchedulerKind::paper_baseline(),
        online_refinement: false,
        failures: Vec::new(),
        faults: FaultPlan::default(),
        observe: false,
    };
    let r = run_scenario(&scenario, &p);
    assert_eq!(r.policy, "incremental");
    assert!(r.summary.avg_replicas > 1.0, "it replicates: {:?}", r.summary);
    // One-at-a-time growth: replica count never jumps by more than one
    // per stage per period.
    for w in r.metrics.periods.windows(2) {
        for (a, b) in w[0].replicas_per_stage.iter().zip(&w[1].replicas_per_stage) {
            assert!(
                *b <= a + 1,
                "incremental must not jump: {} -> {}",
                a,
                b
            );
        }
    }
}

#[test]
fn online_refinement_recovers_a_bad_prior() {
    // 3x underestimating predictor: without refinement the manager's
    // feedback loop over-replicates; with RLS it converges back to the
    // calibrated behaviour.
    use rtds::regression::ExecLatencyModel;
    let good = quick_predictor();
    let mut bad = good.clone();
    for j in 0..good.n_stages() {
        let m = good.exec_model(j);
        bad.set_exec_model(
            j,
            ExecLatencyModel::from_coefficients(
                [m.a[0] / 3.0, m.a[1] / 3.0, m.a[2] / 3.0],
                [m.b[0] / 3.0, m.b[1] / 3.0, m.b[2] / 3.0],
            ),
        );
    }
    let run = |refine: bool, predictor: &rtds::arm::predictor::Predictor| {
        let scenario = ScenarioConfig {
            pattern: PatternSpec::Triangular { half_period: 10 },
            policy: PolicySpec::Predictive,
            workload: WorkloadRange::new(500, 14_000),
            n_periods: 80,
            ambient_util: 0.10,
            seed: 13,
            scheduler: SchedulerKind::paper_baseline(),
            online_refinement: refine,
            failures: Vec::new(),
            faults: FaultPlan::default(),
            observe: false,
        };
        run_scenario(&scenario, predictor)
    };
    let calibrated = run(false, &good);
    let bad_static = run(false, &bad);
    let bad_refined = run(true, &bad);
    // Refinement pulls the mis-calibrated run toward the calibrated one.
    let gap_static = (bad_static.breakdown.combined - calibrated.breakdown.combined).abs();
    let gap_refined = (bad_refined.breakdown.combined - calibrated.breakdown.combined).abs();
    assert!(
        gap_refined < gap_static,
        "refinement must close the gap: static {gap_static:.2} vs refined {gap_refined:.2}"
    );
}

#[test]
fn act_every_gates_actions_but_not_monitoring() {
    let run = |act_every: u32| {
        let mut cluster = Cluster::new({
            let mut c = ClusterConfig::paper_baseline(14, SimDuration::from_secs(40));
            c.clock = ClockConfig::perfect();
            c
        });
        let mut pattern =
            rtds::workloads::Step::new(rtds::workloads::WorkloadRange::new(500, 14_000), 5, 5);
        cluster.add_task(
            aaw_task(),
            Box::new(move |i| rtds::workloads::Pattern::tracks_at(&mut pattern, i)),
        );
        let mut cfg = ArmConfig::paper_predictive();
        cfg.act_every = act_every;
        cluster.set_controller(Box::new(ResourceManager::new(cfg, quick_predictor())));
        cluster.run().metrics.summarize(&[2, 4])
    };
    let fast = run(1);
    let slow = run(4);
    // Slow control issues fewer placement changes…
    assert!(
        slow.placement_changes < fast.placement_changes,
        "slow {} vs fast {}",
        slow.placement_changes,
        fast.placement_changes
    );
    // …and both still adapt (some replication happens under the square
    // wave at 14k tracks).
    assert!(fast.avg_replicas > 1.0);
    assert!(slow.avg_replicas > 1.0);
}

#[test]
fn failures_via_scenario_config_reach_the_cluster() {
    let p = quick_predictor();
    let mut cfg = ScenarioConfig {
        pattern: PatternSpec::Triangular { half_period: 10 },
        policy: PolicySpec::Predictive,
        workload: WorkloadRange::new(500, 8_000),
        n_periods: 40,
        ambient_util: 0.0,
        seed: 15,
        scheduler: SchedulerKind::paper_baseline(),
        online_refinement: false,
        failures: vec![(4, 15)], // EvalDecide home dies at t = 15 s
        faults: FaultPlan::default(),
        observe: false,
    };
    let failed = run_scenario(&cfg, &p);
    cfg.failures.clear();
    let clean = run_scenario(&cfg, &p);
    assert!(clean.summary.missed_deadline_pct <= failed.summary.missed_deadline_pct);
    // The managed run survives: most post-failure periods complete.
    let post_ok = failed
        .metrics
        .periods
        .iter()
        .filter(|r| r.instance >= 20 && r.missed == Some(false))
        .count();
    assert!(post_ok >= 15, "post-failure recovery: {post_ok} clean periods");
}

/// The paper baseline with a per-period workload and, when `ambient`,
/// 10 % Poisson load on every node, managed by a decentralized
/// predictive manager (independent per-stage agents, frozen budgets,
/// a utilization view `staleness` periods old).
fn decentralized_cluster(
    seed: u64,
    secs: u64,
    staleness: usize,
    workload: WorkloadFn,
    ambient: bool,
) -> Cluster {
    let mut config = ClusterConfig::paper_baseline(seed, SimDuration::from_secs(secs));
    config.clock = ClockConfig::perfect();
    let mut cl = Cluster::new(config);
    cl.add_task(aaw_task(), workload);
    if ambient {
        for n in 0..6 {
            cl.add_load(Box::new(PoissonLoad::with_utilization(
                LoadGenId(n),
                NodeId(n),
                0.10,
                SimDuration::from_millis(2),
            )));
        }
    }
    let predictor = analytic_predictor(&aaw_task(), comm());
    cl.set_controller(Box::new(
        ResourceManager::new(ArmConfig::paper_predictive(), predictor).decentralized(staleness),
    ));
    cl
}

fn decentralized_summary(staleness: usize, max_tracks: u64, seed: u64) -> RunSummary {
    let workload = Box::new(move |i| 500 + (i % 15) * (max_tracks / 15));
    decentralized_cluster(seed, 60, staleness, workload, true)
        .run()
        .metrics
        .summarize(&[FILTER_STAGE, EVAL_DECIDE_STAGE])
}

#[test]
fn decentralized_manager_keeps_the_mission_alive() {
    let s = decentralized_summary(0, 13_000, 1);
    assert!(s.missed_deadline_pct < 10.0, "{s:?}");
    assert!(s.avg_replicas > 1.0, "it adapts: {s:?}");
}

#[test]
fn decentralized_stale_state_is_tolerated_but_not_free() {
    let fresh = decentralized_summary(0, 13_000, 2);
    let stale = decentralized_summary(5, 13_000, 2);
    // Both keep the mission alive; staleness may cost extra replicas or
    // placement churn, never a wedge.
    assert!(fresh.missed_deadline_pct <= 15.0);
    assert!(stale.missed_deadline_pct <= 15.0);
    assert!(stale.avg_replicas >= 1.0);
}

#[test]
fn decentralized_manager_repairs_node_failures_locally() {
    // Node 2 is the Filter home (replicable); node 1 hosts a
    // non-replicable stage, which the shared repair step re-homes too.
    for node in [NodeId(FILTER_STAGE as u32), NodeId(1)] {
        let mut cl = decentralized_cluster(3, 30, 2, Box::new(|_| 8_000), false);
        cl.fail_node_at(node, SimTime::from_secs(10));
        let out = cl.run();
        let late_ok = out
            .metrics
            .periods
            .iter()
            .filter(|p| p.instance >= 15 && p.missed == Some(false))
            .count();
        assert!(late_ok >= 10, "recovers after {node:?} fails: {late_ok}");
    }
}

#[test]
fn decentralized_mode_reports_its_name() {
    let predictor = analytic_predictor(&aaw_task(), comm());
    let m = ResourceManager::new(ArmConfig::paper_predictive(), predictor).decentralized(1);
    assert_eq!(Controller::name(&m), "decentralized");
}

#[test]
#[should_panic(expected = "invalid ARM configuration")]
fn decentralized_mode_rejects_an_invalid_config() {
    let mut cfg = ArmConfig::paper_predictive();
    cfg.monitor.shutdown_patience = 0;
    let _ = ResourceManager::new(cfg, analytic_predictor(&aaw_task(), comm())).decentralized(0);
}
