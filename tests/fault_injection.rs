//! Survivability tests: node failures under adaptive management.
//!
//! "Continued availability of application functionality" is the paper's
//! stated motivation for decentralized adaptive resource management (§1);
//! these tests inject node deaths and verify the manager repairs replica
//! placements and the mission keeps meeting deadlines.

use rtds::arm::config::ArmConfig;
use rtds::arm::manager::ResourceManager;
use rtds::dynbench::app::{aaw_task, FILTER_STAGE};
use rtds::experiments::models::quick_predictor;
use rtds::prelude::*;

fn managed_cluster(seed: u64, horizon_s: u64, tracks: u64) -> Cluster {
    let mut config = ClusterConfig::paper_baseline(seed, SimDuration::from_secs(horizon_s));
    config.clock = ClockConfig::perfect();
    let mut cluster = Cluster::new(config);
    cluster.add_task(aaw_task(), Box::new(move |_| tracks));
    cluster.set_controller(Box::new(ResourceManager::new(
        ArmConfig::paper_predictive(),
        quick_predictor(),
    )));
    cluster
}

#[test]
fn spare_node_failure_is_invisible() {
    // Node 5 hosts nothing at low workload; killing it must not affect
    // the task at all.
    let run = |fail: bool| {
        let mut c = managed_cluster(1, 20, 2_000);
        if fail {
            c.fail_node_at(NodeId(5), SimTime::from_secs(5));
        }
        c.run()
    };
    let clean = run(false);
    let failed = run(true);
    let miss = |o: &rtds::sim::cluster::RunOutcome| {
        o.metrics.summarize(&[2, 4]).missed_deadline_pct
    };
    assert_eq!(miss(&clean), 0.0);
    assert_eq!(miss(&failed), 0.0, "spare failure must be invisible");
}

#[test]
fn home_node_failure_fails_inflight_then_recovers() {
    // Kill the Filter home node (p2) mid-run: the in-flight instance dies,
    // the manager re-homes the stage, and subsequent periods complete.
    let mut c = managed_cluster(2, 30, 6_000);
    c.enable_trace(100_000);
    c.fail_node_at(NodeId(FILTER_STAGE as u32), SimTime::from_millis(10_100));
    let out = c.run();

    // Some instance around the failure misses…
    let missed: Vec<u64> = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.missed == Some(true))
        .map(|p| p.instance)
        .collect();
    assert!(!missed.is_empty(), "the in-flight instance must be lost");
    assert!(
        missed.iter().all(|&i| (9..=13).contains(&i)),
        "losses confined to the failure window: {missed:?}"
    );
    // …and the tail of the run is clean again.
    let tail_misses = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.instance >= 15 && p.missed == Some(true))
        .count();
    assert_eq!(tail_misses, 0, "recovery after repair");
    // The repaired placement avoids the dead node forever after.
    for p in out.metrics.periods.iter().filter(|p| p.instance >= 13) {
        assert!(p.replicas_per_stage[FILTER_STAGE] >= 1);
    }
    // Trace contains the failure and a placement repair.
    let trace = out.trace.expect("tracing enabled");
    assert!(trace
        .events()
        .iter()
        .any(|(_, e)| matches!(e, TraceEvent::NodeFailed { node } if node.index() == FILTER_STAGE)));
    assert!(
        trace.events().iter().any(|(_, e)| matches!(e, TraceEvent::Placement { stage, nodes }
            if stage.subtask.index() == FILTER_STAGE
               && !nodes.iter().any(|n| n.index() == FILTER_STAGE))),
        "manager must re-place Filter off the dead node"
    );
}

#[test]
fn replica_host_failure_under_heavy_load_recovers() {
    // Heavy load forces replication; then one replica host dies. The
    // manager must keep the pipeline alive on the remaining nodes.
    let mut c = managed_cluster(3, 40, 14_000);
    c.fail_node_at(NodeId(5), SimTime::from_secs(20));
    let out = c.run();
    let late = |from: u64| {
        out.metrics
            .periods
            .iter()
            .filter(|p| p.instance >= from && p.missed.is_some())
            .filter(|p| p.missed == Some(true))
            .count()
    };
    // After a settling window the system is meeting deadlines again.
    assert!(
        late(26) <= 1,
        "post-failure steady state should be nearly clean ({} late misses)",
        late(26)
    );
    // The dead node hosts nothing after the failure settles.
    for p in &out.metrics.periods {
        if p.instance >= 25 {
            assert!(p.missed.is_some() || p.instance >= 39, "decided");
        }
    }
}

#[test]
fn multiple_failures_degrade_gracefully() {
    // Kill three of six nodes; with half the cluster gone at peak load the
    // system sheds/misses more but never wedges, and still completes
    // periods on the survivors.
    let mut c = managed_cluster(4, 40, 12_000);
    c.fail_node_at(NodeId(5), SimTime::from_secs(10));
    c.fail_node_at(NodeId(4), SimTime::from_secs(15)); // EvalDecide home!
    c.fail_node_at(NodeId(1), SimTime::from_secs(20)); // Preprocess home!
    let out = c.run();
    let completed_late = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.instance >= 30 && p.missed == Some(false))
        .count();
    assert!(
        completed_late >= 5,
        "the mission must keep completing periods on 3 surviving nodes \
         ({completed_late} clean periods after instance 30)"
    );
}

#[test]
fn failure_without_manager_is_fatal_for_the_stage() {
    // Null controller: once the Filter home dies, every later instance
    // dies with it. This is the counterfactual that makes the manager's
    // repair meaningful.
    let mut config = ClusterConfig::paper_baseline(5, SimDuration::from_secs(20));
    config.clock = ClockConfig::perfect();
    let mut c = Cluster::new(config);
    c.add_task(aaw_task(), Box::new(|_| 3_000));
    c.fail_node_at(NodeId(FILTER_STAGE as u32), SimTime::from_secs(5));
    let out = c.run();
    let after_failure_ok = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.instance >= 6 && p.missed == Some(false))
        .count();
    assert_eq!(after_failure_ok, 0, "no instance can pass a dead stage");
}

#[test]
fn crash_during_transmission_does_not_panic_and_counts_losses() {
    // Regression for the stale-TxComplete panic: crash the Sensor home
    // (p0) at a time when it is mid-transmission to the next stage. The
    // run must complete, and the aborted traffic must show up in
    // `messages_lost` and the trace rather than vanishing.
    let mut c = managed_cluster(7, 20, 12_000);
    c.enable_trace(100_000);
    // 12k tracks * 80 B ≈ 1 MB ≈ 80 ms wire time per hop: at 60 ms into
    // a period the first hop is reliably in flight.
    c.crash_node_at(NodeId(0), SimTime::from_millis(3_060), None);
    let out = c.run();
    assert!(out.metrics.messages_lost >= 1, "aborted traffic is accounted");
    let trace = out.trace.expect("tracing enabled");
    assert!(
        trace
            .events()
            .iter()
            .any(|(_, e)| matches!(e, TraceEvent::MessageLost { .. })),
        "lost messages are traced"
    );
    // p0 hosts the non-replicable Sensor stage: everything after the
    // crash misses, but the simulator itself never wedges or panics.
    assert!(out.metrics.periods.len() >= 20);
}

#[test]
fn messages_to_dead_nodes_count_as_lost() {
    // Null controller so nothing re-homes the dead stage: every period
    // keeps shipping stage data at the dead Filter node, and every one of
    // those deliveries must be accounted as lost.
    let mut config = ClusterConfig::paper_baseline(8, SimDuration::from_secs(12));
    config.clock = ClockConfig::perfect();
    let mut c = Cluster::new(config);
    c.add_task(aaw_task(), Box::new(|_| 2_000));
    c.enable_trace(100_000);
    c.crash_node_at(NodeId(FILTER_STAGE as u32), SimTime::from_secs(4), None);
    let out = c.run();
    assert!(
        out.metrics.messages_lost >= 5,
        "periods after the crash keep losing stage data: {}",
        out.metrics.messages_lost
    );
    let trace = out.trace.expect("tracing enabled");
    let lost_to_dead = trace
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::MessageLost { dst, .. }
            if dst.index() == FILTER_STAGE))
        .count();
    assert!(lost_to_dead >= 5, "losses name the dead destination: {lost_to_dead}");
}

#[test]
fn crash_restart_rejoins_and_manager_reuses_the_node() {
    // Crash the Filter home with a restart: the manager repairs the
    // placement while the node is down, the node rejoins cold, and the
    // tail of the mission is clean again.
    let mut c = managed_cluster(9, 40, 6_000);
    c.enable_trace(100_000);
    c.crash_node_at(
        NodeId(FILTER_STAGE as u32),
        SimTime::from_millis(10_100),
        Some(SimDuration::from_secs(8)),
    );
    let out = c.run();
    assert_eq!(out.metrics.node_restarts, 1);
    let trace = out.trace.expect("tracing enabled");
    assert_eq!(
        trace
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::NodeRestarted { node }
                if node.index() == FILTER_STAGE))
            .count(),
        1
    );
    // Failure handled like the legacy fail-stop: losses near the crash…
    assert!(out
        .metrics
        .periods
        .iter()
        .any(|p| p.missed == Some(true)));
    // …and a clean tail long after the restart.
    let tail_misses = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.instance >= 30 && p.missed == Some(true))
        .count();
    assert_eq!(tail_misses, 0, "post-restart steady state is clean");
}

#[test]
fn lossy_bus_with_retransmission_keeps_the_mission_alive() {
    let run = |drop_prob: f64, retx_timeout_us: u64| {
        let mut config = ClusterConfig::paper_baseline(10, SimDuration::from_secs(30));
        config.clock = ClockConfig::perfect();
        config.bus.drop_prob = drop_prob;
        config.bus.retx_timeout_us = retx_timeout_us;
        config.bus.retx_max_retries = 6;
        let mut c = Cluster::new(config);
        c.add_task(aaw_task(), Box::new(|_| 2_000));
        c.set_controller(Box::new(ResourceManager::new(
            ArmConfig::paper_predictive(),
            quick_predictor(),
        )));
        c.run()
    };
    let degraded = run(0.2, 30_000);
    assert!(degraded.metrics.messages_dropped > 0, "the bus really is lossy");
    assert!(degraded.metrics.retransmits > 0, "drops are being recovered");
    let completed = degraded
        .metrics
        .periods
        .iter()
        .filter(|p| p.missed == Some(false))
        .count();
    assert!(
        completed >= 25,
        "retransmission keeps periods completing: {completed}/31"
    );
}

#[test]
fn redundant_retransmissions_do_not_fail_satisfied_instances() {
    // Regression: with a retransmit timeout far shorter than the queueing
    // delay, the timer fires while the original copy is still queued and a
    // redundant copy is emitted. Once the original delivers, the leftover
    // copy may still be dropped by the lossy bus — that drop must NOT fail
    // the instance, whose stage already received the data.
    let mut config = ClusterConfig::paper_baseline(12, SimDuration::from_secs(30));
    config.clock = ClockConfig::perfect();
    config.bus.drop_prob = 0.15;
    // ~26 ms wire time per hop at this load vs a 2 ms timeout: every
    // message spawns redundant copies before its original delivers.
    config.bus.retx_timeout_us = 2_000;
    config.bus.retx_max_retries = 12;
    let mut c = Cluster::new(config);
    c.add_task(aaw_task(), Box::new(|_| 4_000));
    c.set_controller(Box::new(ResourceManager::new(
        ArmConfig::paper_predictive(),
        quick_predictor(),
    )));
    let out = c.run();
    assert!(out.metrics.retransmits > 0, "the timeout really is aggressive");
    assert!(out.metrics.messages_dropped > 0, "the bus really is lossy");
    let completed = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.missed == Some(false))
        .count();
    assert!(
        completed >= 25,
        "dropped redundant copies must not kill satisfied instances: \
         {completed}/{} completed",
        out.metrics.periods.len()
    );
}

#[test]
fn failure_realism_is_deterministic_end_to_end() {
    let run = || {
        let mut config = ClusterConfig::paper_baseline(11, SimDuration::from_secs(25));
        config.clock = ClockConfig::perfect();
        config.bus.drop_prob = 0.15;
        config.bus.dup_prob = 0.05;
        config.bus.retx_timeout_us = 25_000;
        let mut c = Cluster::new(config);
        c.add_task(aaw_task(), Box::new(|_| 4_000));
        c.set_controller(Box::new(ResourceManager::new(
            ArmConfig::paper_predictive(),
            quick_predictor(),
        )));
        c.crash_node_at(
            NodeId(FILTER_STAGE as u32),
            SimTime::from_millis(8_300),
            Some(SimDuration::from_secs(6)),
        );
        c.run()
    };
    let a = run();
    let b = run();
    let fingerprint = |o: &rtds::sim::cluster::RunOutcome| {
        (
            o.metrics
                .periods
                .iter()
                .map(|p| p.end_to_end)
                .collect::<Vec<_>>(),
            o.metrics.messages_lost,
            o.metrics.messages_dropped,
            o.metrics.messages_duplicated,
            o.metrics.retransmits,
            o.metrics.node_restarts,
        )
    };
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn dead_node_placement_actions_are_rejected() {
    // A controller that insists on placing replicas on a dead node gets
    // its actions rejected rather than corrupting the run.
    struct Insister;
    impl Controller for Insister {
        fn on_period_boundary(
            &mut self,
            _c: &[PeriodObservation],
            _ctx: &ControlContext,
        ) -> Vec<ControlAction> {
            vec![ControlAction::SetPlacement {
                task: TaskId(0),
                subtask: SubtaskIdx(2),
                nodes: vec![NodeId(2), NodeId(5)],
            }]
        }
        fn name(&self) -> &'static str {
            "insister"
        }
    }
    let mut config = ClusterConfig::paper_baseline(6, SimDuration::from_secs(10));
    config.clock = ClockConfig::perfect();
    let mut c = Cluster::new(config);
    c.add_task(aaw_task(), Box::new(|_| 1_000));
    c.set_controller(Box::new(Insister));
    c.fail_node_at(NodeId(5), SimTime::from_millis(500));
    let out = c.run();
    assert!(out.metrics.rejected_actions > 0, "dead-node placements rejected");
}

#[test]
fn small_trace_keeps_late_failures_past_its_capacity() {
    // A 16-event trace fills within the first period. A crash–restart
    // late in the run, on a lossy bus, must still leave its witnesses in
    // the trace: failure-class events are retained past capacity while
    // routine events are counted and dropped.
    const CAPACITY: usize = 16;
    let mut config = ClusterConfig::paper_baseline(13, SimDuration::from_secs(40));
    config.clock = ClockConfig::perfect();
    config.bus.drop_prob = 0.1;
    config.bus.retx_timeout_us = 30_000;
    config.bus.retx_max_retries = 6;
    let mut c = Cluster::new(config);
    c.add_task(aaw_task(), Box::new(|_| 3_000));
    c.set_controller(Box::new(ResourceManager::new(
        ArmConfig::paper_predictive(),
        quick_predictor(),
    )));
    c.enable_trace(CAPACITY);
    c.crash_node_at(
        NodeId(FILTER_STAGE as u32),
        SimTime::from_millis(32_100),
        Some(SimDuration::from_secs(4)),
    );
    let out = c.run();
    assert_eq!(out.metrics.node_restarts, 1);
    let trace = out.trace.expect("tracing enabled");
    assert!(trace.dropped() > 0, "the trace really overflowed");
    let events: Vec<&TraceEvent> = trace.events().iter().map(|(_, e)| e).collect();
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::NodeFailed { node }
            if node.index() == FILTER_STAGE)),
        "the late crash is retained"
    );
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::NodeRestarted { node }
            if node.index() == FILTER_STAGE)),
        "the late restart is retained"
    );
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::MessageLost { .. })),
        "terminal message losses are retained"
    );
    let ordinary = events.iter().filter(|e| !e.is_failure_class()).count();
    assert!(ordinary <= CAPACITY, "{ordinary} ordinary events stored");
}
