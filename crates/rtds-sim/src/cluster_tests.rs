use super::*;
use crate::load::PeriodicLoad;
use crate::net::JamWindow;
use crate::pipeline::{PolynomialCost, StageSpec};

fn tiny_task(stage_costs: &[(f64, bool, u32)]) -> TaskSpec {
    TaskSpec {
        id: TaskId(0),
        name: "test".into(),
        period: SimDuration::from_secs(1),
        deadline: SimDuration::from_millis(990),
        track_bytes: 80,
        stages: stage_costs
            .iter()
            .map(|&(lin, replicable, home)| StageSpec {
                name: format!("s{home}"),
                cost: PolynomialCost::linear(lin, 1.0),
                replicable,
                home: NodeId(home),
                output_bytes_per_track: 80.0,
            })
            .collect(),
    }
}

fn config(horizon_s: u64) -> ClusterConfig {
    let mut c = ClusterConfig::paper_baseline(42, SimDuration::from_secs(horizon_s));
    c.clock = ClockConfig::perfect();
    c
}

#[test]
fn empty_cluster_runs_to_horizon() {
    let out = Cluster::new(config(5)).run();
    assert_eq!(out.metrics.horizon, SimDuration::from_secs(5));
    assert!(out.metrics.periods.is_empty());
    assert_eq!(out.controller, "none");
    assert!(out.metrics.cpu_lifetime_util.iter().all(|&u| u == 0.0));
}

#[test]
fn single_stage_task_completes_every_period() {
    let mut cl = Cluster::new(config(10));
    cl.add_task(tiny_task(&[(1.0, false, 0)]), Box::new(|_| 500));
    let out = cl.run();
    // 10 s horizon, 1 s period, releases at 0..=10.
    assert_eq!(out.metrics.periods.len(), 11);
    let decided = out.metrics.periods.iter().filter(|p| p.missed.is_some()).count();
    assert!(decided >= 10);
    for p in out.metrics.periods.iter().take(10) {
        assert_eq!(p.missed, Some(false), "unloaded stage must meet 990ms");
        let l = p.end_to_end.unwrap();
        // 500 tracks = 5 hundreds * 1 ms + 1 ms const = 6 ms of demand.
        assert!(l >= SimDuration::from_millis(6), "latency {l}");
        assert!(l < SimDuration::from_millis(20), "latency {l}");
    }
}

#[test]
fn pipeline_stages_run_in_series_across_nodes() {
    let mut cl = Cluster::new(config(6));
    cl.add_task(
        tiny_task(&[(1.0, false, 0), (1.0, false, 1), (1.0, false, 2)]),
        Box::new(|_| 1000),
    );
    let out = cl.run();
    let p = &out.metrics.periods[0];
    // 3 stages x (10 + 1) ms demand plus 2 network hops
    // (80 KB ≈ 6.7 ms wire time each).
    let l = p.end_to_end.unwrap();
    assert!(l >= SimDuration::from_millis(33 + 12), "latency {l}");
    assert!(l < SimDuration::from_millis(120), "latency {l}");
    assert_eq!(p.missed, Some(false));
    // Network was actually used.
    assert!(out.metrics.net_lifetime_util > 0.0);
    assert!(out.metrics.bytes_offered >= 2 * 80_000);
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        let mut cl = Cluster::new(config(8));
        cl.add_task(
            tiny_task(&[(2.0, false, 0), (3.0, false, 1)]),
            Box::new(|i| 300 + 40 * i),
        );
        cl.add_load(Box::new(PeriodicLoad::new(
            crate::ids::LoadGenId(0),
            NodeId(0),
            SimDuration::from_millis(10),
            0.3,
        )));
        cl.run()
    };
    let a = run();
    let b = run();
    let lat = |o: &RunOutcome| -> Vec<Option<SimDuration>> {
        o.metrics.periods.iter().map(|p| p.end_to_end).collect()
    };
    assert_eq!(lat(&a), lat(&b));
    assert_eq!(a.metrics.cpu_lifetime_util, b.metrics.cpu_lifetime_util);
}

#[test]
fn background_load_inflates_latency() {
    let latency_with_bg = |util: f64| {
        let mut cl = Cluster::new(config(20));
        cl.add_task(tiny_task(&[(10.0, false, 0)]), Box::new(|_| 1000));
        if util > 0.0 {
            cl.add_load(Box::new(PeriodicLoad::new(
                crate::ids::LoadGenId(0),
                NodeId(0),
                SimDuration::from_millis(10),
                util,
            )));
        }
        let out = cl.run();
        let ls: Vec<f64> = out
            .metrics
            .periods
            .iter()
            .filter_map(|p| p.end_to_end.map(|d| d.as_millis_f64()))
            .collect();
        ls.iter().sum::<f64>() / ls.len() as f64
    };
    let l0 = latency_with_bg(0.0);
    let l50 = latency_with_bg(0.5);
    let l80 = latency_with_bg(0.8);
    // Demand is ~101 ms; under RR with duty-cycle load the job is
    // stretched roughly by 1/(1-u).
    assert!(l50 > 1.6 * l0, "50% load should stretch: {l0} -> {l50}");
    assert!(l80 > 3.0 * l0, "80% load should stretch: {l0} -> {l80}");
    assert!(l50 < 3.0 * l0, "stretch should stay near 2x: {l0} -> {l50}");
}

#[test]
fn replicated_stage_fans_out_and_joins() {
    struct Replicator;
    impl Controller for Replicator {
        fn on_period_boundary(
            &mut self,
            _c: &[PeriodObservation],
            ctx: &ControlContext,
        ) -> Vec<ControlAction> {
            // Pin stage 1 to three replicas from the start.
            if ctx.placements[0][1].len() == 1 {
                vec![ControlAction::SetPlacement {
                    task: TaskId(0),
                    subtask: SubtaskIdx(1),
                    nodes: vec![NodeId(1), NodeId(2), NodeId(3)],
                }]
            } else {
                Vec::new()
            }
        }
        fn name(&self) -> &'static str {
            "replicator"
        }
    }
    let mut spec = tiny_task(&[(1.0, false, 0), (0.0, true, 1), (1.0, false, 4)]);
    // Quadratic cost on the replicable middle stage.
    spec.stages[1].cost = PolynomialCost::new(1.0, 0.0, 1.0);
    let mk = |replicated: bool| {
        let mut cl = Cluster::new(config(10));
        cl.add_task(spec.clone(), Box::new(|_| 3000));
        if replicated {
            cl.set_controller(Box::new(Replicator));
        }
        cl.run()
    };
    let base = mk(false);
    let repl = mk(true);
    let avg = |o: &RunOutcome| {
        let ls: Vec<f64> = o
            .metrics
            .periods
            .iter()
            .skip(2) // let the placement change take effect
            .filter_map(|p| p.end_to_end.map(|d| d.as_millis_f64()))
            .collect();
        ls.iter().sum::<f64>() / ls.len() as f64
    };
    // Quadratic stage: 30 hundreds -> 900 ms solo; in 3 replicas of 10
    // hundreds each -> 100 ms. End-to-end must drop dramatically.
    assert!(
        avg(&repl) < 0.5 * avg(&base),
        "replication must cut latency: {} vs {}",
        avg(&repl),
        avg(&base)
    );
    assert_eq!(repl.metrics.placement_changes, 1);
    // Replica counts recorded in the period records.
    assert!(repl
        .metrics
        .periods
        .iter()
        .skip(2)
        .all(|p| p.replicas_per_stage[1] == 3));
}

#[test]
fn overload_sheds_and_counts_missed() {
    // One stage with demand far beyond the period on one node.
    let mut spec = tiny_task(&[(0.0, false, 0)]);
    spec.stages[0].cost = PolynomialCost::new(0.0, 0.0, 5_000.0); // 5 s
    let mut cl = Cluster::new(config(30));
    cl.add_task(spec, Box::new(|_| 100));
    let out = cl.run();
    let shed = out.metrics.periods.iter().filter(|p| p.shed).count();
    assert!(shed > 10, "sustained overload must shed ({shed})");
    let missed = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.missed == Some(true))
        .count();
    assert!(missed >= shed);
}

#[test]
fn invalid_controller_actions_are_rejected_not_fatal() {
    struct Bad;
    impl Controller for Bad {
        fn on_period_boundary(
            &mut self,
            _c: &[PeriodObservation],
            _ctx: &ControlContext,
        ) -> Vec<ControlAction> {
            vec![
                ControlAction::SetPlacement {
                    task: TaskId(0),
                    subtask: SubtaskIdx(0),
                    nodes: vec![NodeId(0), NodeId(1)], // not replicable
                },
                ControlAction::SetPlacement {
                    task: TaskId(9),
                    subtask: SubtaskIdx(0),
                    nodes: vec![NodeId(0)], // no such task
                },
            ]
        }
        fn name(&self) -> &'static str {
            "bad"
        }
    }
    let mut cl = Cluster::new(config(3));
    cl.add_task(tiny_task(&[(1.0, false, 0)]), Box::new(|_| 100));
    cl.set_controller(Box::new(Bad));
    let out = cl.run();
    assert!(out.metrics.rejected_actions >= 2);
    assert_eq!(out.metrics.placement_changes, 0);
    assert!(out.metrics.periods.iter().take(3).all(|p| p.missed == Some(false)));
}

#[test]
fn cpu_utilization_metric_reflects_offered_load() {
    let mut cl = Cluster::new(config(30));
    cl.add_load(Box::new(PeriodicLoad::new(
        crate::ids::LoadGenId(0),
        NodeId(2),
        SimDuration::from_millis(10),
        0.42,
    )));
    let out = cl.run();
    let u = out.metrics.cpu_lifetime_util[2];
    assert!((u - 0.42).abs() < 0.02, "node 2 utilization {u}");
    assert!(out.metrics.cpu_lifetime_util[0] < 0.01);
    // Sampled (EWMA inputs) utilization rows were collected.
    assert!(out.metrics.cpu_samples.len() > 100);
}

#[test]
#[should_panic(expected = "task id must equal insertion index")]
fn add_task_enforces_dense_ids() {
    let mut cl = Cluster::new(config(1));
    let mut s = tiny_task(&[(1.0, false, 0)]);
    s.id = TaskId(3);
    cl.add_task(s, Box::new(|_| 0));
}

#[test]
#[should_panic(expected = "invalid task spec")]
fn add_task_validates_spec() {
    let mut cl = Cluster::new(config(1));
    cl.add_task(tiny_task(&[(1.0, false, 17)]), Box::new(|_| 0));
}

#[test]
fn replicated_predecessor_fans_into_narrow_successor() {
    // Stage 1 has 3 replicas, stage 2 has 1: three messages must all
    // arrive before stage 2 runs, and stage 2 must see the full stream.
    struct Pin;
    impl Controller for Pin {
        fn on_period_boundary(
            &mut self,
            _c: &[PeriodObservation],
            ctx: &ControlContext,
        ) -> Vec<ControlAction> {
            if ctx.placements[0][1].len() == 1 {
                vec![ControlAction::SetPlacement {
                    task: TaskId(0),
                    subtask: SubtaskIdx(1),
                    nodes: vec![NodeId(1), NodeId(2), NodeId(3)],
                }]
            } else {
                Vec::new()
            }
        }
        fn name(&self) -> &'static str {
            "pin"
        }
    }
    let mut spec = tiny_task(&[(1.0, false, 0), (0.0, true, 1), (1.0, false, 4)]);
    spec.stages[1].cost = PolynomialCost::linear(1.0, 1.0);
    let mut cl = Cluster::new(config(8));
    cl.add_task(spec, Box::new(|_| 3000));
    cl.set_controller(Box::new(Pin));
    let out = cl.run();
    // Every settled period after the placement change completes and
    // the final stage processed the whole 3000-track stream: its
    // demand is 30 + 1 = 31 ms, so end-to-end comfortably exceeds it.
    for p in out.metrics.periods.iter().skip(2).take(5) {
        assert_eq!(p.missed, Some(false));
        assert_eq!(p.replicas_per_stage, vec![1, 3, 1]);
        assert!(p.end_to_end.unwrap() >= SimDuration::from_millis(31 + 10 + 31));
    }
    // 3 replicas -> messages fan 3-into-1 across two hops: at least
    // 6 network messages per period after the change.
    assert!(out.metrics.messages_offered >= 6 * 6);
}

#[test]
fn static_priority_shields_stage_jobs_from_background_load() {
    // Stage jobs are admitted at priority 0, background at 1: under the
    // static-priority policy the application barely notices heavy
    // ambient load, unlike under round-robin.
    let latency_under = |kind: SchedulerKind| {
        let mut cfg = config(20);
        cfg.scheduler = kind;
        let mut cl = Cluster::new(cfg);
        cl.add_task(tiny_task(&[(10.0, false, 0)]), Box::new(|_| 1_000));
        cl.add_load(Box::new(PeriodicLoad::new(
            crate::ids::LoadGenId(0),
            NodeId(0),
            SimDuration::from_millis(10),
            0.7,
        )));
        let out = cl.run();
        let ls: Vec<f64> = out
            .metrics
            .periods
            .iter()
            .filter_map(|p| p.end_to_end.map(|d| d.as_millis_f64()))
            .collect();
        ls.iter().sum::<f64>() / ls.len() as f64
    };
    let rr = latency_under(SchedulerKind::paper_baseline());
    let prio = latency_under(SchedulerKind::StaticPriority {
        quantum_us: Some(1_000),
    });
    // Demand is ~101 ms; RR at 70% load stretches toward ~3x, while
    // priority keeps it near intrinsic (only the in-flight background
    // job can block, non-preemptively).
    assert!(prio < 1.3 * 101.0, "priority-shielded latency {prio}");
    assert!(rr > 2.0 * prio, "rr {rr} vs priority {prio}");
}

#[test]
fn contention_backoff_inflates_network_time() {
    // Enable a large CSMA backoff and fan one stage into three
    // replicas: the extra contention intervals inflate end-to-end
    // latency relative to the collision-free bus.
    let run = |backoff_us: u64| {
        let mut cfg = config(10);
        cfg.bus.max_backoff_us = backoff_us;
        let mut cl = Cluster::new(cfg);
        let mut spec = tiny_task(&[(1.0, false, 0), (0.0, true, 1), (1.0, false, 4)]);
        spec.stages[1].cost = PolynomialCost::linear(0.5, 1.0);
        cl.add_task(spec, Box::new(|_| 6_000));
        struct Pin;
        impl Controller for Pin {
            fn on_period_boundary(
                &mut self,
                _c: &[PeriodObservation],
                ctx: &ControlContext,
            ) -> Vec<ControlAction> {
                if ctx.placements[0][1].len() == 1 {
                    vec![ControlAction::SetPlacement {
                        task: TaskId(0),
                        subtask: SubtaskIdx(1),
                        nodes: vec![NodeId(1), NodeId(2), NodeId(3)],
                    }]
                } else {
                    Vec::new()
                }
            }
            fn name(&self) -> &'static str {
                "pin"
            }
        }
        cl.set_controller(Box::new(Pin));
        let out = cl.run();
        out.metrics
            .periods
            .iter()
            .skip(2)
            .filter_map(|p| p.end_to_end.map(|d| d.as_millis_f64()))
            .sum::<f64>()
    };
    let clean = run(0);
    let contended = run(20_000); // up to 20 ms per contention win
    assert!(
        contended > clean + 10.0,
        "backoff must cost latency: {clean} vs {contended}"
    );
}

#[test]
fn release_jitter_delays_arrivals_without_drift() {
    let mut cfg = config(30);
    cfg.release_jitter_us = 200_000; // up to 200 ms late
    let mut cl = Cluster::new(cfg);
    cl.add_task(tiny_task(&[(1.0, false, 0)]), Box::new(|_| 100));
    let out = cl.run();
    let mut jittered = 0;
    for p in &out.metrics.periods {
        let nominal = SimTime::from_secs(p.instance);
        let offset = p.released.saturating_since(nominal);
        assert!(
            offset <= SimDuration::from_millis(200),
            "jitter bounded: instance {} off by {offset}",
            p.instance
        );
        assert!(p.released >= nominal, "never early");
        if !offset.is_zero() {
            jittered += 1;
        }
    }
    assert!(jittered > 20, "most releases are jittered: {jittered}");
    // Jitter never accumulates: the 25th release is within one jitter
    // bound of its grid point (checked above for every instance).
}

#[test]
fn zero_jitter_keeps_exact_periodicity() {
    let mut cl = Cluster::new(config(10));
    cl.add_task(tiny_task(&[(1.0, false, 0)]), Box::new(|_| 100));
    let out = cl.run();
    for p in &out.metrics.periods {
        assert_eq!(p.released, SimTime::from_secs(p.instance));
    }
}

#[test]
fn zero_workload_periods_still_complete() {
    let mut cl = Cluster::new(config(5));
    cl.add_task(tiny_task(&[(1.0, false, 0), (1.0, false, 1)]), Box::new(|_| 0));
    let out = cl.run();
    for p in out.metrics.periods.iter().take(4) {
        assert_eq!(p.missed, Some(false));
        assert_eq!(p.tracks, 0);
    }
}

/// Regression: crashing a node while it holds the bus used to leave a
/// stale `TxComplete` event behind that hit
/// `expect("tx_complete with idle bus")`. The crash must be tolerated
/// and the aborted message accounted as lost.
#[test]
fn crash_mid_transmission_is_tolerated_and_counted() {
    // Stage 0 on p0 computes 31 ms then ships 240 KB (~20 ms wire
    // time) to p1; crashing p0 at 40 ms lands mid-transmission.
    let mut cl = Cluster::new(config(3));
    cl.enable_trace(4096);
    cl.add_task(tiny_task(&[(1.0, false, 0), (1.0, false, 1)]), Box::new(|_| 3000));
    cl.crash_node_at(NodeId(0), SimTime::from_millis(40), None);
    let out = cl.run();
    assert!(out.metrics.messages_lost >= 1, "aborted in-flight message counts as lost");
    let trace = out.trace.expect("trace enabled");
    assert!(
        trace.events().iter().any(|(_, e)| matches!(e, TraceEvent::MessageLost { .. })),
        "loss is traced:\n{}",
        trace.render()
    );
    // With the only first-stage processor gone, later periods miss.
    assert!(out.metrics.periods.iter().any(|p| p.missed == Some(true)));
}

#[test]
fn crash_restart_rejoins_and_periods_recover() {
    // p1 hosts the second stage. Crash it at 2.5 s, restart at 4.5 s:
    // periods released in the outage window miss (their messages land
    // on a dead node and count as lost), later ones complete again.
    let mut cl = Cluster::new(config(10));
    cl.enable_trace(4096);
    cl.add_task(tiny_task(&[(1.0, false, 0), (1.0, false, 1)]), Box::new(|_| 500));
    cl.crash_node_at(
        NodeId(1),
        SimTime::from_millis(2_500),
        Some(SimDuration::from_secs(2)),
    );
    let out = cl.run();
    assert_eq!(out.metrics.node_restarts, 1);
    assert!(out.metrics.messages_lost >= 1, "dead-destination deliveries count as lost");
    let trace = out.trace.expect("trace enabled");
    assert_eq!(
        trace
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::NodeRestarted { node } if *node == NodeId(1)))
            .count(),
        1
    );
    for p in &out.metrics.periods {
        let s = p.released.as_secs_f64();
        if s < 2.0 {
            assert_eq!(p.missed, Some(false), "pre-crash instance {}", p.instance);
        } else if (3.0..4.0).contains(&s) {
            assert_eq!(p.missed, Some(true), "outage instance {}", p.instance);
        } else if (5.0..9.0).contains(&s) {
            assert_eq!(p.missed, Some(false), "post-restart instance {}", p.instance);
        }
    }
}

#[test]
fn lossy_bus_with_retransmit_recovers() {
    let mut cfg = config(20);
    cfg.bus.drop_prob = 0.3;
    cfg.bus.retx_timeout_us = 20_000;
    cfg.bus.retx_max_retries = 6;
    let mut cl = Cluster::new(cfg);
    cl.add_task(tiny_task(&[(1.0, false, 0), (1.0, false, 1)]), Box::new(|_| 1000));
    let out = cl.run();
    assert!(out.metrics.messages_dropped > 0, "a 30% lossy bus drops something");
    assert!(out.metrics.retransmits > 0, "drops trigger retransmissions");
    let completed = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.missed == Some(false))
        .count();
    assert!(
        completed >= 18,
        "retransmission recovers almost every period: {completed}/21"
    );
}

#[test]
fn without_retransmit_losses_become_missed_deadlines() {
    let mut cfg = config(20);
    cfg.bus.drop_prob = 0.3; // no retx_timeout_us: losses are final
    let mut cl = Cluster::new(cfg);
    cl.add_task(tiny_task(&[(1.0, false, 0), (1.0, false, 1)]), Box::new(|_| 1000));
    let out = cl.run();
    assert!(out.metrics.messages_dropped > 0);
    assert_eq!(out.metrics.retransmits, 0);
    let missed = out
        .metrics
        .periods
        .iter()
        .filter(|p| p.missed == Some(true))
        .count();
    assert!(missed >= 2, "unrecovered losses must miss deadlines: {missed}");
}

#[test]
fn duplicates_are_suppressed_and_change_nothing() {
    let run = |dup_prob: f64| {
        let mut cfg = config(10);
        cfg.bus.dup_prob = dup_prob;
        let mut cl = Cluster::new(cfg);
        cl.add_task(tiny_task(&[(1.0, false, 0), (1.0, false, 1)]), Box::new(|_| 1000));
        cl.run()
    };
    let clean = run(0.0);
    let dupped = run(1.0);
    assert_eq!(clean.metrics.messages_duplicated, 0);
    assert!(dupped.metrics.messages_duplicated > 0);
    // Receiver-side suppression makes duplication behaviorally inert:
    // every latency matches the clean run exactly.
    let lat = |o: &RunOutcome| -> Vec<Option<SimDuration>> {
        o.metrics.periods.iter().map(|p| p.end_to_end).collect()
    };
    assert_eq!(lat(&clean), lat(&dupped));
}

#[test]
fn jam_window_inflates_end_to_end_latency() {
    let run = |jam: Option<JamWindow>| {
        let mut cfg = config(10);
        cfg.bus.jam = jam;
        let mut cl = Cluster::new(cfg);
        cl.add_task(tiny_task(&[(1.0, false, 0), (1.0, false, 1)]), Box::new(|_| 3000));
        let out = cl.run();
        let ls: Vec<f64> = out
            .metrics
            .periods
            .iter()
            .filter_map(|p| p.end_to_end.map(|d| d.as_millis_f64()))
            .collect();
        ls.iter().sum::<f64>() / ls.len() as f64
    };
    let clean = run(None);
    let jammed = run(Some(JamWindow {
        start_us: 0,
        duration_us: 10_000_000,
        bandwidth_factor: 0.25,
        repeat_us: 0,
    }));
    // 240 KB at quarter bandwidth adds ~60 ms per period.
    assert!(
        jammed > clean + 40.0,
        "jamming must stretch the wire: {clean} vs {jammed}"
    );
}

#[test]
fn failure_realism_runs_are_deterministic() {
    let run = || {
        let mut cfg = config(15);
        cfg.bus.drop_prob = 0.2;
        cfg.bus.dup_prob = 0.1;
        cfg.bus.retx_timeout_us = 20_000;
        let mut cl = Cluster::new(cfg);
        cl.add_task(tiny_task(&[(1.0, false, 0), (1.0, false, 1)]), Box::new(|_| 1000));
        cl.crash_node_at(
            NodeId(1),
            SimTime::from_millis(4_200),
            Some(SimDuration::from_secs(3)),
        );
        cl.run()
    };
    let a = run();
    let b = run();
    let lat = |o: &RunOutcome| -> Vec<Option<SimDuration>> {
        o.metrics.periods.iter().map(|p| p.end_to_end).collect()
    };
    assert_eq!(lat(&a), lat(&b));
    assert_eq!(a.metrics.messages_dropped, b.metrics.messages_dropped);
    assert_eq!(a.metrics.messages_duplicated, b.metrics.messages_duplicated);
    assert_eq!(a.metrics.retransmits, b.metrics.retransmits);
    assert_eq!(a.metrics.messages_lost, b.metrics.messages_lost);
}

/// A cluster on the lane fast path, or on the reference heap-event path
/// (the equivalence oracle) when `fast` is false.
fn cluster_on_path(cfg: ClusterConfig, fast: bool) -> Cluster {
    if fast {
        Cluster::new(cfg)
    } else {
        Cluster::reference(cfg)
    }
}

/// Mean of node `n`'s sampled utilization over sample rows
/// `[from, to)` (rows land every 100 ms).
fn mean_util(out: &RunOutcome, node: usize, from: usize, to: usize) -> f64 {
    let rows = &out.metrics.cpu_samples[from..to];
    rows.iter().map(|r| r[node]).sum::<f64>() / rows.len() as f64
}

#[test]
fn background_load_resumes_after_crash_restart() {
    // Regression for the dead-generator bug: `on_bg_poll` used to
    // return without rescheduling when its node was down, so ambient
    // load never came back after a crash–restart and post-restart
    // slack was silently flattered. Utilization before the crash must
    // match utilization after recovery, in both engine modes.
    for fast in [true, false] {
        let mut cl = cluster_on_path(config(30), fast);
        cl.add_load(Box::new(PeriodicLoad::new(
            crate::ids::LoadGenId(0),
            NodeId(2),
            SimDuration::from_millis(10),
            0.42,
        )));
        cl.crash_node_at(
            NodeId(2),
            SimTime::from_secs(10),
            Some(SimDuration::from_secs(2)),
        );
        let out = cl.run();
        assert_eq!(out.metrics.node_restarts, 1);
        // Rows land at 0.1 s, 0.2 s, …: row i covers (i*0.1, (i+1)*0.1].
        let before = mean_util(&out, 2, 20, 95);
        let outage = mean_util(&out, 2, 105, 115);
        let after = mean_util(&out, 2, 145, 295);
        assert!((before - 0.42).abs() < 0.02, "fast={fast} pre-crash {before}");
        assert!(outage < 0.01, "fast={fast} outage utilization {outage}");
        assert!(
            (after - before).abs() < 0.02,
            "fast={fast} ambient load must recover: before {before}, after {after}"
        );
    }
}

#[test]
fn restart_before_pending_poll_does_not_double_arm() {
    // A crash shorter than one inter-arrival gap: the generator's
    // next poll is still pending at restart (never went dormant), so
    // the restart must not arm a second poll stream. A doubled stream
    // would double the imposed utilization.
    for fast in [true, false] {
        let mut cl = cluster_on_path(config(30), fast);
        cl.add_load(Box::new(PeriodicLoad::new(
            crate::ids::LoadGenId(0),
            NodeId(1),
            SimDuration::from_secs(2),
            0.3,
        )));
        cl.crash_node_at(
            NodeId(1),
            SimTime::from_millis(10_100),
            Some(SimDuration::from_millis(200)),
        );
        let out = cl.run();
        let u = out.metrics.cpu_lifetime_util[1];
        assert!(
            (u - 0.3).abs() < 0.05,
            "fast={fast} lifetime utilization {u} (doubled stream would approach 0.6)"
        );
    }
}

#[test]
fn bg_fast_path_is_byte_identical_to_slow_path() {
    // The whole contract of the fast path: identical RNG draws at
    // identical program points, identical `(time, seq)` allocation,
    // identical metrics — through stage/background contention, a
    // crash–restart, and a lossy duplicating bus.
    let run = |fast: bool| {
        let mut cfg = config(12);
        cfg.bus.drop_prob = 0.15;
        cfg.bus.dup_prob = 0.05;
        cfg.bus.retx_timeout_us = 20_000;
        let mut cl = cluster_on_path(cfg, fast);
        cl.enable_trace(4096);
        cl.add_task(
            tiny_task(&[(2.0, false, 0), (3.0, false, 1)]),
            Box::new(|i| 300 + 40 * i),
        );
        for n in [0u32, 1, 3] {
            cl.add_load(Box::new(crate::load::PoissonLoad::with_utilization(
                crate::ids::LoadGenId(n),
                NodeId(n),
                0.35,
                SimDuration::from_millis(2),
            )));
        }
        cl.crash_node_at(
            NodeId(1),
            SimTime::from_millis(4_200),
            Some(SimDuration::from_secs(2)),
        );
        cl.run()
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(
        format!("{:?}", on.metrics),
        format!("{:?}", off.metrics),
        "fast path must not change a single metric byte"
    );
    let render = |o: &RunOutcome| o.trace.as_ref().expect("trace enabled").render();
    assert_eq!(render(&on), render(&off), "fast path must not change the trace");
}

#[test]
#[should_panic(expected = "invalid load generator config")]
fn add_load_validates_generator_configs() {
    // A custom generator whose config slipped past any constructor
    // checks (e.g. deserialized or arithmetically built): the engine
    // rejects it at attach time via `LoadGenerator::validate`.
    struct BadGen;
    impl crate::load::LoadGenerator for BadGen {
        fn node(&self) -> NodeId {
            NodeId(0)
        }
        fn first_at(&self, _rng: &mut crate::rng::SimRng) -> SimTime {
            SimTime::ZERO
        }
        fn arrive(&mut self, now: SimTime, _rng: &mut crate::rng::SimRng) -> crate::load::LoadArrival {
            crate::load::LoadArrival { demand: SimDuration::ZERO, next_at: now }
        }
        fn target_utilization(&self) -> f64 {
            f64::NAN
        }
    }
    let mut cl = Cluster::new(config(1));
    cl.add_load(Box::new(BadGen));
}

#[test]
fn legacy_fail_node_at_still_kills_permanently() {
    let mut cl = Cluster::new(config(10));
    cl.add_task(tiny_task(&[(1.0, false, 0), (1.0, false, 1)]), Box::new(|_| 500));
    cl.fail_node_at(NodeId(1), SimTime::from_millis(2_500));
    let out = cl.run();
    assert_eq!(out.metrics.node_restarts, 0);
    // Nothing completes after the failure.
    for p in &out.metrics.periods {
        if p.released.as_secs_f64() >= 3.0 {
            assert_ne!(p.missed, Some(false), "instance {}", p.instance);
        }
    }
}

#[test]
fn fail_and_crash_are_identical_when_the_node_is_idle() {
    // Satellite regression for the unified node-death path: a permanent
    // failure and a crash-without-restart go through the same
    // `FaultEngine::kill_node` teardown, so when the bus is idle at the
    // kill instant (nothing to tear down, no backoff draw) every metric
    // of the two runs must be byte-identical.
    let run = |crash: bool| {
        let mut cl = Cluster::new(config(10));
        cl.add_task(tiny_task(&[(1.0, false, 0), (1.0, false, 1)]), Box::new(|_| 500));
        // Instance 0 completes by ~15 ms; at 500 ms the pipeline and the
        // wire are both quiet.
        let at = SimTime::from_millis(500);
        if crash {
            cl.crash_node_at(NodeId(1), at, None);
        } else {
            cl.fail_node_at(NodeId(1), at);
        }
        cl.run()
    };
    let fail = run(false);
    let crash = run(true);
    assert_eq!(
        format!("{:?}", fail.metrics),
        format!("{:?}", crash.metrics),
        "idle-instant fail and crash-without-restart must not diverge"
    );
}

#[test]
fn fail_and_crash_diverge_only_in_bus_teardown() {
    // The one documented divergence: a crash aborts the dead node's
    // in-flight bus traffic, a plain failure leaves the wire alone. Kill
    // the stage-0 node while its output message is mid-transmission:
    // under `fail_node_at` the frame completes and stage 1 (on the
    // surviving node) finishes the instance; under `crash_node_at` the
    // frame is torn down and the instance is lost with it.
    let run = |crash: bool| {
        let mut cl = Cluster::new(config(10));
        cl.add_task(tiny_task(&[(1.0, false, 0), (1.0, false, 1)]), Box::new(|_| 2_000));
        // Stage 0 exec: 1.0 * 20 + 1 = 21 ms; its 160 KB output then
        // occupies the 100 Mbps wire for ~12.8 ms. 25 ms is mid-frame.
        let at = SimTime::from_millis(25);
        if crash {
            cl.crash_node_at(NodeId(0), at, None);
        } else {
            cl.fail_node_at(NodeId(0), at);
        }
        cl.run()
    };
    let fail = run(false);
    let crash = run(true);
    // Plain failure: the in-flight frame survives the sender's death.
    assert_eq!(fail.metrics.messages_lost, 0);
    assert_eq!(fail.metrics.periods[0].missed, Some(false), "frame outlives the failed sender");
    // Crash: the frame dies with the node, and the instance with it.
    assert!(crash.metrics.messages_lost >= 1, "crash tears down in-flight traffic");
    assert_eq!(crash.metrics.periods[0].missed, Some(true));
    // Everything else is the shared kill path: both are permanent, and
    // every post-kill period fails identically in both runs.
    assert_eq!(fail.metrics.node_restarts, 0);
    assert_eq!(crash.metrics.node_restarts, 0);
    for (f, c) in fail.metrics.periods.iter().zip(&crash.metrics.periods).skip(1) {
        assert_eq!(f.missed, c.missed, "instance {}", f.instance);
        assert_eq!(f.shed, c.shed, "instance {}", f.instance);
    }
}

/// The network's slabs hold exactly the live traffic. A lossy,
/// duplicating, jammed run with retransmission and a crash–restart is cut
/// at horizons that leave messages mid-flight; at each cut every message
/// record must be queued on the bus, on the wire or awaiting a pending
/// `Deliver`, every retransmit record must have its pending timer, and
/// neither slab may hold more slots than its peak live count.
#[test]
fn network_slabs_hold_only_live_traffic() {
    use crate::net::Slot;
    let (mut cut_msgs, mut cut_retx) = (0, 0);
    for cut_ms in (0..16).map(|i| 20_000 + 173 * i) {
        let mut cfg = config(1);
        cfg.horizon = SimDuration::from_millis(cut_ms);
        cfg.bus.drop_prob = 0.2;
        cfg.bus.dup_prob = 0.1;
        cfg.bus.retx_timeout_us = 15_000;
        cfg.bus.retx_max_retries = 4;
        cfg.bus.jam = Some(JamWindow {
            start_us: 1_000_000,
            duration_us: 600_000,
            bandwidth_factor: 0.1,
            repeat_us: 1_500_000,
        });
        let mut cl = Cluster::new(cfg);
        cl.add_task(
            tiny_task(&[(0.5, false, 0), (0.5, false, 1), (0.5, false, 2)]),
            Box::new(|i| 2_000 + 300 * (i % 4)),
        );
        let mut second = tiny_task(&[(0.5, false, 3), (0.5, false, 1), (0.5, false, 4)]);
        second.id = TaskId(1);
        cl.add_task(second, Box::new(|i| 2_500 + 200 * (i % 3)));
        cl.crash_node_at(NodeId(1), SimTime::from_millis(3_100), Some(SimDuration::from_secs(1)));
        cl.run_to_horizon();
        let (bus, retx, queue) = (&cl.net.bus, &cl.net.retx, &cl.kernel.queue);

        let mut held: Vec<Slot> = bus.slots_on_bus().collect();
        held.extend(queue.pending().filter_map(|e| match e {
            Ev::Deliver { msg } => Some(*msg),
            _ => None,
        }));
        assert!(held.iter().all(|&s| bus.slab().get(s).is_some()), "cut {cut_ms}: dead slot held");
        assert_eq!(held.len(), bus.slab().len(), "cut {cut_ms}: held once each");
        assert!(
            bus.slab().live().all(|s| held.contains(&s)),
            "cut {cut_ms}: a message record is neither on the bus nor awaiting delivery"
        );
        for slot in retx.live() {
            let timer = queue.get(retx.get(slot).expect("live").timer);
            assert!(
                matches!(timer, Some(Ev::RetxTimeout { retx }) if *retx == slot),
                "cut {cut_ms}: retransmit record without its pending timer"
            );
        }
        let timers = queue.pending().filter(|e| matches!(e, Ev::RetxTimeout { .. })).count();
        assert_eq!(timers, retx.len(), "cut {cut_ms}: a timer outlived its record");

        for (name, high, peak) in [
            ("message", bus.slab().high_water(), bus.slab().peak),
            ("retransmit", retx.high_water(), retx.peak),
        ] {
            assert_eq!(high, peak, "cut {cut_ms}: {name} slab grew past its peak live count");
        }
        assert!(
            bus.messages_offered > 10 * bus.slab().peak as u64,
            "cut {cut_ms}: {} messages through {} slots",
            bus.messages_offered,
            bus.slab().peak
        );
        cut_msgs += usize::from(bus.slab().len() > 0);
        cut_retx += usize::from(retx.len() > 0);
    }
    assert!(
        cut_msgs >= 8 && cut_retx >= 4,
        "{cut_msgs} cuts left messages mid-flight, {cut_retx} left retransmit records"
    );
}
