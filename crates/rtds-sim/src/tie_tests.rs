//! Forced µs ties between node-local background boundaries and the
//! events that observe their node, checked against the reference path.
//!
//! Every time in these clusters is a whole millisecond: fixed-phase
//! periodic background jobs of whole-ms demand under a 1 ms round-robin
//! slice, a two-stage task of whole-ms stage demands and period, a bus
//! that moves one byte per µs with no overheads, and whole-ms kills. So
//! slice boundaries of background-only nodes keep landing on the same µs
//! as a same-node poll, a release's stage admission, a delivery's stage
//! admission, a crash, a permanent failure, a `Sample` and the horizon.
//! Each tie must resolve as the eager `(time, seq)` order does, which the
//! reference path (every boundary a heap event) runs by construction.

use super::*;
use crate::ids::LoadGenId;
use crate::load::PeriodicLoad;
use crate::pipeline::{PolynomialCost, StageSpec};

/// One cluster of the family, on the fast path or the reference path.
fn cluster(variant: u64, fast: bool) -> Cluster {
    let v = variant;
    let mut config = ClusterConfig {
        n_nodes: 3,
        ..ClusterConfig::paper_baseline(v, SimDuration::from_millis(1_500 + 7 * v))
    };
    // FIFO variants run whole background jobs as one slice, so a
    // boundary can be armed before an event at its µs was scheduled.
    let fifo = v >= 12;
    if fifo {
        config.scheduler = SchedulerKind::Fifo;
    }
    config.clock = ClockConfig::perfect();
    config.bus = BusConfig {
        bandwidth_bps: 8_000_000.0,
        mtu_bytes: 1_000_000,
        frame_overhead_bytes: 0,
        per_message_overhead_bytes: 0,
        propagation: SimDuration::ZERO,
        local_delivery: SimDuration::from_millis(1),
        ..BusConfig::paper_baseline()
    };
    let mut c = if fast { Cluster::new(config) } else { Cluster::reference(config) };
    // Stage 0 on node 0, stage 1 on node 1; 100 tracks make a 1 ms
    // message and whole-ms demands.
    let stage = |home: u32, ms: f64| StageSpec {
        name: format!("s{home}"),
        cost: PolynomialCost::linear(ms - 1.0, 1.0),
        replicable: false,
        home: NodeId(home),
        output_bytes_per_track: 10.0,
    };
    c.add_task(
        TaskSpec {
            id: TaskId(0),
            name: "ties".into(),
            period: SimDuration::from_millis(40 + 3 * (v % 4)),
            deadline: SimDuration::from_millis(40),
            track_bytes: 80,
            stages: vec![stage(0, (2 + v % 3) as f64), stage(1, (3 + v % 2) as f64)],
        },
        Box::new(|_| 100),
    );
    // Two generators per node, of whole-ms demand. Round-robin: 2 ms
    // every 5 ms plus 1–3 ms every 7–9 ms. FIFO: 1 ms every 5 ms plus
    // 30–50 ms every 60–70 ms.
    for n in 0..3u32 {
        let w = v + u64::from(n);
        let periodic = |g: u32, ms: u64, demand: u64| {
            let (every, u) = (SimDuration::from_millis(ms), demand as f64 / ms as f64);
            Box::new(PeriodicLoad::new(LoadGenId(g), NodeId(n), every, u).with_fixed_phase())
        };
        if fifo {
            c.add_load(periodic(2 * n, 5, 1));
            c.add_load(periodic(2 * n + 1, 60 + 5 * (w % 3), 30 + 10 * (w % 3)));
        } else {
            c.add_load(periodic(2 * n, 5, 2));
            c.add_load(periodic(2 * n + 1, 7 + w % 3, 1 + w % 3));
        }
    }
    c.crash_node_at(
        NodeId(2),
        SimTime::from_millis(300 + 11 * v),
        Some(SimDuration::from_millis(150)),
    );
    c.fail_node_at(NodeId(2), SimTime::from_millis(900 + 13 * v));
    c.enable_trace(100_000);
    c.enable_perf(None);
    c
}

/// Runs `c` and renders every observable plus the dispatch counts both
/// paths share, and returns the ties the run met.
fn run(mut c: Cluster) -> (String, Vec<(&'static str, bool)>) {
    c.run_to_horizon();
    let p = c.kernel.perf.as_ref().expect("perf enabled").report.clone();
    // Every slice boundary, chain links included, is a timed dispatch on
    // the reference path; on the fast path chain links and a
    // background-only node's boundaries are replayed node-locally.
    let dispatches = p.events[1] + p.elided_bg_dispatches + p.elided_dispatches;
    let polls = p.events[2] + p.elided_bg_polls;
    let trace = c.kernel.trace.as_ref().expect("trace enabled").render();
    let out = format!(
        "metrics={:?}\ntrace={trace}\ndispatches={dispatches} polls={polls} rng={}",
        c.kernel.metrics,
        c.kernel.rng.draws(),
    );
    (out, std::mem::take(&mut c.kernel.ties))
}

/// A family of clusters, built for a variant on either path, and how many
/// variants to run.
type Family = (fn(u64, bool) -> Cluster, u64);

#[test]
fn forced_ties_resolve_as_the_reference_path_orders_them() {
    let mut met: Vec<(&'static str, bool)> = Vec::new();
    let families: [Family; 2] = [(cluster, 24), (chain_cluster, 48)];
    for (build, variants) in families {
        for v in 0..variants {
            let (fast, ties) = run(build(v, true));
            let (reference, none) = run(build(v, false));
            assert!(none.is_empty(), "the reference path keeps no node-local boundary");
            assert_eq!(fast, reference, "variant {v}");
            met.extend(ties);
        }
    }
    met.sort_unstable();
    met.dedup();
    // Kills are scheduled before the run and releases a period ahead, so
    // those ties always go to the observer. A delivery (no propagation
    // delay here) is scheduled as its frame leaves the wire, after the
    // boundary it meets was armed, so the boundary goes first. A `Sample`
    // leaves a boundary at its own µs pending; the horizon replays it.
    // A stage job's chain completion (`true`: it went first) meets heap
    // events, polls and other completions at its µs; the event keyed by a
    // tie slot (a completion or a materialized boundary) meets node-local
    // boundaries; and an admission meets a stage chain's link.
    for (observer, boundary_first) in [
        ("bg_poll", false),
        ("bg_poll", true),
        ("period_release", false),
        ("deliver", true),
        ("node_crash", false),
        ("node_fail", false),
        ("sample", false),
        ("horizon", true),
        ("completion_vs_heap", false),
        ("completion_vs_heap", true),
        ("completion_vs_poll", false),
        ("completion_vs_poll", true),
        ("completion_vs_completion", false),
        ("completion_vs_completion", true),
        ("gap_event_vs_boundary", false),
        ("gap_event_vs_boundary", true),
        ("stage_link", false),
        ("stage_link", true),
    ] {
        assert!(
            met.contains(&(observer, boundary_first)),
            "no {observer} tie with the {} first (met: {met:?})",
            if boundary_first { "boundary (or completion)" } else { "other event" },
        );
    }
}

/// Replicates stages once, at the first period boundary.
struct Replicate(Vec<ControlAction>);

impl Controller for Replicate {
    fn on_period_boundary(&mut self, _: &[PeriodObservation], _: &ControlContext) -> Vec<ControlAction> {
        std::mem::take(&mut self.0)
    }

    fn name(&self) -> &'static str {
        "replicate"
    }
}

/// A second whole-millisecond family, for stage jobs' quantum chains. Four
/// round-robin (1 ms) nodes; two tasks on one release grid whose first
/// stages (nodes 0 and 2) often run alone for several quanta, so their
/// chains start together and, at equal demands, complete at the same µs;
/// sparse fixed-phase background load on the stage nodes, whose polls
/// admit at a chain link's µs or meet a completion; and node 3, whose
/// background slices meet completions at every millisecond. Samples,
/// releases and deliveries land on whole milliseconds too. In odd variants
/// the first task's first stage runs two replicas, on node 0 and on node 2
/// or 3, so one event admits to two nodes.
fn chain_cluster(variant: u64, fast: bool) -> Cluster {
    let v = variant;
    let mut config = ClusterConfig {
        n_nodes: 4,
        ..ClusterConfig::paper_baseline(v, SimDuration::from_millis(1_200 + 11 * v))
    };
    config.clock = ClockConfig::perfect();
    config.sample_interval = SimDuration::from_millis(10 + v % 3);
    config.bus = BusConfig {
        bandwidth_bps: 8_000_000.0,
        mtu_bytes: 1_000_000,
        frame_overhead_bytes: 0,
        per_message_overhead_bytes: 0,
        propagation: SimDuration::ZERO,
        local_delivery: SimDuration::from_millis(1),
        ..BusConfig::paper_baseline()
    };
    let mut c = if fast { Cluster::new(config) } else { Cluster::reference(config) };
    let stage = |home: u32, ms: u64| StageSpec {
        name: format!("s{home}"),
        cost: PolynomialCost::linear(ms as f64 - 1.0, 1.0),
        replicable: true,
        home: NodeId(home),
        output_bytes_per_track: 10.0,
    };
    let period = SimDuration::from_millis(30 + 2 * (v % 4));
    if v % 2 == 1 {
        let nodes = vec![NodeId(0), NodeId(2 + (v / 2 % 2) as u32)];
        let spread = ControlAction::SetPlacement { task: TaskId(0), subtask: SubtaskIdx(0), nodes };
        c.set_controller(Box::new(Replicate(vec![spread])));
    }
    for (t, (first, second)) in [((0, 3 + v % 3), (1, 2)), ((2, 3 + (v / 3) % 3), (1, 3))].into_iter().enumerate() {
        c.add_task(
            TaskSpec {
                id: TaskId(t as u32),
                name: format!("chains{t}"),
                period,
                deadline: SimDuration::from_millis(60),
                track_bytes: 80,
                stages: vec![stage(first.0, first.1), stage(second.0, second.1)],
            },
            Box::new(|_| 100),
        );
    }
    let periodic = |g: u32, n: u32, ms: u64, demand: u64| {
        let (every, u) = (SimDuration::from_millis(ms), demand as f64 / ms as f64);
        Box::new(PeriodicLoad::new(LoadGenId(g), NodeId(n), every, u).with_fixed_phase())
    };
    c.add_load(periodic(0, 0, 7 + v % 3, 1));
    c.add_load(periodic(1, 2, 11 + v % 2, 1));
    c.add_load(periodic(2, 1, 5, 2));
    c.add_load(periodic(3, 3, 3, 2));
    c.add_load(periodic(4, 3, 4, 1 + v % 2));
    c.crash_node_at(NodeId(3), SimTime::from_millis(400 + 7 * v), Some(SimDuration::from_millis(90)));
    c.fail_node_at(NodeId(1 + 2 * (v % 2) as u32), SimTime::from_millis(1_000 + 3 * v));
    c.enable_trace(100_000);
    c.enable_perf(None);
    c
}

/// Seeded random clusters far from the whole-millisecond families: 2–13
/// nodes, a third of them without background load (so stage jobs run
/// alone over several quanta) and the rest under Poisson load of random
/// utilization and demand, two tasks of 1–3 stages, every scheduler shape
/// with random quanta, sample intervals from 7 ms to 3 s (long windows
/// fill the fire log and the replayed lists), and random crash–restarts
/// and permanent failures. Every third cluster instead puts everything on
/// whole milliseconds (round-robin 1 ms, whole-ms stage demands, periods,
/// fixed-phase periodic load and bus transfers), where stage chains'
/// completions and links keep meeting other events at their µs.
#[test]
fn random_clusters_match_the_reference_path() {
    use crate::load::PoissonLoad;
    use crate::rng::SimRng;
    let build = |v: u64, fast: bool| {
        let mut r = SimRng::from_seed_stream(v, 99);
        let whole = v.is_multiple_of(3);
        let n = 2 + r.below(12) as u32;
        let mut config = ClusterConfig {
            n_nodes: n as usize,
            ..ClusterConfig::paper_baseline(v, SimDuration::from_millis(800 + r.below(1_500)))
        };
        let samples = [7_000, 100_000, 1_000_000, 3_000_000];
        config.sample_interval = SimDuration::from_micros(samples[r.below(4) as usize]);
        config.scheduler = match r.below(4) {
            _ if whole => SchedulerKind::paper_baseline(),
            0 => SchedulerKind::paper_baseline(),
            1 => SchedulerKind::RoundRobin { quantum_us: 1 + r.below(5_000) },
            2 => SchedulerKind::StaticPriority { quantum_us: Some(500 + r.below(2_000)) },
            _ => SchedulerKind::Fifo,
        };
        if whole {
            config.clock = ClockConfig::perfect();
            config.bus = BusConfig {
                bandwidth_bps: 8_000_000.0,
                mtu_bytes: 1_000_000,
                frame_overhead_bytes: 0,
                per_message_overhead_bytes: 0,
                propagation: SimDuration::ZERO,
                local_delivery: SimDuration::from_millis(1),
                ..BusConfig::paper_baseline()
            };
        }
        let mut c = if fast { Cluster::new(config) } else { Cluster::reference(config) };
        for t in 0..2 {
            let stages = (0..1 + r.below(3))
                .map(|j| StageSpec {
                    name: format!("s{j}"),
                    cost: if whole {
                        PolynomialCost::linear(r.below(5) as f64, 1.0)
                    } else {
                        PolynomialCost::linear(0.5 + 3.0 * r.uniform(), 0.5 + r.uniform())
                    },
                    replicable: true,
                    home: NodeId(r.below(u64::from(n)) as u32),
                    output_bytes_per_track: if whole { 10.0 } else { 10.0 + 80.0 * r.uniform() },
                })
                .collect();
            c.add_task(
                TaskSpec {
                    id: TaskId(t),
                    name: format!("random{t}"),
                    period: SimDuration::from_millis(20 + r.below(80)),
                    deadline: SimDuration::from_millis(200),
                    track_bytes: 80,
                    stages,
                },
                Box::new(move |p| if whole { 100 } else { 100 + (p * 37) % 400 }),
            );
        }
        for g in 0..n {
            if r.below(3) == 0 {
                continue;
            }
            let gen = LoadGenId(g);
            if whole {
                let every = SimDuration::from_millis(3 + r.below(8));
                let u = (1 + r.below(2)) as f64 / every.as_millis_f64();
                c.add_load(Box::new(PeriodicLoad::new(gen, NodeId(g), every, u).with_fixed_phase()));
            } else {
                let (u, demand) = (0.05 + 0.6 * r.uniform(), 200 + r.below(4_000));
                let demand = SimDuration::from_micros(demand);
                c.add_load(Box::new(PoissonLoad::with_utilization(gen, NodeId(g), u, demand)));
            }
        }
        if r.below(2) == 0 {
            let (node, at) = (NodeId(r.below(u64::from(n)) as u32), 100 + r.below(500));
            let back = SimDuration::from_millis(50 + r.below(200));
            c.crash_node_at(node, SimTime::from_millis(at), Some(back));
        }
        if r.below(2) == 0 {
            let (node, at) = (NodeId(r.below(u64::from(n)) as u32), 300 + r.below(400));
            c.fail_node_at(node, SimTime::from_millis(at));
        }
        c.enable_trace(1_000_000);
        c.enable_perf(None);
        c
    };
    let mut met: Vec<(&'static str, bool)> = Vec::new();
    for v in 0..300 {
        let (fast, ties) = run(build(v, true));
        let reference = run(build(v, false)).0;
        assert_eq!(fast, reference, "variant {v}");
        met.extend(ties);
    }
    met.sort_unstable();
    met.dedup();
    for class in ["completion_vs_heap", "completion_vs_poll", "completion_vs_completion", "stage_link"] {
        assert!(met.iter().any(|&(c, _)| c == class), "no {class} tie (met: {met:?})");
    }
}
