//! Application profiling.
//!
//! The paper's predictive algorithm is driven by "application profile data
//! that is obtained by measuring the timeliness of the application for a
//! set of external and internal load situations" (§1). This module is that
//! measurement campaign, run against the simulator instead of the authors'
//! physical testbed:
//!
//! * [`profile_execution`] sweeps a subtask over a grid of data sizes
//!   (external load) × background CPU utilizations (internal load) and
//!   records its execution latency — the raw material of Figs. 2–4 and of
//!   the Eq. (3) fit;
//! * [`profile_buffer_delay`] drives a replicated pipeline across a range
//!   of periodic workloads and extracts the network buffer delay — the raw
//!   material of the Eq. (5) slope (Table 3).

use rtds_regression::buffer::BufferDelaySample;
use rtds_regression::model::LatencySample;
use rtds_sim::clock::ClockConfig;
use rtds_sim::cluster::{Cluster, ClusterApi, ClusterConfig};
use rtds_sim::control::{ControlAction, ControlContext, Controller, PeriodObservation};
use rtds_sim::ids::{LoadGenId, NodeId, SubtaskIdx, TaskId};
use rtds_sim::load::PeriodicLoad;
use rtds_sim::net::BusConfig;
use rtds_sim::pipeline::{PolynomialCost, StageSpec, TaskSpec};
use rtds_sim::time::SimDuration;

/// Grid and repetition parameters of a profiling campaign.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Background CPU utilization levels to profile at, percent.
    pub utilizations_pct: Vec<f64>,
    /// Data sizes to profile at, tracks.
    pub data_sizes: Vec<u64>,
    /// Measured periods per grid point (after warm-up).
    pub periods_per_point: usize,
    /// Warm-up periods discarded per grid point.
    pub warmup_periods: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            utilizations_pct: vec![10.0, 25.0, 40.0, 60.0, 80.0],
            data_sizes: vec![500, 1_500, 3_000, 5_000, 7_500, 10_000, 13_000, 17_500],
            periods_per_point: 5,
            warmup_periods: 2,
            seed: 0xD19_BE0C4,
        }
    }
}

impl ProfileConfig {
    /// A coarse grid for tests and quick runs.
    pub fn quick(seed: u64) -> Self {
        ProfileConfig {
            utilizations_pct: vec![10.0, 40.0, 70.0],
            data_sizes: vec![1_000, 4_000, 8_000],
            periods_per_point: 3,
            warmup_periods: 1,
            seed,
        }
    }
}

/// Profiles one subtask's execution latency over the configured grid.
///
/// Each grid point runs the subtask alone on a single node whose ambient
/// utilization is held at the target by a duty-cycle background load — the
/// controlled "internal load situation". The measured latency is the mean
/// over the configured number of periods of the job's response time
/// (release → completion) under round-robin contention.
pub fn profile_execution(cost: PolynomialCost, cfg: &ProfileConfig) -> Vec<LatencySample> {
    let mut out = Vec::with_capacity(cfg.utilizations_pct.len() * cfg.data_sizes.len());
    for (ui, &u) in cfg.utilizations_pct.iter().enumerate() {
        assert!((0.0..100.0).contains(&u), "profiling utilization {u}%");
        for (di, &d) in cfg.data_sizes.iter().enumerate() {
            let latency = measure_point(cost, d, u, cfg, (ui * 1000 + di) as u64);
            out.push(LatencySample {
                d: d as f64 / 100.0,
                u,
                latency_ms: latency,
            });
        }
    }
    out
}

/// Runs one grid point and returns the mean observed latency in ms.
fn measure_point(
    cost: PolynomialCost,
    tracks: u64,
    util_pct: f64,
    cfg: &ProfileConfig,
    point_salt: u64,
) -> f64 {
    // Give the point a generous period so even a stretched job finishes:
    // intrinsic demand inflated by round-robin sharing at the target
    // utilization, with 4x headroom, floored at one second.
    let demand_ms = cost.demand(tracks).as_millis_f64();
    let stretched = demand_ms / (1.0 - util_pct / 100.0).max(0.05);
    let period = SimDuration::from_millis_f64((stretched * 4.0).max(1_000.0));
    let n_periods = (cfg.warmup_periods + cfg.periods_per_point) as u64;
    let horizon = period * (n_periods + 1);

    let mut config = ClusterConfig {
        n_nodes: 1,
        scheduler: rtds_sim::sched::SchedulerKind::paper_baseline(),
        bus: BusConfig::paper_baseline(),
        clock: ClockConfig::perfect(),
        seed: cfg.seed ^ point_salt,
        sample_interval: SimDuration::from_millis(100),
        max_in_flight: 8,
        release_jitter_us: 0,
        horizon,
    };
    config.bus.per_message_overhead_bytes = 0;

    let mut cluster = Cluster::new(config);
    cluster.add_task(
        TaskSpec {
            id: TaskId(0),
            name: "probe".into(),
            period,
            deadline: period,
            track_bytes: 80,
            stages: vec![StageSpec {
                name: "probe".into(),
                cost,
                replicable: false,
                home: NodeId(0),
                output_bytes_per_track: 0.0,
            }],
        },
        Box::new(move |_| tracks),
    );
    if util_pct > 0.0 {
        cluster.add_load(Box::new(PeriodicLoad::new(
            LoadGenId(0),
            NodeId(0),
            SimDuration::from_millis(10),
            util_pct / 100.0,
        )));
    }
    let outcome = cluster.run();
    let latencies: Vec<f64> = outcome
        .metrics
        .periods
        .iter()
        .skip(cfg.warmup_periods)
        .take(cfg.periods_per_point)
        .filter_map(|p| p.end_to_end.map(|d| d.as_millis_f64()))
        .collect();
    assert!(
        !latencies.is_empty(),
        "profiling point (d={tracks}, u={util_pct}) produced no completed periods"
    );
    latencies.iter().sum::<f64>() / latencies.len() as f64
}

/// Pins one stage of task 0 to a fixed replica set from the first period.
struct PinReplicas {
    stage: SubtaskIdx,
    nodes: Vec<NodeId>,
}

impl Controller for PinReplicas {
    fn on_period_boundary(
        &mut self,
        _completed: &[PeriodObservation],
        ctx: &ControlContext,
    ) -> Vec<ControlAction> {
        if ctx.placements[0][self.stage.index()] != self.nodes {
            vec![ControlAction::SetPlacement {
                task: TaskId(0),
                subtask: self.stage,
                nodes: self.nodes.clone(),
            }]
        } else {
            Vec::new()
        }
    }

    fn name(&self) -> &'static str {
        "pin-replicas"
    }
}

/// Profiles the network buffer delay: a two-stage pipeline whose second
/// stage is pinned to `replicas` replicas, so each period the predecessor
/// fans `replicas` simultaneous messages onto the shared segment and the
/// later ones queue. For each total periodic workload in
/// `cfg.data_sizes`, the worst per-replica inbound delay minus the
/// message's own transmission time and propagation is one `Dbuf` sample.
pub fn profile_buffer_delay(cfg: &ProfileConfig, replicas: usize) -> Vec<BufferDelaySample> {
    assert!((2..=4).contains(&replicas), "need 2-4 replicas to create queueing");
    let mut out = Vec::new();
    let bus = BusConfig::paper_baseline();
    for (di, &tracks) in cfg.data_sizes.iter().enumerate() {
        // The observed inbound delay of the slowest replica includes its
        // own wire time and propagation; subtracting both isolates the
        // queueing (buffer) component that Eq. (5) models.
        let share = tracks / replicas as u64 + u64::from(tracks % replicas as u64 != 0);
        let share_bytes = (share as f64 * 80.0).ceil() as u64;
        let dtrans_ms = bus.wire_time(share_bytes).as_millis_f64();
        let prop_ms = bus.propagation.as_millis_f64();
        let delays = observe_stage_delays(cfg, tracks, replicas, di as u64);
        for worst_ms in delays {
            let dbuf = (worst_ms - dtrans_ms - prop_ms).max(0.0);
            out.push(BufferDelaySample {
                total_tracks: tracks as f64,
                delay_ms: dbuf,
            });
        }
    }
    out
}

/// Controller that both pins replicas and records the worst inbound
/// message delay of the pinned stage for every completed instance.
struct PinAndObserve {
    pin: PinReplicas,
    delays_ms: std::sync::Arc<std::sync::Mutex<Vec<f64>>>,
}

impl Controller for PinAndObserve {
    fn on_period_boundary(
        &mut self,
        completed: &[PeriodObservation],
        ctx: &ControlContext,
    ) -> Vec<ControlAction> {
        let mut sink = self.delays_ms.lock().expect("observer lock");
        for obs in completed {
            if let Some(st) = obs.stages.get(self.pin.stage.index()) {
                if st.replicas as usize == self.pin.nodes.len() {
                    sink.push(st.inbound_msg_delay.as_millis_f64());
                }
            }
        }
        drop(sink);
        self.pin.on_period_boundary(completed, ctx)
    }

    fn name(&self) -> &'static str {
        "pin-and-observe"
    }
}

fn observe_stage_delays(
    cfg: &ProfileConfig,
    tracks: u64,
    replicas: usize,
    salt: u64,
) -> Vec<f64> {
    let period = SimDuration::from_secs(1);
    let n_periods = (cfg.warmup_periods + cfg.periods_per_point) as u64;
    let config = ClusterConfig {
        n_nodes: 6,
        scheduler: rtds_sim::sched::SchedulerKind::paper_baseline(),
        bus: BusConfig::paper_baseline(),
        clock: ClockConfig::perfect(),
        seed: cfg.seed ^ (0x0B5E ^ salt),
        sample_interval: SimDuration::from_millis(100),
        max_in_flight: 8,
        release_jitter_us: 0,
        horizon: period * (n_periods + 2),
    };
    let mut cluster = Cluster::new(config);
    cluster.add_task(crate::app::two_stage_task(), Box::new(move |_| tracks));
    let delays = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    cluster.set_controller(Box::new(PinAndObserve {
        pin: PinReplicas {
            stage: SubtaskIdx(1),
            nodes: (2..2 + replicas).map(|i| NodeId(i as u32)).collect(),
        },
        delays_ms: delays.clone(),
    }));
    let _ = cluster.run();
    let v = delays.lock().expect("observer lock").clone();
    let skip = cfg.warmup_periods.min(v.len());
    v[skip..].iter().copied().take(cfg.periods_per_point).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_regression::model::ExecLatencyModel;

    #[test]
    fn execution_profile_covers_the_grid() {
        let cfg = ProfileConfig::quick(1);
        let samples = profile_execution(crate::app::filter_cost(), &cfg);
        assert_eq!(samples.len(), 9);
        // Latency grows with d at fixed u, and with u at fixed d.
        let at = |d: f64, u: f64| {
            samples
                .iter()
                .find(|s| (s.d - d).abs() < 1e-9 && (s.u - u).abs() < 1e-9)
                .expect("grid point present")
                .latency_ms
        };
        assert!(at(40.0, 40.0) > at(10.0, 40.0));
        assert!(at(40.0, 70.0) > at(40.0, 10.0));
    }

    #[test]
    fn profiled_latency_reflects_round_robin_stretch() {
        let cfg = ProfileConfig::quick(2);
        let cost = crate::app::filter_cost();
        let samples = profile_execution(cost, &cfg);
        // At low utilization, observed ≈ intrinsic demand.
        let low = samples
            .iter()
            .find(|s| (s.u - 10.0).abs() < 1e-9 && (s.d - 80.0).abs() < 1e-9)
            .unwrap();
        let intrinsic = cost.demand(8_000).as_millis_f64();
        assert!(
            low.latency_ms >= intrinsic && low.latency_ms < 1.5 * intrinsic,
            "low-util latency {} vs intrinsic {intrinsic}",
            low.latency_ms
        );
        // At 70 %, stretch should be roughly 1/(1-0.7) ≈ 3.3x.
        let high = samples
            .iter()
            .find(|s| (s.u - 70.0).abs() < 1e-9 && (s.d - 80.0).abs() < 1e-9)
            .unwrap();
        let stretch = high.latency_ms / intrinsic;
        assert!(
            (2.0..5.0).contains(&stretch),
            "70% stretch {stretch} out of plausible band"
        );
    }

    #[test]
    fn profile_supports_eq3_fit_with_good_r2() {
        let cfg = ProfileConfig {
            utilizations_pct: vec![10.0, 30.0, 50.0, 70.0],
            data_sizes: vec![1_000, 3_000, 6_000, 10_000],
            periods_per_point: 3,
            warmup_periods: 1,
            seed: 3,
        };
        let samples = profile_execution(crate::app::filter_cost(), &cfg);
        let model = ExecLatencyModel::fit_two_stage(&samples).unwrap();
        assert!(model.stats.r2 > 0.95, "r2 {}", model.stats.r2);
    }

    #[test]
    fn profiling_is_deterministic_per_seed() {
        let cfg = ProfileConfig::quick(77);
        let a = profile_execution(crate::app::filter_cost(), &cfg);
        let b = profile_execution(crate::app::filter_cost(), &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.latency_ms, y.latency_ms, "bit-identical profiling");
        }
        // A different seed perturbs background phases and thus latencies.
        let c = profile_execution(crate::app::filter_cost(), &ProfileConfig::quick(78));
        assert!(a.iter().zip(&c).any(|(x, y)| x.latency_ms != y.latency_ms));
    }

    #[test]
    fn buffer_delay_grows_with_workload() {
        let cfg = ProfileConfig {
            utilizations_pct: vec![],
            data_sizes: vec![2_000, 8_000, 16_000],
            periods_per_point: 3,
            warmup_periods: 2,
            seed: 4,
        };
        let samples = profile_buffer_delay(&cfg, 3);
        assert!(!samples.is_empty());
        let mean_at = |t: f64| {
            let v: Vec<f64> = samples
                .iter()
                .filter(|s| (s.total_tracks - t).abs() < 1.0)
                .map(|s| s.delay_ms)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let lo = mean_at(2_000.0);
        let hi = mean_at(16_000.0);
        assert!(
            hi > 2.0 * lo.max(0.01),
            "buffer delay should grow with offered load: {lo} -> {hi}"
        );
    }
}
