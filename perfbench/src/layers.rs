//! Layer probes, attached only through the program's public seams.
//!
//! * [`Probes`] wraps the resource manager in a timing [`Controller`]
//!   decorator (installed with `ClusterApi::set_controller`) and each
//!   background generator in a counting [`LoadGenerator`] decorator
//!   (installed with `ClusterApi::add_load`).
//! * [`traced_scenario`] assembles one evaluation scenario through
//!   `ClusterApi` exactly as `run_scenario` does, with the decorators and
//!   `enable_perf` on. The benchmark's tests and every traced run check
//!   that its outputs equal `run_scenario`'s.
//! * [`Layers`] folds the simulator's `PerfReport`, the run's
//!   `RunMetrics` and the decorator logs into per-layer counters.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rtds_arm::config::ArmConfig;
use rtds_arm::manager::ResourceManager;
use rtds_arm::metrics::{combined_breakdown, CombinedBreakdown};
use rtds_arm::predictor::Predictor;
use rtds_dynbench::aaw_task;
use rtds_experiments::scenario::{
    replicable_stage_indices, CrashFault, PolicySpec, ScenarioConfig,
};
use rtds_sim::cluster::{Cluster, ClusterApi, ClusterConfig};
use rtds_sim::control::{ControlAction, ControlContext, Controller, PeriodObservation};
use rtds_sim::ids::{LoadGenId, NodeId};
use rtds_sim::load::{LoadArrival, LoadGenerator, PoissonLoad};
use rtds_sim::metrics::{ForecastResidualStat, RunMetrics, RunSummary};
use rtds_sim::net::BusConfig;
use rtds_sim::perf::PerfReport;
use rtds_sim::rng::SimRng;
use rtds_sim::time::{SimDuration, SimTime};

use crate::stats::Fnv;

/// What the controller decorator saw during one simulation run.
#[derive(Default)]
pub struct EpochLog {
    /// Wall nanoseconds of every epoch, in order.
    pub durations_ns: Vec<u64>,
    /// `(start, duration)` of every epoch, nanoseconds since the probes'
    /// origin; kept only when span recording is on.
    pub spans: Vec<(u64, u64)>,
    /// Epochs that emitted at least one action.
    pub acting: u64,
    /// Actions emitted.
    pub actions: u64,
}

/// What the load decorators saw during one simulation run.
#[derive(Default, Clone, Copy)]
pub struct LoadLog {
    pub arrivals: u64,
    /// Arrivals that were timed: every [`ARRIVE_TIMING_STRIDE`]-th.
    pub timed: u64,
    /// Wall nanoseconds of the timed arrivals.
    pub timed_ns: u64,
}

/// One arrival in this many is timed. An arrival costs about as much as
/// the two clock reads that time it, so timing each would double the
/// layer's cost in the traced run.
pub const ARRIVE_TIMING_STRIDE: u64 = 16;

impl LoadLog {
    /// Estimated wall nanoseconds of all arrivals, scaled up from the
    /// timed ones.
    pub fn estimated_ns(&self) -> u64 {
        if self.timed == 0 {
            return 0;
        }
        (self.timed_ns as f64 * self.arrivals as f64 / self.timed as f64) as u64
    }
}

/// Shared sinks of the decorators. Each decorator keeps its log locally
/// and merges it here when the cluster drops it at the end of `run`, so a
/// probe costs at most two clock reads per call and no lock.
pub struct Probes {
    origin: Instant,
    /// Runs whose controller epochs are still to be kept as spans.
    epoch_span_runs: Cell<usize>,
    epochs: Arc<Mutex<EpochLog>>,
    loads: Arc<Mutex<LoadLog>>,
}

impl Probes {
    /// Probes whose first `epoch_span_runs` controllers keep a span per
    /// epoch (every epoch is timed either way).
    pub fn new(origin: Instant, epoch_span_runs: usize) -> Self {
        Probes {
            origin,
            epoch_span_runs: Cell::new(epoch_span_runs),
            epochs: Arc::default(),
            loads: Arc::default(),
        }
    }

    pub fn controller(&self, inner: Box<dyn Controller>) -> Box<dyn Controller> {
        let left = self.epoch_span_runs.get();
        self.epoch_span_runs.set(left.saturating_sub(1));
        Box::new(TimedController {
            inner,
            origin: self.origin,
            keep_spans: left > 0,
            log: EpochLog::default(),
            sink: Arc::clone(&self.epochs),
        })
    }

    pub fn load(&self, inner: Box<dyn LoadGenerator>) -> Box<dyn LoadGenerator> {
        Box::new(CountingLoad {
            inner,
            log: LoadLog::default(),
            sink: Arc::clone(&self.loads),
        })
    }

    /// Drains what the decorators of the last run reported.
    pub fn take(&self) -> (EpochLog, LoadLog) {
        let e = std::mem::take(&mut *self.epochs.lock().expect("epoch sink lock"));
        let l = std::mem::take(&mut *self.loads.lock().expect("load sink lock"));
        (e, l)
    }
}

struct TimedController {
    inner: Box<dyn Controller>,
    origin: Instant,
    keep_spans: bool,
    log: EpochLog,
    sink: Arc<Mutex<EpochLog>>,
}

impl Controller for TimedController {
    fn on_period_boundary(
        &mut self,
        completed: &[PeriodObservation],
        ctx: &ControlContext,
    ) -> Vec<ControlAction> {
        let t0 = Instant::now();
        let actions = self.inner.on_period_boundary(completed, ctx);
        let dt = t0.elapsed().as_nanos() as u64;
        self.log.durations_ns.push(dt);
        if self.keep_spans {
            let start = t0.saturating_duration_since(self.origin).as_nanos() as u64;
            self.log.spans.push((start, dt));
        }
        if !actions.is_empty() {
            self.log.acting += 1;
            self.log.actions += actions.len() as u64;
        }
        actions
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn forecast_residuals(&self) -> Vec<ForecastResidualStat> {
        self.inner.forecast_residuals()
    }
}

impl Drop for TimedController {
    fn drop(&mut self) {
        // A poisoned sink only loses this run's probe data; never panic
        // in drop.
        if let Ok(mut s) = self.sink.lock() {
            let log = std::mem::take(&mut self.log);
            s.durations_ns.extend(log.durations_ns);
            s.spans.extend(log.spans);
            s.acting += log.acting;
            s.actions += log.actions;
        }
    }
}

struct CountingLoad {
    inner: Box<dyn LoadGenerator>,
    log: LoadLog,
    sink: Arc<Mutex<LoadLog>>,
}

impl LoadGenerator for CountingLoad {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn first_at(&self, rng: &mut SimRng) -> SimTime {
        self.inner.first_at(rng)
    }

    fn arrive(&mut self, now: SimTime, rng: &mut SimRng) -> LoadArrival {
        self.log.arrivals += 1;
        if !self.log.arrivals.is_multiple_of(ARRIVE_TIMING_STRIDE) {
            return self.inner.arrive(now, rng);
        }
        let t0 = Instant::now();
        let a = self.inner.arrive(now, rng);
        self.log.timed_ns += t0.elapsed().as_nanos() as u64;
        self.log.timed += 1;
        a
    }

    fn target_utilization(&self) -> f64 {
        self.inner.target_utilization()
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate()
    }
}

impl Drop for CountingLoad {
    fn drop(&mut self) {
        if let Ok(mut s) = self.sink.lock() {
            s.arrivals += self.log.arrivals;
            s.timed += self.log.timed;
            s.timed_ns += self.log.timed_ns;
        }
    }
}

/// One traced simulation run: the scenario's outputs plus what the
/// probes measured.
pub struct TracedRun {
    pub summary: RunSummary,
    pub breakdown: CombinedBreakdown,
    pub metrics: RunMetrics,
    pub perf: PerfReport,
    pub epochs: EpochLog,
    pub loads: LoadLog,
}

/// Builds and runs `cfg` through `ClusterApi` with the probes installed —
/// the same assembly, in the same order, as `run_scenario`. Observability
/// sinks (`cfg.observe`) are not wired: the benchmark never enables them.
pub fn traced_scenario(cfg: &ScenarioConfig, predictor: &Predictor, probes: &Probes) -> TracedRun {
    let base = ClusterConfig::paper_baseline(cfg.seed, SimDuration::from_secs(cfg.n_periods));
    let mut cluster = Cluster::new(ClusterConfig {
        scheduler: cfg.scheduler,
        bus: BusConfig {
            drop_prob: cfg.faults.drop_prob,
            dup_prob: cfg.faults.dup_prob,
            retx_timeout_us: cfg.faults.retx_timeout_us,
            jam: cfg.faults.jam,
            ..base.bus
        },
        ..base
    });
    let mut pattern = cfg.pattern.build(cfg.workload);
    cluster.add_task(
        aaw_task(),
        Box::new(move |period| pattern.tracks_at(period)),
    );
    if cfg.ambient_util > 0.0 {
        for n in 0..6 {
            cluster.add_load(probes.load(Box::new(PoissonLoad::with_utilization(
                LoadGenId(n),
                NodeId(n),
                cfg.ambient_util,
                SimDuration::from_millis(2),
            ))));
        }
    }
    let arm = match cfg.policy {
        PolicySpec::Predictive => Some(ArmConfig::paper_predictive()),
        PolicySpec::NonPredictive => Some(ArmConfig::paper_nonpredictive()),
        PolicySpec::Incremental => Some(ArmConfig::incremental()),
        PolicySpec::None => None,
    };
    if let Some(arm) = arm {
        let arm = ArmConfig {
            online_refinement: cfg.online_refinement,
            ..arm
        };
        let manager = ResourceManager::new(arm, predictor.clone());
        cluster.set_controller(probes.controller(Box::new(manager)));
    }
    for &(node, at_s) in &cfg.failures {
        cluster.fail_node_at(NodeId(node), SimTime::from_secs(at_s));
    }
    for &CrashFault {
        node,
        at_s,
        restart_after_s,
    } in &cfg.faults.crashes
    {
        cluster.crash_node_at(
            NodeId(node),
            SimTime::from_secs(at_s),
            restart_after_s.map(SimDuration::from_secs),
        );
    }
    cluster.enable_perf(None);
    let outcome = cluster.run();
    let (epochs, loads) = probes.take();
    let summary = outcome.metrics.summarize(&replicable_stage_indices());
    TracedRun {
        breakdown: combined_breakdown(&summary, 6),
        summary,
        metrics: outcome.metrics,
        perf: outcome.perf.expect("perf was enabled"),
        epochs,
        loads,
    }
}

/// The `ambient-64` system: 64 nodes, each under a 60 % Poisson load with
/// a 2 ms mean demand, no task and no controller, over 240 simulated
/// seconds. With `probes`, every generator is decorated and perf is on.
pub fn ambient_cluster(seed: u64, probes: Option<&Probes>) -> Cluster {
    let mut c = Cluster::new(ClusterConfig {
        n_nodes: AMBIENT_NODES as usize,
        ..ClusterConfig::paper_baseline(seed, SimDuration::from_secs(AMBIENT_HORIZON_S))
    });
    for n in 0..AMBIENT_NODES {
        let gen: Box<dyn LoadGenerator> = Box::new(PoissonLoad::with_utilization(
            LoadGenId(n),
            NodeId(n),
            0.6,
            SimDuration::from_millis(2),
        ));
        c.add_load(match probes {
            Some(p) => p.load(gen),
            None => gen,
        });
    }
    if probes.is_some() {
        c.enable_perf(None);
    }
    c
}

pub const AMBIENT_NODES: u32 = 64;
pub const AMBIENT_HORIZON_S: u64 = 240;

/// Digest of a scenario's deterministic outputs: its `RunSummary` plus
/// the network and fault counters.
pub fn scenario_digest(s: &RunSummary, m: &RunMetrics) -> u64 {
    let mut h = Fnv::default();
    h.f64(s.missed_deadline_pct)
        .f64(s.avg_cpu_util_pct)
        .f64(s.avg_net_util_pct)
        .f64(s.avg_replicas)
        .u64(s.decided_periods as u64)
        .u64(s.released_periods as u64)
        .u64(s.placement_changes);
    for v in [
        m.bytes_offered,
        m.messages_offered,
        m.messages_lost,
        m.messages_dropped,
        m.messages_duplicated,
        m.retransmits,
        m.node_restarts,
        m.rejected_actions,
    ] {
        h.u64(v);
    }
    h.finish()
}

/// Digest of a bare cluster run: per-node lifetime CPU utilization and
/// every utilization sample.
pub fn ambient_digest(m: &RunMetrics) -> u64 {
    let mut h = Fnv::default();
    for &u in &m.cpu_lifetime_util {
        h.f64(u);
    }
    for row in &m.cpu_samples {
        for &u in row {
            h.f64(u);
        }
    }
    for &u in &m.net_samples {
        h.f64(u);
    }
    h.f64(m.net_lifetime_util);
    h.finish()
}

/// Per-layer counters summed over the simulation runs of one traced
/// sample. `counts` are deterministic and must repeat exactly; `ns` and
/// `epoch_ns` are wall-clock.
#[derive(Default, Clone)]
pub struct Layers {
    pub counts: BTreeMap<&'static str, u64>,
    pub ns: BTreeMap<&'static str, u64>,
    pub epoch_ns: Vec<u64>,
}

// Indices into `PerfReport::{events, ns}`, per `rtds_sim::perf::PHASE_NAMES`.
const PERIOD_RELEASE: usize = 0;
const DISPATCH: usize = 1;
const NET_PHASES: [usize; 3] = [3, 4, 10]; // tx_complete, deliver, retx_timeout
const FAULT_PHASES: [usize; 3] = [7, 8, 9]; // node_fail, node_crash, node_restart

impl Layers {
    fn add(&mut self, key: &'static str, v: u64) {
        *self.counts.entry(key).or_insert(0) += v;
    }

    fn add_ns(&mut self, key: &'static str, v: u64) {
        *self.ns.entry(key).or_insert(0) += v;
    }

    /// Folds one run into the sample's totals.
    pub fn absorb(&mut self, perf: &PerfReport, m: &RunMetrics, epochs: &EpochLog, loads: LoadLog) {
        let q = &perf.queue;
        let lanes = perf.elided_dispatches + perf.elided_bg_polls + perf.elided_bg_dispatches;
        self.add("sim.logical_events", q.popped + lanes);
        self.add("sim.queue.scheduled", q.scheduled);
        self.add("sim.queue.popped", q.popped);
        self.add("sim.queue.cancelled", q.cancelled);
        let hw = self.counts.entry("sim.queue.heap_high_water").or_insert(0);
        *hw = (*hw).max(q.heap_high_water as u64);
        self.add("sim.lane.chain_links", perf.elided_dispatches);
        self.add("sim.lane.bg_polls", perf.elided_bg_polls);
        self.add("sim.lane.bg_bounds", perf.elided_bg_dispatches);
        self.add("dispatch.events", perf.events[DISPATCH]);
        self.add(
            "net.events",
            NET_PHASES.iter().map(|&i| perf.events[i]).sum(),
        );
        self.add("net.messages_offered", m.messages_offered);
        self.add("net.retransmits", m.retransmits);
        self.add("net.messages_lost", m.messages_lost);
        self.add(
            "fault.events",
            FAULT_PHASES.iter().map(|&i| perf.events[i]).sum(),
        );
        self.add("fault.node_restarts", m.node_restarts);
        self.add("tasks.period_releases", perf.events[PERIOD_RELEASE]);
        self.add("arm.epochs", epochs.durations_ns.len() as u64);
        self.add("arm.acting_epochs", epochs.acting);
        self.add("arm.actions", epochs.actions);
        self.add("arm.rejected_actions", m.rejected_actions);
        self.add("load.arrivals", loads.arrivals);

        self.add_ns("sim.loop", perf.wall_ns);
        self.add_ns("sim.attributed", perf.ns.iter().sum());
        self.add_ns("dispatch", perf.ns[DISPATCH]);
        self.add_ns("net", NET_PHASES.iter().map(|&i| perf.ns[i]).sum());
        // The controller runs inside the period-release handler.
        let release = perf.ns[PERIOD_RELEASE];
        let arm: u64 = epochs.durations_ns.iter().sum();
        self.add_ns("tasks.period_release", release.saturating_sub(arm));
        self.add_ns("arm.busy", arm);
        self.add_ns("load.arrive", loads.estimated_ns());
        self.epoch_ns.extend_from_slice(&epochs.durations_ns);
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    pub fn nanos(&self, key: &str) -> u64 {
        self.ns.get(key).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtds_experiments::models;
    use rtds_experiments::run_scenario;
    use rtds_experiments::sweep::{deterministic_csv, run_sweep, SweepConfig};

    use crate::workloads::{degraded_plan, fig9_pattern, traced_sweep};

    fn probes() -> Probes {
        Probes::new(Instant::now(), 0)
    }

    #[test]
    fn traced_assembly_reproduces_run_scenario() {
        let predictor = models::fitted_predictor();
        let p = probes();
        for seed in [0x5EED, 42 * 4] {
            for units in [1, 14, 35] {
                for policy in [PolicySpec::Predictive, PolicySpec::NonPredictive] {
                    let paper = ScenarioConfig {
                        seed,
                        ..ScenarioConfig::paper(fig9_pattern(), policy, units * 500)
                    };
                    let degraded = ScenarioConfig {
                        ambient_util: 0.0,
                        online_refinement: true,
                        faults: degraded_plan(),
                        ..paper.clone()
                    };
                    for cfg in [paper, degraded] {
                        let plain = run_scenario(&cfg, predictor);
                        let traced = traced_scenario(&cfg, predictor, &p);
                        assert_eq!(plain.summary, traced.summary, "{cfg:?}");
                        assert_eq!(plain.breakdown.combined, traced.breakdown.combined);
                        assert_eq!(
                            scenario_digest(&plain.summary, &plain.metrics),
                            scenario_digest(&traced.summary, &traced.metrics)
                        );
                        assert_eq!(
                            plain.metrics.forecast_residuals.len(),
                            traced.metrics.forecast_residuals.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn traced_sweep_reproduces_run_sweep() {
        let predictor = models::fitted_predictor();
        let units = vec![3, 17, 35];
        let cfg = SweepConfig {
            units: units.clone(),
            threads: 1,
            ..SweepConfig::paper(fig9_pattern())
        };
        let plain = run_sweep(&cfg, predictor);
        let mut spans = crate::spans::Spans::new(Instant::now());
        let (traced, _) = traced_sweep(cfg.seed, &units, predictor, &probes(), &mut spans, 0);
        assert_eq!(deterministic_csv(&plain), deterministic_csv(&traced));
    }

    #[test]
    fn deterministic_counters_repeat_exactly() {
        let predictor = models::fitted_predictor();
        let cfg = ScenarioConfig {
            ambient_util: 0.0,
            online_refinement: true,
            faults: degraded_plan(),
            ..ScenarioConfig::paper(fig9_pattern(), PolicySpec::Predictive, 12_000)
        };
        let fig9 = ScenarioConfig::paper(fig9_pattern(), PolicySpec::NonPredictive, 9_000);
        let layers = |p: &Probes| {
            let mut l = Layers::default();
            for c in [&cfg, &fig9] {
                let r = traced_scenario(c, predictor, p);
                l.absorb(&r.perf, &r.metrics, &r.epochs, r.loads);
            }
            let r = ambient_cluster(7, Some(p)).run();
            let (e, lg) = p.take();
            l.absorb(r.perf.as_ref().expect("perf on"), &r.metrics, &e, lg);
            l
        };
        let p = probes();
        let (a, b) = (layers(&p), layers(&p));
        assert_eq!(a.counts, b.counts);
        for key in [
            "sim.logical_events",
            "arm.epochs",
            "load.arrivals",
            "net.messages_offered",
        ] {
            assert!(a.count(key) > 0, "{key} should be exercised");
        }
        assert!(a.count("fault.node_restarts") > 0);
        assert!(a.count("sim.lane.bg_polls") > 0);
    }

    #[test]
    fn ambient_probes_do_not_change_outputs() {
        let plain = ambient_cluster(7, None).run();
        let p = probes();
        let traced = ambient_cluster(7, Some(&p)).run();
        assert_eq!(
            ambient_digest(&plain.metrics),
            ambient_digest(&traced.metrics)
        );
        assert!(p.take().1.arrivals > 0);
    }
}
