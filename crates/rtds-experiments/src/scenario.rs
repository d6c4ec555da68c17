//! Evaluation-scenario assembly.
//!
//! One scenario = the paper's Table 1 system (6 nodes, round-robin 1 ms,
//! 100 Mbps Ethernet, the 5-subtask AAW task, 990 ms deadline) + a
//! workload pattern + a resource-management policy + ambient background
//! load. [`run_scenario`] builds the cluster, runs it, and reduces the
//! result to the four paper metrics plus the combined metric. With
//! [`ScenarioConfig::observe`] set it also hands back the run's event
//! trace and decision audit, each a bounded in-memory buffer
//! ([`BoundedSink`]); the metrics are the same either way.

use std::sync::{Arc, Mutex};

use rtds_arm::audit::DecisionRecord;
use rtds_arm::config::ArmConfig;
use rtds_arm::manager::ResourceManager;
use rtds_arm::metrics::{combined_breakdown, CombinedBreakdown};
use rtds_arm::predictor::Predictor;
use rtds_dynbench::app::{aaw_task, EVAL_DECIDE_STAGE, FILTER_STAGE};
use rtds_sim::clock::ClockConfig;
use rtds_sim::cluster::{Cluster, ClusterApi, ClusterConfig};
use rtds_sim::ids::{LoadGenId, NodeId};
use rtds_sim::load::PoissonLoad;
use rtds_sim::metrics::{RunMetrics, RunSummary};
use rtds_sim::net::JamWindow;
use rtds_sim::sched::SchedulerKind;
use rtds_sim::sink::BoundedSink;
use rtds_sim::time::{SimDuration, SimTime};
use rtds_sim::trace::TraceEvent;
use rtds_workloads::{
    Burst, DecreasingRamp, IncreasingRamp, Pattern, RandomWalk, Sinusoid, Step,
    Triangular, WorkloadRange,
};

/// Which workload pattern drives the scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum PatternSpec {
    /// Paper Fig. 8, increasing ramp over `ramp_periods`.
    Increasing {
        /// Periods to go min → max.
        ramp_periods: u64,
    },
    /// Paper Fig. 8, decreasing ramp.
    Decreasing {
        /// Periods to go max → min.
        ramp_periods: u64,
    },
    /// Paper Fig. 8, triangular.
    Triangular {
        /// Periods per leg.
        half_period: u64,
    },
    /// Extension: square wave.
    Step {
        /// Periods at the minimum.
        low: u64,
        /// Periods at the maximum.
        high: u64,
    },
    /// Extension: bursts to the maximum.
    Burst {
        /// Cycle length.
        every: u64,
        /// Burst width.
        width: u64,
    },
    /// Extension: sinusoid.
    Sinusoid {
        /// Wavelength in periods.
        wavelength: u64,
    },
    /// Extension: bounded random walk.
    RandomWalk {
        /// Maximum per-period step, tracks.
        max_step: u64,
        /// Walk seed.
        seed: u64,
    },
}

impl PatternSpec {
    /// Instantiates the pattern over a workload range.
    pub fn build(self, range: WorkloadRange) -> Box<dyn Pattern> {
        match self {
            PatternSpec::Increasing { ramp_periods } => {
                Box::new(IncreasingRamp::new(range, ramp_periods))
            }
            PatternSpec::Decreasing { ramp_periods } => {
                Box::new(DecreasingRamp::new(range, ramp_periods))
            }
            PatternSpec::Triangular { half_period } => {
                Box::new(Triangular::new(range, half_period))
            }
            PatternSpec::Step { low, high } => Box::new(Step::new(range, low, high)),
            PatternSpec::Burst { every, width } => Box::new(Burst::new(range, every, width)),
            PatternSpec::Sinusoid { wavelength } => Box::new(Sinusoid::new(range, wavelength)),
            PatternSpec::RandomWalk { max_step, seed } => {
                Box::new(RandomWalk::new(range, max_step, seed))
            }
        }
    }

    /// Pattern family name.
    pub fn name(self) -> &'static str {
        match self {
            PatternSpec::Increasing { .. } => "increasing-ramp",
            PatternSpec::Decreasing { .. } => "decreasing-ramp",
            PatternSpec::Triangular { .. } => "triangular",
            PatternSpec::Step { .. } => "step",
            PatternSpec::Burst { .. } => "burst",
            PatternSpec::Sinusoid { .. } => "sinusoid",
            PatternSpec::RandomWalk { .. } => "random-walk",
        }
    }
}

/// Which resource-management policy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum PolicySpec {
    /// The paper's predictive algorithm.
    Predictive,
    /// The paper's non-predictive baseline.
    NonPredictive,
    /// Extension baseline: one least-utilized replica per round, no
    /// forecast.
    Incremental,
    /// No adaptation at all (static single placement).
    None,
}

impl PolicySpec {
    /// Policy name.
    pub fn name(self) -> &'static str {
        match self {
            PolicySpec::Predictive => "predictive",
            PolicySpec::NonPredictive => "non-predictive",
            PolicySpec::Incremental => "incremental",
            PolicySpec::None => "static",
        }
    }
}

/// Full scenario description.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Workload pattern.
    pub pattern: PatternSpec,
    /// Policy under test.
    pub policy: PolicySpec,
    /// Workload interval (min/max tracks per period).
    pub workload: WorkloadRange,
    /// Number of 1 s periods to simulate.
    pub n_periods: u64,
    /// Ambient Poisson background utilization per node, `[0, 1)`.
    pub ambient_util: f64,
    /// Master seed.
    pub seed: u64,
    /// CPU scheduling policy on every node (Table 1: round-robin 1 ms).
    pub scheduler: SchedulerKind,
    /// Enable online Eq. (3) model refinement in the manager (extension).
    pub online_refinement: bool,
    /// Fault plan: `(node index, failure time in whole seconds)` pairs.
    /// These are legacy *permanent* fail-stop faults; for crash–restart
    /// and degraded-network faults see [`ScenarioConfig::faults`].
    pub failures: Vec<(u32, u64)>,
    /// Failure-realism plan: lossy/duplicating bus, retransmission,
    /// jamming, and crash–restart faults. Defaults to everything off, in
    /// which case the run is byte-identical to a scenario without the
    /// field.
    pub faults: FaultPlan,
    /// Observability: collect the event trace and the manager's
    /// [`DecisionRecord`] audit. Off by default; turning it on never
    /// changes simulation outcomes (zero observer effect), it only fills
    /// [`ScenarioResult::trace`] and [`ScenarioResult::decisions`].
    pub observe: bool,
}

/// Capacity of each observed stream: generous enough for any paper-scale
/// run without risking unbounded growth. The trace keeps failure-class
/// events past it.
const OBSERVE_CAPACITY: usize = 1 << 16;

/// Declarative failure-realism configuration for a scenario: the knobs of
/// the degraded-mode experiments. `FaultPlan::default()` disables every
/// feature and leaves runs byte-identical to the clean baseline.
#[derive(Debug, Clone, Default, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Per-message corruption probability on the shared bus, `[0, 1]`.
    pub drop_prob: f64,
    /// Per-message spurious-duplication probability, `[0, 1]`.
    pub dup_prob: f64,
    /// Sender-side retransmit timeout in microseconds; 0 disables
    /// retransmission (losses are then final).
    pub retx_timeout_us: u64,
    /// Optional transient bandwidth-degradation window.
    pub jam: Option<JamWindow>,
    /// Crash–restart faults, in schedule order.
    pub crashes: Vec<CrashFault>,
}

/// One crash–restart fault in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct CrashFault {
    /// Node index to crash.
    pub node: u32,
    /// Crash time, whole seconds from the start of the run.
    pub at_s: u64,
    /// Restart delay in whole seconds; `None` means the node never comes
    /// back (but unlike `ScenarioConfig::failures`, the crash still tears
    /// down its in-flight traffic).
    pub restart_after_s: Option<u64>,
}

impl FaultPlan {
    /// True when any failure-realism feature is enabled.
    pub fn is_active(&self) -> bool {
        *self != FaultPlan::default()
    }
}

impl ScenarioConfig {
    /// The paper's evaluation defaults for a given pattern, policy and
    /// maximum workload (in tracks): minimum workload 500 tracks, 240
    /// periods, 10 % ambient load.
    pub fn paper(pattern: PatternSpec, policy: PolicySpec, max_tracks: u64) -> Self {
        ScenarioConfig {
            pattern,
            policy,
            workload: WorkloadRange::new(500.min(max_tracks), max_tracks),
            n_periods: 240,
            ambient_util: 0.10,
            seed: 0x5EED,
            scheduler: SchedulerKind::paper_baseline(),
            online_refinement: false,
            failures: Vec::new(),
            faults: FaultPlan::default(),
            observe: false,
        }
    }
}

/// Everything produced by one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The four paper metrics.
    pub summary: RunSummary,
    /// Combined-metric breakdown.
    pub breakdown: CombinedBreakdown,
    /// Raw run metrics, for detailed analysis.
    pub metrics: RunMetrics,
    /// Policy that ran.
    pub policy: &'static str,
    /// Event trace, when [`ScenarioConfig::observe`] was set.
    pub trace: Option<BoundedSink<TraceEvent>>,
    /// Decision-audit records in emission order, when
    /// [`ScenarioConfig::observe`] was set (always empty for
    /// [`PolicySpec::None`], which makes no decisions).
    pub decisions: Vec<(SimTime, DecisionRecord)>,
}

/// Indices of the replicable stages, for summarization.
pub fn replicable_stage_indices() -> [usize; 2] {
    [FILTER_STAGE, EVAL_DECIDE_STAGE]
}

/// Builds and runs one scenario with the given predictor (shared by both
/// policies — the non-predictive algorithm uses it only for EQF deadline
/// estimation, exactly as §4.1 prescribes).
pub fn run_scenario(cfg: &ScenarioConfig, predictor: &Predictor) -> ScenarioResult {
    run_scenario_on(cfg, predictor, Cluster::new)
}

/// Equivalence oracle only: [`run_scenario`] on a
/// [`Cluster::reference`] cluster, whose ambient load runs on the
/// reference heap-event path. Same assembly, same order; the result must
/// be byte-identical to [`run_scenario`]'s
/// (`tests/bg_fastpath_equivalence.rs`).
#[doc(hidden)]
pub fn run_scenario_reference(cfg: &ScenarioConfig, predictor: &Predictor) -> ScenarioResult {
    run_scenario_on(cfg, predictor, Cluster::reference)
}

fn run_scenario_on(
    cfg: &ScenarioConfig,
    predictor: &Predictor,
    build: fn(ClusterConfig) -> Cluster,
) -> ScenarioResult {
    assert!(cfg.n_periods > 0, "empty scenario");
    assert!((0.0..1.0).contains(&cfg.ambient_util), "ambient must be in [0,1)");
    let horizon = SimDuration::from_secs(cfg.n_periods);
    let mut cluster_cfg = ClusterConfig::paper_baseline(cfg.seed, horizon);
    cluster_cfg.clock = ClockConfig::lan_default();
    cluster_cfg.scheduler = cfg.scheduler;
    cluster_cfg.bus.drop_prob = cfg.faults.drop_prob;
    cluster_cfg.bus.dup_prob = cfg.faults.dup_prob;
    cluster_cfg.bus.retx_timeout_us = cfg.faults.retx_timeout_us;
    cluster_cfg.bus.jam = cfg.faults.jam;
    let mut cluster = build(cluster_cfg);

    let task = aaw_task();
    let pattern = cfg.pattern.build(cfg.workload);
    cluster.add_task(task, adapt(pattern));

    if cfg.ambient_util > 0.0 {
        for n in 0..6 {
            cluster.add_load(Box::new(PoissonLoad::with_utilization(
                LoadGenId(n),
                NodeId(n),
                cfg.ambient_util,
                SimDuration::from_millis(2),
            )));
        }
    }

    if cfg.observe {
        cluster.enable_trace(OBSERVE_CAPACITY);
    }
    // The decision sink is shared: the manager (consumed by the cluster)
    // records through one handle; this function drains the other after
    // the run has dropped the manager.
    let decision_sink = (cfg.observe && cfg.policy != PolicySpec::None)
        .then(|| Arc::new(Mutex::new(BoundedSink::<DecisionRecord>::bounded(OBSERVE_CAPACITY))));

    let arm_config = |mut c: ArmConfig| {
        c.online_refinement = cfg.online_refinement;
        c
    };
    let manager_for = |c: ArmConfig| {
        let mut m = ResourceManager::new(arm_config(c), predictor.clone());
        if let Some(sink) = &decision_sink {
            m.set_decision_sink(Box::new(Arc::clone(sink)));
        }
        m
    };
    match cfg.policy {
        PolicySpec::Predictive => {
            cluster.set_controller(Box::new(manager_for(ArmConfig::paper_predictive())));
        }
        PolicySpec::NonPredictive => {
            cluster.set_controller(Box::new(manager_for(ArmConfig::paper_nonpredictive())));
        }
        PolicySpec::Incremental => {
            cluster.set_controller(Box::new(manager_for(ArmConfig::incremental())));
        }
        PolicySpec::None => {}
    }

    for &(node, at_s) in &cfg.failures {
        cluster.fail_node_at(rtds_sim::ids::NodeId(node), SimTime::from_secs(at_s));
    }
    for &CrashFault { node, at_s, restart_after_s } in &cfg.faults.crashes {
        cluster.crash_node_at(
            rtds_sim::ids::NodeId(node),
            SimTime::from_secs(at_s),
            restart_after_s.map(SimDuration::from_secs),
        );
    }

    if crate::perfmon::enabled() {
        cluster.enable_perf(crate::perfmon::probe());
    }
    let outcome = cluster.run();
    if let Some(p) = &outcome.perf {
        crate::perfmon::record(p);
    }
    let summary = outcome
        .metrics
        .summarize(&replicable_stage_indices());
    let breakdown = combined_breakdown(&summary, 6);
    // `run` consumed the cluster and with it the manager, so this is the
    // last handle to the decision sink.
    let decisions = decision_sink
        .map(|sink| {
            Arc::try_unwrap(sink)
                .map(|m| {
                    m.into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                        .into_events()
                })
                .unwrap_or_default()
        })
        .unwrap_or_default();
    ScenarioResult {
        summary,
        breakdown,
        metrics: outcome.metrics,
        policy: cfg.policy.name(),
        trace: outcome.trace,
        decisions,
    }
}

fn adapt(mut p: Box<dyn Pattern>) -> Box<dyn FnMut(u64) -> u64 + Send> {
    Box::new(move |period| p.tracks_at(period))
}

/// Convenience: run the same scenario under both paper policies.
pub fn run_both_policies(
    base: &ScenarioConfig,
    predictor: &Predictor,
) -> (ScenarioResult, ScenarioResult) {
    let mut p = base.clone();
    p.policy = PolicySpec::Predictive;
    let mut n = base.clone();
    n.policy = PolicySpec::NonPredictive;
    (run_scenario(&p, predictor), run_scenario(&n, predictor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::quick_predictor;

    fn quick_cfg(policy: PolicySpec, max: u64) -> ScenarioConfig {
        let mut c = ScenarioConfig::paper(
            PatternSpec::Triangular { half_period: 10 },
            policy,
            max,
        );
        c.n_periods = 40;
        c
    }

    #[test]
    fn light_load_meets_all_deadlines_without_adaptation() {
        let r = run_scenario(&quick_cfg(PolicySpec::None, 2_000), &quick_predictor());
        assert_eq!(r.summary.missed_deadline_pct, 0.0, "{:?}", r.summary);
        assert!(r.summary.avg_replicas >= 1.0 && r.summary.avg_replicas < 1.01);
        assert_eq!(r.policy, "static");
    }

    #[test]
    fn heavy_load_without_adaptation_misses_deadlines() {
        let r = run_scenario(&quick_cfg(PolicySpec::None, 17_500), &quick_predictor());
        assert!(
            r.summary.missed_deadline_pct > 10.0,
            "static placement must collapse at max workload: {:?}",
            r.summary
        );
    }

    #[test]
    fn predictive_policy_rescues_heavy_load() {
        let p = quick_predictor();
        let none = run_scenario(&quick_cfg(PolicySpec::None, 14_000), &p);
        let pred = run_scenario(&quick_cfg(PolicySpec::Predictive, 14_000), &p);
        assert!(
            pred.summary.missed_deadline_pct < none.summary.missed_deadline_pct,
            "predictive {:?} vs static {:?}",
            pred.summary,
            none.summary
        );
        assert!(pred.summary.avg_replicas > 1.0, "replication happened");
        assert!(pred.summary.placement_changes > 0);
    }

    #[test]
    fn nonpredictive_uses_more_replicas_than_predictive() {
        let p = quick_predictor();
        let pred = run_scenario(&quick_cfg(PolicySpec::Predictive, 14_000), &p);
        let nonp = run_scenario(&quick_cfg(PolicySpec::NonPredictive, 14_000), &p);
        assert!(
            nonp.summary.avg_replicas > pred.summary.avg_replicas,
            "paper's headline resource contrast: non-predictive {} vs predictive {}",
            nonp.summary.avg_replicas,
            pred.summary.avg_replicas
        );
    }

    #[test]
    fn results_are_deterministic() {
        let p = quick_predictor();
        let a = run_scenario(&quick_cfg(PolicySpec::Predictive, 10_000), &p);
        let b = run_scenario(&quick_cfg(PolicySpec::Predictive, 10_000), &p);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn pattern_spec_builds_all_variants() {
        let range = WorkloadRange::new(100, 1_000);
        for (spec, name) in [
            (PatternSpec::Increasing { ramp_periods: 10 }, "increasing-ramp"),
            (PatternSpec::Decreasing { ramp_periods: 10 }, "decreasing-ramp"),
            (PatternSpec::Triangular { half_period: 5 }, "triangular"),
            (PatternSpec::Step { low: 2, high: 2 }, "step"),
            (PatternSpec::Burst { every: 5, width: 1 }, "burst"),
            (PatternSpec::Sinusoid { wavelength: 10 }, "sinusoid"),
            (PatternSpec::RandomWalk { max_step: 50, seed: 1 }, "random-walk"),
        ] {
            let mut p = spec.build(range);
            assert_eq!(spec.name(), name);
            assert_eq!(p.name(), name);
            for i in 0..20 {
                let v = p.tracks_at(i);
                assert!((100..=1_000).contains(&v), "{name} out of range: {v}");
            }
        }
    }

    #[test]
    fn run_both_policies_returns_matching_pair() {
        let p = quick_predictor();
        let base = quick_cfg(PolicySpec::Predictive, 5_000);
        let (pred, nonp) = run_both_policies(&base, &p);
        assert_eq!(pred.policy, "predictive");
        assert_eq!(nonp.policy, "non-predictive");
    }
}
