//! Evaluation-scenario assembly.
//!
//! One scenario = the paper's Table 1 system (6 nodes, round-robin 1 ms,
//! 100 Mbps Ethernet, the 5-subtask AAW task, 990 ms deadline) + a
//! workload pattern ([`PatternSpec`], re-exported from `rtds_workloads`) +
//! a resource-management policy + ambient background load.
//! [`run_scenario`] builds the cluster, runs it, and reduces the result to
//! the four paper metrics plus the combined metric; [`run_policies`] does
//! the same for several policies at once and simulates a run that two
//! policies would both produce only once. With
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
use rtds_sim::cluster::{Cluster, ClusterApi, ClusterConfig, RunOutcome};
use rtds_sim::control::{
    ControlAction, ControlContext, Controller, NullController, PeriodObservation,
};
use rtds_sim::ids::{LoadGenId, NodeId};
use rtds_sim::load::PoissonLoad;
use rtds_sim::metrics::{ForecastResidualStat, RunMetrics, RunSummary};
use rtds_sim::net::JamWindow;
use rtds_sim::sched::SchedulerKind;
use rtds_sim::sink::BoundedSink;
use rtds_sim::time::{SimDuration, SimTime};
use rtds_sim::trace::TraceEvent;
use rtds_workloads::WorkloadRange;

pub use rtds_workloads::PatternSpec;

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

    /// The Table 1 cluster at this scenario's seed and horizon, with its
    /// scheduler and the fault plan's bus settings.
    pub(crate) fn cluster_config(&self) -> ClusterConfig {
        let mut c = ClusterConfig::paper_baseline(self.seed, SimDuration::from_secs(self.n_periods));
        c.scheduler = self.scheduler;
        c.bus.drop_prob = self.faults.drop_prob;
        c.bus.dup_prob = self.faults.dup_prob;
        c.bus.retx_timeout_us = self.faults.retx_timeout_us;
        c.bus.jam = self.faults.jam;
        c
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
    run_group_on(cfg, &[cfg.policy], predictor, Cluster::new).lead
}

/// Runs one scenario under each of `policies` (`cfg.policy` is ignored)
/// and returns one result per policy, in order, each equal to that
/// policy's [`run_scenario`].
///
/// Every policy sees the same seed and one kernel random stream, so two
/// policies that take the same actions at every period boundary produce
/// the same run. The group therefore simulates the first policy once and
/// asks every other policy's manager, in lockstep, for its actions on the
/// same observations and context. A policy that matches the first at
/// every boundary shares that run, keeping its own forecast residuals,
/// decisions and name; one that ever answers differently is re-run alone
/// with a fresh manager.
///
/// # Panics
/// Panics if `policies` is empty.
pub fn run_policies(
    cfg: &ScenarioConfig,
    policies: &[PolicySpec],
    predictor: &Predictor,
) -> Vec<ScenarioResult> {
    let GroupRun { lead, shadows } = run_group(cfg, policies, predictor);
    let rest: Vec<ScenarioResult> = policies[1..]
        .iter()
        .zip(shadows)
        .map(|(&policy, own)| match own {
            Some(own) => lead.shared_with(policy, own),
            None => run_group(cfg, &[policy], predictor).lead,
        })
        .collect();
    std::iter::once(lead).chain(rest).collect()
}

/// Equivalence oracle only: [`run_scenario`] on a
/// [`Cluster::reference`] cluster, whose ambient load runs on the
/// reference heap-event path. Same assembly, same order; the result must
/// be byte-identical to [`run_scenario`]'s
/// (`tests/bg_fastpath_equivalence.rs`).
#[doc(hidden)]
pub fn run_scenario_reference(cfg: &ScenarioConfig, predictor: &Predictor) -> ScenarioResult {
    run_group_on(cfg, &[cfg.policy], predictor, Cluster::reference).lead
}

/// What one group simulation settled: the first policy's result and, for
/// each further policy in order, its own controller outputs if it shared
/// that run, or `None` if it diverged and needs a run of its own.
pub(crate) struct GroupRun {
    pub(crate) lead: ScenarioResult,
    pub(crate) shadows: Vec<Option<ShadowOutputs>>,
}

impl GroupRun {
    /// Whether each policy of the group, in order, got its result from
    /// this run.
    pub(crate) fn served(&self) -> impl Iterator<Item = bool> + '_ {
        std::iter::once(true).chain(self.shadows.iter().map(Option::is_some))
    }
}

/// The controller-dependent outputs of a policy that shared the lead's
/// run: everything else in its result is the lead's.
pub(crate) struct ShadowOutputs {
    forecast_residuals: Vec<ForecastResidualStat>,
    decisions: Vec<(SimTime, DecisionRecord)>,
}

impl ScenarioResult {
    /// This result as `policy`'s, which shared the run.
    fn shared_with(&self, policy: PolicySpec, own: ShadowOutputs) -> ScenarioResult {
        ScenarioResult {
            summary: self.summary,
            breakdown: self.breakdown,
            metrics: RunMetrics {
                forecast_residuals: own.forecast_residuals,
                ..self.metrics.clone()
            },
            policy: policy.name(),
            trace: self.trace.clone(),
            decisions: own.decisions,
        }
    }
}

type DecisionSink = Arc<Mutex<BoundedSink<DecisionRecord>>>;

/// A fresh controller for `policy` and, when observing, the sink its
/// decisions go to ([`PolicySpec::None`] makes no decisions).
fn policy_controller(
    cfg: &ScenarioConfig,
    policy: PolicySpec,
    predictor: &Predictor,
) -> (Box<dyn Controller>, Option<DecisionSink>) {
    let mut arm = match policy {
        PolicySpec::Predictive => ArmConfig::paper_predictive(),
        PolicySpec::NonPredictive => ArmConfig::paper_nonpredictive(),
        PolicySpec::Incremental => ArmConfig::incremental(),
        PolicySpec::None => return (Box::new(NullController), None),
    };
    arm.online_refinement = cfg.online_refinement;
    let mut manager = ResourceManager::new(arm, predictor.clone());
    // The sink is shared: the manager records through one handle; the
    // group runner drains the other once the manager is dropped.
    let sink = cfg
        .observe
        .then(|| Arc::new(Mutex::new(BoundedSink::bounded(OBSERVE_CAPACITY))));
    if let Some(sink) = &sink {
        manager.set_decision_sink(Arc::clone(sink));
    }
    (Box::new(manager), sink)
}

/// The records of a decision sink whose manager has been dropped.
fn drain(sink: Option<DecisionSink>) -> Vec<(SimTime, DecisionRecord)> {
    sink.and_then(|sink| Arc::try_unwrap(sink).ok())
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()).into_events())
        .unwrap_or_default()
}

/// A policy that follows the lead until its answer first differs.
struct Shadow {
    controller: Box<dyn Controller>,
    decisions: Option<DecisionSink>,
    diverged: bool,
}

/// The controller of a group run: the lead decides, and every shadow
/// still in step is asked the same question. The shadows sit behind a
/// shared handle because the cluster consumes its controller.
struct Lockstep {
    lead: Box<dyn Controller>,
    shadows: Arc<Mutex<Vec<Shadow>>>,
}

impl Controller for Lockstep {
    fn on_period_boundary(
        &mut self,
        completed: &[PeriodObservation],
        ctx: &ControlContext,
    ) -> Vec<ControlAction> {
        let actions = self.lead.on_period_boundary(completed, ctx);
        let mut shadows = self.shadows.lock().unwrap_or_else(|e| e.into_inner());
        for s in shadows.iter_mut().filter(|s| !s.diverged) {
            s.diverged = s.controller.on_period_boundary(completed, ctx) != actions;
        }
        actions
    }

    fn name(&self) -> &'static str {
        self.lead.name()
    }

    fn forecast_residuals(&self) -> Vec<ForecastResidualStat> {
        self.lead.forecast_residuals()
    }
}

/// [`run_policies`]' one simulation, on a [`Cluster::new`] cluster.
pub(crate) fn run_group(
    cfg: &ScenarioConfig,
    policies: &[PolicySpec],
    predictor: &Predictor,
) -> GroupRun {
    run_group_on(cfg, policies, predictor, Cluster::new)
}

/// Builds the scenario's cluster once and runs it under `policies[0]`,
/// with every further policy in lockstep. A one-policy group installs
/// its controller directly.
fn run_group_on(
    cfg: &ScenarioConfig,
    policies: &[PolicySpec],
    predictor: &Predictor,
    build: fn(ClusterConfig) -> Cluster,
) -> GroupRun {
    assert!(!policies.is_empty(), "empty policy group");
    let (lead, lead_decisions) = policy_controller(cfg, policies[0], predictor);
    let shadows: Vec<Shadow> = policies[1..]
        .iter()
        .map(|&policy| {
            let (controller, decisions) = policy_controller(cfg, policy, predictor);
            Shadow { controller, decisions, diverged: false }
        })
        .collect();
    let shadows = Arc::new(Mutex::new(shadows));
    let controller: Box<dyn Controller> = if policies.len() == 1 {
        lead
    } else {
        Box::new(Lockstep { lead, shadows: Arc::clone(&shadows) })
    };
    let outcome = simulate(cfg, build(cfg.cluster_config()), controller);
    // The run consumed the cluster and with it the lead's controller and
    // the lockstep wrapper, so the shadows and the lead's sink are ours
    // alone.
    let shadows = std::mem::take(&mut *shadows.lock().unwrap_or_else(|e| e.into_inner()));
    let shadows = shadows
        .into_iter()
        .map(|s| {
            (!s.diverged).then(|| {
                let forecast_residuals = s.controller.forecast_residuals();
                drop(s.controller);
                ShadowOutputs { forecast_residuals, decisions: drain(s.decisions) }
            })
        })
        .collect();
    let lead = ScenarioResult::from_outcome(outcome, policies[0].name(), drain(lead_decisions));
    GroupRun { lead, shadows }
}

/// Runs `cfg`'s task, pattern, ambient load and node faults on a
/// [`Cluster::new`] cluster built from `cluster`, under `controller`: the
/// scenario runner for a manager or cluster that a [`ScenarioConfig`]
/// cannot name. `cfg.policy` is ignored; the result is named after the
/// controller and carries no decision records.
pub(crate) fn run_controller(
    cfg: &ScenarioConfig,
    cluster: ClusterConfig,
    controller: Box<dyn Controller>,
) -> ScenarioResult {
    let outcome = simulate(cfg, Cluster::new(cluster), controller);
    let name = outcome.controller;
    ScenarioResult::from_outcome(outcome, name, Vec::new())
}

/// Adds the scenario's task under its workload pattern, the ambient load,
/// the trace when observing, `controller` and the fault plan's node
/// faults to `cluster`, and runs it.
fn simulate(
    cfg: &ScenarioConfig,
    mut cluster: Cluster,
    controller: Box<dyn Controller>,
) -> RunOutcome {
    assert!(cfg.n_periods > 0, "empty scenario");
    assert!((0.0..1.0).contains(&cfg.ambient_util), "ambient must be in [0,1)");
    let mut pattern = cfg.pattern.build(cfg.workload);
    cluster.add_task(aaw_task(), Box::new(move |period| pattern.tracks_at(period)));
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
    cluster.set_controller(controller);
    for &(node, at_s) in &cfg.failures {
        cluster.fail_node_at(NodeId(node), SimTime::from_secs(at_s));
    }
    for &CrashFault { node, at_s, restart_after_s } in &cfg.faults.crashes {
        cluster.crash_node_at(
            NodeId(node),
            SimTime::from_secs(at_s),
            restart_after_s.map(SimDuration::from_secs),
        );
    }
    crate::perfmon::run(cluster)
}

impl ScenarioResult {
    /// Reduces a finished run to the paper metrics.
    fn from_outcome(
        outcome: RunOutcome,
        policy: &'static str,
        decisions: Vec<(SimTime, DecisionRecord)>,
    ) -> ScenarioResult {
        let summary = outcome.metrics.summarize(&replicable_stage_indices());
        ScenarioResult {
            summary,
            breakdown: combined_breakdown(&summary, 6),
            metrics: outcome.metrics,
            policy,
            trace: outcome.trace,
            decisions,
        }
    }
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
    fn a_group_shares_a_quiet_run_and_reruns_a_diverging_policy() {
        let p = quick_predictor();
        let pair = [PolicySpec::Predictive, PolicySpec::NonPredictive];
        // Low load: neither policy ever acts, so one run serves both.
        let quiet = run_group(&quick_cfg(PolicySpec::Predictive, 2_000), &pair, &p);
        assert_eq!(quiet.served().collect::<Vec<_>>(), [true, true]);
        assert_eq!(quiet.lead.summary.placement_changes, 0);
        // High load: the policies replicate differently, so the second
        // one needs a run of its own.
        let busy = run_group(&quick_cfg(PolicySpec::Predictive, 14_000), &pair, &p);
        assert_eq!(busy.served().collect::<Vec<_>>(), [true, false]);
    }

    #[test]
    fn run_controller_assembles_the_system_run_scenario_does() {
        let p = quick_predictor();
        let mut cfg = quick_cfg(PolicySpec::Predictive, 14_000);
        cfg.faults = FaultPlan {
            drop_prob: 0.05,
            retx_timeout_us: 80_000,
            crashes: vec![CrashFault { node: 2, at_s: 12, restart_after_s: Some(4) }],
            ..FaultPlan::default()
        };
        cfg.failures = vec![(5, 20)];
        let manager = ResourceManager::new(ArmConfig::paper_predictive(), p.clone());
        let by_controller = run_controller(&cfg, cfg.cluster_config(), Box::new(manager));
        let by_policy = run_scenario(&cfg, &p);
        assert_eq!(by_controller.summary, by_policy.summary);
        assert_eq!(format!("{:?}", by_controller.metrics), format!("{:?}", by_policy.metrics));
        assert!(by_policy.metrics.messages_dropped > 0, "the bus faults reach the cluster");
    }

    #[test]
    fn results_are_deterministic() {
        let p = quick_predictor();
        let a = run_scenario(&quick_cfg(PolicySpec::Predictive, 10_000), &p);
        let b = run_scenario(&quick_cfg(PolicySpec::Predictive, 10_000), &p);
        assert_eq!(a.summary, b.summary);
    }
}
