//! The adaptive resource manager (paper Fig. 1 and §4).
//!
//! [`ResourceManager`] implements the simulator's [`Controller`]
//! interface and runs the paper's loop at every period boundary as named
//! steps:
//!
//! 1. **Repair:** drop dead nodes from every replica set and re-home a
//!    stage whose whole set died (survivability, §1).
//! 2. **Score + refine:** grade the Eq. (3)/(4) forecasts against the
//!    completed observations, then (online refinement) absorb them into
//!    the Eq. (3) models.
//! 3. **Monitor** (§4.1, every policy): measure each subtask's slack
//!    against its EQF budget; flag replication candidates (low slack or a
//!    miss) and shutdown candidates (sustained very high slack).
//! 4. **Act** (§4.2, per policy): the predictive algorithm (Fig. 5) adds
//!    the least-utilized processors until the forecast fits; the
//!    non-predictive one (Fig. 7) takes every processor under the
//!    utilization threshold; both share the Fig. 6 shutdown rule.
//! 5. **Deadlines:** assign EQF deadlines at the first boundary and
//!    re-assign them after every action (§4.1).
//!
//! ## Decentralized coordination
//!
//! The paper argues asynchronous real-time applications "require
//! decentralization because of the physical distribution of application
//! resources and for achieving survivability" (§1), yet presents one
//! global decision procedure. [`ResourceManager::decentralized`] makes
//! the cost measurable: every stage becomes an independent agent that
//! decides without seeing what the others chose this round. Only two
//! things differ: the **deadlines** step keeps the initial EQF budgets
//! for the whole run (re-assignment would need coordination), and the
//! **utilization view** the act step reads is `staleness` periods old
//! (state dissemination lags). The failure mode this surfaces is
//! *herding*: agents that see the same idle node all take it, and with
//! stale state keep chasing utilization that no longer exists;
//! `ext_decentralized` measures it against the centralized manager.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use rtds_sim::control::{ControlAction, ControlContext, Controller, PeriodObservation};
use rtds_sim::ids::{NodeId, SubtaskIdx, TaskId};
use rtds_sim::metrics::{ForecastResidualStat, ResidualKind};
use rtds_sim::sink::BoundedSink;

use crate::audit::{CandidateForecast, DecisionArm, DecisionRecord};
use crate::config::{ArmConfig, Policy};
use crate::eqf::{assign_deadlines, try_assign_deadlines, DeadlineAssignment};
use crate::monitor::{assess_stage, SlackTracker, StageHealth};
use crate::nonpredictive::{replicate_subtask_incremental, replicate_subtask_nonpredictive, shutdown_a_replica};
use crate::online::OnlineRefiner;
use crate::predictive::{replicate_subtask, ReplicateFailure, ReplicationRequest};
use crate::predictor::Predictor;

/// Per-allocation audit scratch: what `allocate` examined, for the
/// decision record. Only filled when a decision sink is attached.
#[derive(Debug, Default)]
struct AllocAudit {
    candidates: Vec<CandidateForecast>,
    out_of_processors: bool,
}

/// How the manager's per-stage decisions are coordinated.
enum Coordination {
    /// The paper's global loop: current utilization, deadlines
    /// re-assigned after every action.
    Centralized,
    /// Independent per-stage agents: frozen initial budgets and a
    /// utilization view `staleness` periods old.
    Decentralized {
        staleness: usize,
        /// Past utilization snapshots, oldest first; the newest is the
        /// current epoch's.
        history: VecDeque<Vec<f64>>,
    },
}

/// The monitor's latest reading of one replicable stage.
#[derive(Debug, Clone, Copy)]
struct StageReading {
    health: StageHealth,
    tracks: u64,
    /// Observed stage latency (exec + inbound message), ms — the decision
    /// record derives observed slack from it.
    observed_ms: f64,
}

/// What the monitor step saw this epoch.
#[derive(Default)]
struct Monitored {
    /// Latest reading per stage (`None` for non-replicable stages and
    /// stages without a completed observation).
    latest: Vec<Option<StageReading>>,
    /// Per stage: sustained high slack, ready for a replica shutdown.
    shutdown_ready: Vec<bool>,
    /// A period was shed under overload (no per-stage data).
    saw_shed: bool,
}

/// Counters describing what the manager has done, for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ManagerStats {
    /// Replication decisions taken.
    pub replications: u64,
    /// Replica shutdowns taken.
    pub shutdowns: u64,
    /// Predictive allocations that ran out of processors (Fig. 5 FAILURE).
    pub allocation_failures: u64,
    /// Deadline re-assignments performed.
    pub deadline_reassignments: u64,
    /// Placement repairs after node failures.
    pub repairs: u64,
}

/// The adaptive resource manager for one task.
pub struct ResourceManager {
    cfg: ArmConfig,
    predictor: Predictor,
    /// The task this manager is responsible for.
    task: TaskId,
    coordination: Coordination,
    deadlines: Option<DeadlineAssignment>,
    tracker: SlackTracker,
    stats: ManagerStats,
    /// Per-stage RLS refiners, present when online refinement is enabled.
    refiners: Option<Vec<OnlineRefiner>>,
    /// Period-boundary invocations seen (for the act_every control
    /// latency).
    invocations: u64,
    /// Decision-audit sink, when the embedder wants every replicate /
    /// shut-down / no-op choice explained. `None` (the default) skips all
    /// audit bookkeeping.
    audit: Option<Arc<Mutex<BoundedSink<DecisionRecord>>>>,
    /// Per-stage Eq. (3) forecast residuals (predictive policy only).
    exec_residuals: Vec<ForecastResidualStat>,
    /// Per-stage Eq. (4) forecast residuals; index j grades stage j's
    /// *inbound* message, so index 0 never accumulates.
    comm_residuals: Vec<ForecastResidualStat>,
    /// Epoch scratch, rebuilt in place every period boundary so a quiet
    /// epoch allocates nothing: the working copy of the task's placement,
    /// the monitor's reading, and the utilization view.
    placements: Vec<Vec<NodeId>>,
    seen: Monitored,
    utils: Vec<f64>,
}

impl ResourceManager {
    /// Creates a centralized manager for task 0 of the cluster.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ArmConfig, predictor: Predictor) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid ARM configuration: {e}");
        }
        let n = predictor.n_stages();
        let refiners = cfg.online_refinement.then(|| {
            (0..n)
                .map(|j| OnlineRefiner::default_tuning(predictor.exec_model(j)))
                .collect()
        });
        ResourceManager {
            cfg,
            predictor,
            task: TaskId(0),
            coordination: Coordination::Centralized,
            deadlines: None,
            tracker: SlackTracker::new(n),
            stats: ManagerStats::default(),
            refiners,
            invocations: 0,
            audit: None,
            exec_residuals: (0..n)
                .map(|j| ForecastResidualStat::new(0, j as u32, ResidualKind::Exec))
                .collect(),
            comm_residuals: (0..n)
                .map(|j| ForecastResidualStat::new(0, j as u32, ResidualKind::Comm))
                .collect(),
            placements: Vec::new(),
            seen: Monitored::default(),
            utils: Vec::new(),
        }
    }

    /// Switches to decentralized coordination (see the module docs):
    /// frozen initial budgets and a utilization view `staleness` periods
    /// old. `staleness` = 0 means agents see current utilization but
    /// still decide independently with fixed budgets.
    pub fn decentralized(mut self, staleness: usize) -> Self {
        self.coordination = Coordination::Decentralized {
            staleness,
            history: VecDeque::new(),
        };
        self
    }

    /// Attaches a decision-audit sink: every subsequent control cycle
    /// emits one [`DecisionRecord`] per replicable stage it acted on (or
    /// explicitly declined to act on). Pure observation — attaching a
    /// sink never changes any decision. The embedder keeps a clone of the
    /// `Arc` and drains the sink after the run.
    pub fn set_decision_sink(&mut self, sink: Arc<Mutex<BoundedSink<DecisionRecord>>>) {
        self.audit = Some(sink);
    }

    /// The online refiner of one stage, if refinement is enabled.
    pub fn refiner(&self, stage: usize) -> Option<&OnlineRefiner> {
        self.refiners.as_ref().map(|r| &r[stage])
    }

    /// Targets a different task id.
    pub fn for_task(mut self, task: TaskId) -> Self {
        self.task = task;
        self
    }

    /// Action counters so far.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// The current deadline assignment, once initialized.
    pub fn deadlines(&self) -> Option<&DeadlineAssignment> {
        self.deadlines.as_ref()
    }

    /// The action that moves `stage` of this task onto `nodes`.
    fn set_placement(&self, stage: usize, nodes: Vec<NodeId>) -> ControlAction {
        ControlAction::SetPlacement {
            task: self.task,
            subtask: SubtaskIdx::from_index(stage),
            nodes,
        }
    }

    /// Step 1, repair: drops dead nodes from every replica set and
    /// re-homes a stage whose whole set died on the least-utilized alive
    /// node.
    fn repair(
        &mut self,
        ctx: &ControlContext,
        placements: &mut [Vec<NodeId>],
        actions: &mut Vec<ControlAction>,
    ) {
        for (j, ps) in placements.iter_mut().enumerate() {
            if ps.iter().all(|n| ctx.alive[n.index()]) {
                continue;
            }
            let mut repaired: Vec<NodeId> =
                ps.iter().copied().filter(|n| ctx.alive[n.index()]).collect();
            if repaired.is_empty() {
                match ctx.least_utilized_excluding(&[]) {
                    Some(n) => repaired.push(n),
                    None => continue, // whole cluster dead; nothing to do
                }
            }
            self.stats.repairs += 1;
            let before = std::mem::replace(ps, repaired.clone());
            self.emit_decision(ctx, j, DecisionArm::Repair, None, None, &before, &repaired);
            actions.push(self.set_placement(j, repaired));
        }
    }

    /// Step 2, score + refine: grades the Eq. (3)/(4) forecasts of every
    /// completed stage observation (predictive policy) and feeds it to the
    /// online refiner, computing each placement's mean utilization once.
    /// Refined models are written back after the pass, so grading never
    /// sees a model that has absorbed the observation it grades.
    fn score_and_refine(&mut self, completed: &[PeriodObservation], ctx: &ControlContext) {
        let score = matches!(self.cfg.policy, Policy::Predictive);
        if !score && self.refiners.is_none() {
            return;
        }
        // Bitmask of stages that absorbed at least one observation: only
        // those models are exported back into the predictor, so an epoch's
        // refit cost scales with what actually completed, not with
        // pipeline length. (For the hypothetical ≥64-stage pipeline the
        // top bit over-approximates, which merely re-exports an unchanged
        // model.)
        let mut touched: u64 = 0;
        for obs in completed.iter().filter(|o| o.task == self.task) {
            for st in &obs.stages {
                let j = st.subtask.index();
                let ps = &ctx.placements[self.task.index()][j];
                let u = if ps.is_empty() {
                    self.cfg.u_init_pct
                } else {
                    let sum: f64 = ps.iter().map(|p| ctx.node_util_pct[p.index()]).sum();
                    sum / ps.len() as f64
                };
                if score {
                    let share = st.tracks.div_ceil(u64::from(st.replicas.max(1)));
                    let eex = self.predictor.eex(j, share, u).as_millis_f64();
                    self.exec_residuals[j].observe(eex, st.exec_latency.as_millis_f64());
                    if j > 0 {
                        let ecd = self.predictor.ecd(j - 1, share, ctx.total_tracks());
                        self.comm_residuals[j]
                            .observe(ecd.as_millis_f64(), st.inbound_msg_delay.as_millis_f64());
                    }
                }
                if let Some(refiners) = self.refiners.as_mut() {
                    let d = st.tracks as f64 / st.replicas.max(1) as f64 / 100.0;
                    refiners[j].observe(d, u, st.exec_latency.as_millis_f64());
                    touched |= 1u64 << j.min(63);
                }
            }
        }
        if let Some(refiners) = &self.refiners {
            for (j, r) in refiners.iter().enumerate() {
                if touched & (1u64 << j.min(63)) != 0 {
                    self.predictor.set_exec_model(j, r.model());
                }
            }
        }
    }

    /// Step 3, monitor: feeds every completed instance of the task through
    /// the slack monitor in order; the act step uses the most recent
    /// reading of each replicable stage, left in `self.seen`.
    fn monitor(&mut self, completed: &[PeriodObservation], ctx: &ControlContext) {
        let n = self.predictor.n_stages();
        let seen = &mut self.seen;
        seen.latest.clear();
        seen.latest.resize(n, None);
        seen.shutdown_ready.clear();
        seen.shutdown_ready.resize(n, false);
        seen.saw_shed = false;
        let deadlines = self.deadlines.as_ref().expect("deadlines initialized");
        for obs in completed.iter().filter(|o| o.task == self.task) {
            if obs.stages.is_empty() {
                seen.saw_shed |= obs.missed;
                continue;
            }
            for st in &obs.stages {
                let j = st.subtask.index();
                if !ctx.replicable[self.task.index()][j] {
                    continue;
                }
                let health = assess_stage(st, deadlines, &self.cfg.monitor);
                seen.shutdown_ready[j] =
                    self.tracker.observe(j, health, self.cfg.monitor.shutdown_patience);
                seen.latest[j] = Some(StageReading {
                    health,
                    tracks: st.tracks,
                    observed_ms: (st.exec_latency + st.inbound_msg_delay).as_millis_f64(),
                });
            }
        }
    }

    /// Step 4, act: on an acting cycle, replicates each replicable stage
    /// that needs it, shuts down a replica of a stage with sustained high
    /// slack, or records an explicit no-op.
    fn act(
        &mut self,
        ctx: &ControlContext,
        utils: &[f64],
        placements: &mut [Vec<NodeId>],
        actions: &mut Vec<ControlAction>,
    ) {
        self.invocations += 1;
        if !self.invocations.is_multiple_of(u64::from(self.cfg.act_every)) {
            return; // between control rounds: monitor only
        }
        let t = self.task.index();
        for j in (0..self.predictor.n_stages()).filter(|&j| ctx.replicable[t][j]) {
            let reading = self.seen.latest[j];
            let needs = match reading {
                Some(r) => r.health.needs_replication(),
                // A shed period under overload gives no per-stage data;
                // treat every replicable stage as a candidate so the
                // manager can react at all (every policy equally).
                None => self.seen.saw_shed,
            };
            let (arm, new, alloc) = if needs {
                let tracks = reading.map_or(ctx.last_tracks[t], |r| r.tracks);
                let mut alloc = self.audit.is_some().then(AllocAudit::default);
                let new = self.allocate(j, &placements[j], tracks, utils, ctx, alloc.as_mut());
                (DecisionArm::Replicate, new, alloc)
            } else if self.seen.shutdown_ready[j] && placements[j].len() > 1 {
                (DecisionArm::ShutDown, shutdown_a_replica(&placements[j]), None)
            } else if self.audit.is_some() {
                // Explicit no-op: the stage was examined on an acting
                // cycle and left alone.
                (DecisionArm::NoOp, placements[j].clone(), None)
            } else {
                continue;
            };
            self.emit_decision(ctx, j, arm, reading, alloc, &placements[j], &new);
            if new == placements[j] {
                continue;
            }
            if arm == DecisionArm::ShutDown {
                self.stats.shutdowns += 1;
            } else {
                self.stats.replications += 1;
            }
            placements[j] = new.clone();
            actions.push(self.set_placement(j, new));
        }
    }

    /// Step 5, deadlines: the initial EQF assignment, and (centralized
    /// only) the §4.1 re-assignment after an action. Centralized estimates
    /// come from the current conditions — per-replica data shares and mean
    /// replica-set utilizations; decentralized budgets come once from the
    /// initial conditions and stay frozen.
    fn update_deadlines(&mut self, ctx: &ControlContext, placements: &[Vec<NodeId>]) {
        let (exec, comm) = match self.coordination {
            Coordination::Decentralized { .. } if self.deadlines.is_some() => return,
            Coordination::Decentralized { .. } => self.predictor.initial_estimates(
                self.cfg.d_init_tracks,
                self.cfg.u_init_pct,
                self.cfg.d_init_tracks,
            ),
            Coordination::Centralized => self.current_estimates(ctx, placements),
        };
        let n = self.predictor.n_stages();
        let deadline = ctx.deadlines[self.task.index()];
        match try_assign_deadlines(&exec, &comm, deadline, self.cfg.eqf) {
            Ok(a) => {
                self.deadlines = Some(a);
                self.stats.deadline_reassignments += 1;
            }
            Err(_) => {
                // Degenerate estimates (e.g. right after a crash wiped the
                // task's observations) must not take down the control
                // plane: keep the previous assignment, or fall back to a
                // uniform split if none exists yet.
                if self.deadlines.is_none() {
                    let (ones, msg_ones) = (vec![1.0; n], vec![1.0; n.saturating_sub(1)]);
                    let uniform = assign_deadlines(&ones, &msg_ones, deadline, self.cfg.eqf);
                    self.deadlines = Some(uniform);
                }
            }
        }
    }

    /// Per-stage `eex` and per-message `ecd` estimates (ms) under the
    /// current conditions and `placements`.
    fn current_estimates(
        &self,
        ctx: &ControlContext,
        placements: &[Vec<NodeId>],
    ) -> (Vec<f64>, Vec<f64>) {
        let tracks = ctx.last_tracks[self.task.index()].max(self.cfg.d_init_tracks.max(1));
        let total = ctx.total_tracks().max(tracks);
        let n = self.predictor.n_stages();
        let mean_util = |nodes: &[NodeId]| -> f64 {
            if nodes.is_empty() {
                return self.cfg.u_init_pct;
            }
            // A cold (freshly restarted) node's EWMA is dominated by
            // post-restart zeros; treat its utilization as missing and fall
            // back to the same prior used before the first observation.
            nodes
                .iter()
                .map(|p| {
                    if ctx.cold[p.index()] {
                        self.cfg.u_init_pct
                    } else {
                        ctx.node_util_pct[p.index()]
                    }
                })
                .sum::<f64>()
                / nodes.len() as f64
        };
        let exec: Vec<f64> = (0..n)
            .map(|j| {
                let k = placements[j].len().max(1) as u64;
                let share = tracks.div_ceil(k);
                self.predictor
                    .eex(j, share, mean_util(&placements[j]))
                    .as_millis_f64()
            })
            .collect();
        let comm: Vec<f64> = (0..n.saturating_sub(1))
            .map(|j| {
                let k = placements[j].len().max(placements[j + 1].len()).max(1) as u64;
                let share = tracks.div_ceil(k);
                self.predictor.ecd(j, share, total).as_millis_f64()
            })
            .collect();
        (exec, comm)
    }

    /// The utilization view the act step allocates against, built once
    /// per epoch: the current readings (centralized) or the snapshot
    /// `staleness` periods back, clamped to the oldest retained
    /// (decentralized). Dead nodes read a pessimal `1e6` so no policy
    /// selects them; a cold (restarted, still warming up) node reads the
    /// `u_init_pct` prior, since its near-zero EWMA is a measurement
    /// artifact, not spare capacity. The returned vector is `self.utils`'
    /// buffer; the caller hands it back after the epoch.
    fn utilization_view(&mut self, ctx: &ControlContext) -> Vec<f64> {
        let snapshot = match &mut self.coordination {
            Coordination::Centralized => &ctx.node_util_pct,
            Coordination::Decentralized { staleness, history } => {
                history.push_back(ctx.node_util_pct.clone());
                while history.len() > *staleness + 2 {
                    history.pop_front();
                }
                &history[history.len() - 1 - (*staleness).min(history.len() - 1)]
            }
        };
        let u_init = self.cfg.u_init_pct;
        let mut view = std::mem::take(&mut self.utils);
        view.clear();
        view.extend(
            snapshot
                .iter()
                .enumerate()
                .map(|(i, &u)| if !ctx.alive[i] { 1e6 } else if ctx.cold[i] { u_init } else { u }),
        );
        view
    }

    /// Allocation for one candidate stage: returns its new placement.
    /// Results are filtered to alive nodes; if none remain the current
    /// placement stands.
    fn allocate(
        &mut self,
        stage: usize,
        current: &[NodeId],
        obs_tracks: u64,
        utils: &[f64],
        ctx: &ControlContext,
        mut audit: Option<&mut AllocAudit>,
    ) -> Vec<NodeId> {
        let ps = match self.cfg.policy {
            Policy::Predictive => {
                let deadlines = self.deadlines.as_ref().expect("deadlines initialized");
                let budget = deadlines.stage_budget(stage);
                let req = ReplicationRequest {
                    current,
                    node_util_pct: utils,
                    stage,
                    tracks: obs_tracks,
                    total_periodic_tracks: ctx.total_tracks(),
                    budget,
                    slack: budget.mul_f64(self.cfg.monitor.slack_fraction),
                };
                let mut trail = audit.is_some().then(Vec::new);
                let outcome = replicate_subtask(
                    &req,
                    &self.predictor,
                    self.cfg.processor_choice,
                    trail.as_mut(),
                );
                if let (Some(a), Some(trail)) = (audit.as_deref_mut(), trail) {
                    a.candidates = trail.into_iter().map(CandidateForecast::from).collect();
                }
                match outcome {
                    Ok(ps) => ps,
                    Err(ReplicateFailure::OutOfProcessors { best_effort, .. }) => {
                        // Fig. 5 reports FAILURE once every processor hosts
                        // a replica; by then the pseudocode has already
                        // enlarged PS to all of PR, so the maximal set is
                        // what remains in force.
                        self.stats.allocation_failures += 1;
                        if let Some(a) = audit.as_deref_mut() {
                            a.out_of_processors = true;
                        }
                        best_effort
                    }
                }
            }
            Policy::NonPredictive {
                utilization_threshold_pct,
            } => {
                let ps = replicate_subtask_nonpredictive(current, utils, utilization_threshold_pct);
                if let Some(a) = audit.as_deref_mut() {
                    a.candidates = heuristic_candidates(current, utils, &ps);
                }
                ps
            }
            Policy::Incremental => {
                let ps = replicate_subtask_incremental(current, utils);
                if let Some(a) = audit {
                    a.candidates = heuristic_candidates(current, utils, &ps);
                }
                ps
            }
        };
        let alive_ps: Vec<NodeId> = ps.into_iter().filter(|n| ctx.alive[n.index()]).collect();
        if alive_ps.is_empty() {
            current.to_vec()
        } else {
            alive_ps
        }
    }

    /// Builds and emits one decision record, if a sink is attached.
    /// Observed slack is derived from the stage's latest monitor reading.
    #[allow(clippy::too_many_arguments)] // a record has this many facts
    fn emit_decision(
        &mut self,
        ctx: &ControlContext,
        stage: usize,
        arm: DecisionArm,
        reading: Option<StageReading>,
        alloc: Option<AllocAudit>,
        before: &[NodeId],
        chosen: &[NodeId],
    ) {
        let Some(sink) = self.audit.as_ref() else {
            return;
        };
        let deadlines = self.deadlines.as_ref().expect("deadlines initialized");
        let budget = deadlines.stage_budget(stage);
        let threshold = budget.saturating_sub(budget.mul_f64(self.cfg.monitor.slack_fraction));
        let (candidates, out_of_processors) = alloc
            .map(|a| (a.candidates, a.out_of_processors))
            .unwrap_or_default();
        // A poisoned lock is recovered, not propagated: a panic elsewhere
        // must not cascade through telemetry.
        sink.lock().unwrap_or_else(|e| e.into_inner()).record(
            ctx.now,
            DecisionRecord {
                task: self.task.0,
                stage: stage as u32,
                policy: self.cfg.policy.name().to_string(),
                arm,
                health: reading.map(|r| r.health),
                observed_slack_ms: reading.map(|r| budget.as_millis_f64() - r.observed_ms),
                budget_ms: budget.as_millis_f64(),
                threshold_ms: threshold.as_millis_f64(),
                candidates,
                before: before.to_vec(),
                chosen: chosen.to_vec(),
                out_of_processors,
            },
        );
    }
}

/// Candidate list for the utilization-heuristic policies, which never
/// forecast: every processor outside the current set was "considered",
/// and acceptance is membership in the chosen set.
fn heuristic_candidates(
    current: &[NodeId],
    utils: &[f64],
    chosen: &[NodeId],
) -> Vec<CandidateForecast> {
    (0..utils.len())
        .map(NodeId::from_index)
        .filter(|n| !current.contains(n))
        .map(|n| CandidateForecast {
            node: n,
            util_pct: utils[n.index()],
            eex_ms: None,
            ecd_ms: None,
            worst_total_ms: None,
            accepted: chosen.contains(&n),
        })
        .collect()
}

/// Manages several tasks by delegating to one [`ResourceManager`] each —
/// the paper's model is a *set* of periodic tasks (§3), each with its own
/// pipeline, deadlines, and replica placements, all drawing on the same
/// processor pool.
pub struct CompositeManager {
    managers: Vec<ResourceManager>,
}

impl CompositeManager {
    /// Builds a composite from per-task managers. Each manager must
    /// already be targeted (`for_task`) at its task.
    pub fn new(managers: Vec<ResourceManager>) -> Self {
        assert!(!managers.is_empty(), "composite needs at least one manager");
        CompositeManager { managers }
    }

    /// Per-task manager stats.
    pub fn stats(&self) -> Vec<ManagerStats> {
        self.managers.iter().map(|m| m.stats()).collect()
    }
}

impl Controller for CompositeManager {
    fn on_period_boundary(
        &mut self,
        completed: &[PeriodObservation],
        ctx: &ControlContext,
    ) -> Vec<ControlAction> {
        self.managers
            .iter_mut()
            .flat_map(|m| m.on_period_boundary(completed, ctx))
            .collect()
    }

    fn name(&self) -> &'static str {
        "composite"
    }

    fn forecast_residuals(&self) -> Vec<ForecastResidualStat> {
        self.managers
            .iter()
            .flat_map(Controller::forecast_residuals)
            .collect()
    }
}

impl Controller for ResourceManager {
    fn on_period_boundary(
        &mut self,
        completed: &[PeriodObservation],
        ctx: &ControlContext,
    ) -> Vec<ControlAction> {
        // Own a mutable working copy of this task's placement (the context
        // shares the runtime's placement behind an Arc), reusing last
        // epoch's buffers.
        let mut placements = std::mem::take(&mut self.placements);
        placements.clone_from(&ctx.placements[self.task.index()]);
        if self.deadlines.is_none() {
            self.update_deadlines(ctx, &placements);
        }
        let mut actions = Vec::new();
        self.repair(ctx, &mut placements, &mut actions);
        self.score_and_refine(completed, ctx);
        self.monitor(completed, ctx);
        let utils = self.utilization_view(ctx);
        self.act(ctx, &utils, &mut placements, &mut actions);
        // §4.1: "At each time a resource management action … is taken, the
        // subtask deadlines are re-assigned."
        if !actions.is_empty() {
            self.update_deadlines(ctx, &placements);
        }
        self.placements = placements;
        self.utils = utils;
        actions
    }

    fn name(&self) -> &'static str {
        match self.coordination {
            Coordination::Centralized => self.cfg.policy.name(),
            Coordination::Decentralized { .. } => "decentralized",
        }
    }

    fn forecast_residuals(&self) -> Vec<ForecastResidualStat> {
        let task = self.task.0;
        self.exec_residuals
            .iter()
            .chain(self.comm_residuals.iter())
            .filter(|s| s.count > 0)
            .map(|s| ForecastResidualStat { task, ..*s })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::analytic_predictor;
    use rtds_dynbench::app::{aaw_task, FILTER_STAGE};
    use rtds_regression::buffer::{BufferDelayModel, CommDelayModel};
    use rtds_sim::control::StageObservation;
    use rtds_sim::time::{SimDuration, SimTime};

    fn predictor() -> Predictor {
        analytic_predictor(
            &aaw_task(),
            CommDelayModel::new(BufferDelayModel::from_slope(0.0005), 100e6),
        )
    }

    fn manager(cfg: ArmConfig) -> ResourceManager {
        ResourceManager::new(cfg, predictor())
    }

    fn ctx(utils: Vec<f64>, placements: Vec<Vec<NodeId>>, tracks: u64) -> ControlContext {
        let task = aaw_task();
        ControlContext {
            now: SimTime::from_secs(5),
            alive: vec![true; utils.len()],
            cold: vec![false; utils.len()],
            node_util_pct: utils,
            replicable: vec![task.stages.iter().map(|s| s.replicable).collect()],
            placements: vec![Arc::new(placements)],
            periods: vec![task.period],
            deadlines: vec![task.deadline],
            last_tracks: vec![tracks],
        }
    }

    fn home_placements() -> Vec<Vec<NodeId>> {
        (0..5).map(|i| vec![NodeId(i)]).collect()
    }

    fn obs_with_filter_latency(exec_ms: f64, tracks: u64) -> PeriodObservation {
        let stages = (0..5)
            .map(|j| StageObservation {
                subtask: SubtaskIdx::from_index(j),
                replicas: 1,
                tracks,
                exec_latency: if j == FILTER_STAGE {
                    SimDuration::from_millis_f64(exec_ms)
                } else {
                    SimDuration::from_millis(5)
                },
                inbound_msg_delay: SimDuration::from_millis(2),
                stage_latency: SimDuration::from_millis_f64(exec_ms + 2.0),
            })
            .collect();
        PeriodObservation {
            task: TaskId(0),
            instance: 7,
            released: SimTime::from_secs(4),
            tracks,
            end_to_end: Some(SimDuration::from_millis(500)),
            missed: false,
            stages,
        }
    }

    #[test]
    fn quiet_system_takes_no_action() {
        let mut m = manager(ArmConfig::paper_predictive());
        let c = ctx(vec![10.0; 6], home_placements(), 1_000);
        // Filter latency small vs budget: nominal.
        let obs = obs_with_filter_latency(30.0, 1_000);
        let actions = m.on_period_boundary(&[obs], &c);
        // High-slack stages need `shutdown_patience` periods AND >1 replica;
        // single replicas mean no shutdown either.
        assert!(actions.is_empty(), "{actions:?}");
        assert_eq!(m.stats().replications, 0);
    }

    #[test]
    fn deadline_assignment_initialized_on_first_call() {
        let mut m = manager(ArmConfig::paper_predictive());
        assert!(m.deadlines().is_none());
        let c = ctx(vec![10.0; 6], home_placements(), 1_000);
        m.on_period_boundary(&[], &c);
        let d = m.deadlines().expect("initialized");
        assert_eq!(d.subtask.len(), 5);
        assert_eq!(d.message.len(), 4);
        let sum: f64 = d
            .subtask
            .iter()
            .chain(d.message.iter())
            .map(|x| x.as_millis_f64())
            .sum();
        assert!((sum - 990.0).abs() < 0.5, "classic EQF partitions 990: {sum}");
    }

    #[test]
    fn predictive_replicates_overloaded_filter() {
        let mut m = manager(ArmConfig::paper_predictive());
        let c = ctx(vec![15.0; 6], home_placements(), 14_000);
        m.on_period_boundary(&[], &c); // init deadlines
        // Filter way over its budget.
        let obs = obs_with_filter_latency(900.0, 14_000);
        let actions = m.on_period_boundary(&[obs], &c);
        let filter_action = actions.iter().find_map(|a| match a {
            ControlAction::SetPlacement { subtask, nodes, .. }
                if subtask.index() == FILTER_STAGE =>
            {
                Some(nodes.clone())
            }
            _ => None,
        });
        let nodes = filter_action.expect("filter must be replicated");
        assert!(nodes.len() >= 2, "{nodes:?}");
        assert_eq!(nodes[0], NodeId(FILTER_STAGE as u32), "original first");
        assert!(m.stats().replications >= 1);
        assert!(m.stats().deadline_reassignments >= 2, "reassigned after action");
    }

    #[test]
    fn nonpredictive_grabs_all_idle_processors() {
        let mut m = manager(ArmConfig::paper_nonpredictive());
        let utils = vec![10.0, 30.0, 15.0, 25.0, 5.0, 2.0];
        let c = ctx(utils, home_placements(), 14_000);
        m.on_period_boundary(&[], &c);
        let obs = obs_with_filter_latency(900.0, 14_000);
        let actions = m.on_period_boundary(&[obs], &c);
        let nodes = actions
            .iter()
            .find_map(|a| match a {
                ControlAction::SetPlacement { subtask, nodes, .. }
                    if subtask.index() == FILTER_STAGE =>
                {
                    Some(nodes.clone())
                }
                _ => None,
            })
            .expect("replication action");
        // Nodes under 20 %: 0 (10), 4 (5), 5 (2) join node 2 (original).
        assert_eq!(
            nodes,
            vec![NodeId(2), NodeId(0), NodeId(4), NodeId(5)],
            "every idle node is grabbed"
        );
    }

    #[test]
    fn high_slack_with_patience_shuts_down_a_replica() {
        let mut cfg = ArmConfig::paper_predictive();
        cfg.monitor.shutdown_patience = 2;
        let mut m = manager(cfg);
        let mut placements = home_placements();
        placements[FILTER_STAGE] = vec![NodeId(2), NodeId(5)];
        let c = ctx(vec![10.0; 6], placements, 1_000);
        m.on_period_boundary(&[], &c);
        // Tiny latency = huge slack.
        let obs = obs_with_filter_latency(1.0, 1_000);
        let a1 = m.on_period_boundary(std::slice::from_ref(&obs), &c);
        assert!(a1.is_empty(), "patience not yet met: {a1:?}");
        let a2 = m.on_period_boundary(&[obs], &c);
        let nodes = a2
            .iter()
            .find_map(|a| match a {
                ControlAction::SetPlacement { subtask, nodes, .. }
                    if subtask.index() == FILTER_STAGE =>
                {
                    Some(nodes.clone())
                }
                _ => None,
            })
            .expect("shutdown action on second high-slack period");
        assert_eq!(nodes, vec![NodeId(2)], "last-added replica removed");
        assert_eq!(m.stats().shutdowns, 1);
    }

    #[test]
    fn shed_periods_trigger_replication_as_fallback() {
        let mut m = manager(ArmConfig::paper_predictive());
        let c = ctx(vec![10.0; 6], home_placements(), 16_000);
        m.on_period_boundary(&[], &c);
        let shed = PeriodObservation {
            task: TaskId(0),
            instance: 3,
            released: SimTime::from_secs(3),
            tracks: 16_000,
            end_to_end: None,
            missed: true,
            stages: Vec::new(),
        };
        let actions = m.on_period_boundary(&[shed], &c);
        assert!(
            !actions.is_empty(),
            "overload sheds must still provoke replication"
        );
    }

    #[test]
    fn single_node_cluster_cannot_replicate_but_never_panics() {
        // Only one (busy) node: the predictive allocator runs out of
        // processors immediately and keeps the maximal (= current) set.
        let mut m = manager(ArmConfig::paper_predictive());
        let task = aaw_task();
        let c = ControlContext {
            now: SimTime::from_secs(5),
            alive: vec![true],
            cold: vec![false],
            node_util_pct: vec![60.0],
            replicable: vec![task.stages.iter().map(|s| s.replicable).collect()],
            placements: vec![Arc::new((0..5).map(|_| vec![NodeId(0)]).collect())],
            periods: vec![task.period],
            deadlines: vec![task.deadline],
            last_tracks: vec![16_000],
        };
        m.on_period_boundary(&[], &c);
        let obs = obs_with_filter_latency(900.0, 16_000);
        let actions = m.on_period_boundary(&[obs], &c);
        // The only possible "new" placement equals the current one, so no
        // action is emitted and the failure counter ticks.
        assert!(actions.is_empty(), "{actions:?}");
        assert!(m.stats().allocation_failures >= 1);
    }

    #[test]
    fn decision_sink_explains_replication_with_candidates_and_threshold() {
        let shared = Arc::new(Mutex::new(BoundedSink::<DecisionRecord>::bounded(64)));
        let mut m = manager(ArmConfig::paper_predictive());
        m.set_decision_sink(Arc::clone(&shared));
        let c = ctx(vec![15.0; 6], home_placements(), 14_000);
        m.on_period_boundary(&[], &c); // init deadlines
        let obs = obs_with_filter_latency(900.0, 14_000);
        let actions = m.on_period_boundary(&[obs], &c);
        assert!(!actions.is_empty());

        let sink = shared.lock().unwrap();
        let records: Vec<&DecisionRecord> = sink.events().iter().map(|(_, r)| r).collect();
        // Every replicable stage got a record on each of the two acting
        // cycles (the init cycle audits explicit no-ops).
        let replicable = aaw_task().stages.iter().filter(|s| s.replicable).count();
        assert_eq!(records.len(), 2 * replicable, "{records:?}");
        let filter = records
            .iter()
            .find(|r| r.stage as usize == FILTER_STAGE && r.arm == DecisionArm::Replicate)
            .expect("filter decision");
        assert_eq!(filter.arm, DecisionArm::Replicate);
        assert_eq!(filter.policy, "predictive");
        assert_eq!(filter.health, Some(StageHealth::Missed));
        assert!(!filter.candidates.is_empty(), "candidates must be named");
        assert!(filter.candidates.iter().all(|cf| cf.eex_ms.is_some()));
        assert!(filter.threshold_ms < filter.budget_ms);
        // Observed slack is negative: the stage blew its budget.
        assert!(filter.observed_slack_ms.unwrap() < 0.0);
        assert_eq!(filter.before, vec![NodeId(FILTER_STAGE as u32)]);
        assert!(filter.chosen.len() > filter.before.len());
        // Healthy stages got explicit no-ops.
        assert!(records
            .iter()
            .filter(|r| r.stage as usize != FILTER_STAGE)
            .all(|r| r.arm == DecisionArm::NoOp && r.before == r.chosen));
    }

    #[test]
    fn decision_sink_does_not_change_decisions() {
        let run = |audited: bool| {
            let mut m = manager(ArmConfig::paper_predictive());
            if audited {
                m.set_decision_sink(Arc::new(Mutex::new(BoundedSink::bounded(256))));
            }
            let c = ctx(vec![15.0; 6], home_placements(), 14_000);
            let mut all = m.on_period_boundary(&[], &c);
            for exec_ms in [900.0, 700.0, 1.0, 1.0, 1.0] {
                let obs = obs_with_filter_latency(exec_ms, 14_000);
                all.extend(m.on_period_boundary(&[obs], &c));
            }
            (all, m.stats())
        };
        assert_eq!(run(false), run(true), "audit must be a pure observer");
    }

    #[test]
    fn decision_sink_records_through_a_poisoned_lock() {
        let shared = Arc::new(Mutex::new(BoundedSink::<DecisionRecord>::bounded(64)));
        let poisoner = Arc::clone(&shared);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poisoning the decision sink");
        })
        .join();
        assert!(shared.is_poisoned());
        let mut m = manager(ArmConfig::paper_predictive());
        m.set_decision_sink(Arc::clone(&shared));
        m.on_period_boundary(&[], &ctx(vec![15.0; 6], home_placements(), 14_000));
        let sink = shared.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!sink.events().is_empty(), "the init cycle's records were lost");
    }

    #[test]
    fn nonpredictive_decisions_name_candidates_without_forecasts() {
        let shared = Arc::new(Mutex::new(BoundedSink::<DecisionRecord>::bounded(64)));
        let mut m = manager(ArmConfig::paper_nonpredictive());
        m.set_decision_sink(Arc::clone(&shared));
        let utils = vec![10.0, 30.0, 15.0, 25.0, 5.0, 2.0];
        let c = ctx(utils, home_placements(), 14_000);
        m.on_period_boundary(&[], &c);
        let obs = obs_with_filter_latency(900.0, 14_000);
        m.on_period_boundary(&[obs], &c);

        let sink = shared.lock().unwrap();
        let filter = sink
            .events()
            .iter()
            .map(|(_, r)| r)
            .find(|r| r.stage as usize == FILTER_STAGE && r.arm == DecisionArm::Replicate)
            .expect("filter replication record");
        // Five processors outside the current set were considered …
        assert_eq!(filter.candidates.len(), 5);
        // … none with a forecast (the heuristic never computes one) …
        assert!(filter.candidates.iter().all(|cf| cf.eex_ms.is_none()));
        // … and the accepted ones are exactly those under 20 % utilization.
        for cf in &filter.candidates {
            assert_eq!(cf.accepted, cf.util_pct < 20.0, "{cf:?}");
        }
    }

    #[test]
    fn shutdown_decision_is_recorded() {
        let mut cfg = ArmConfig::paper_predictive();
        cfg.monitor.shutdown_patience = 2;
        let shared = Arc::new(Mutex::new(BoundedSink::<DecisionRecord>::bounded(64)));
        let mut m = ResourceManager::new(cfg, predictor());
        m.set_decision_sink(Arc::clone(&shared));
        let mut placements = home_placements();
        placements[FILTER_STAGE] = vec![NodeId(2), NodeId(5)];
        let c = ctx(vec![10.0; 6], placements, 1_000);
        m.on_period_boundary(&[], &c);
        let obs = obs_with_filter_latency(1.0, 1_000);
        m.on_period_boundary(std::slice::from_ref(&obs), &c);
        m.on_period_boundary(&[obs], &c);

        let sink = shared.lock().unwrap();
        let shutdown = sink
            .events()
            .iter()
            .map(|(_, r)| r)
            .find(|r| r.arm == DecisionArm::ShutDown)
            .expect("shutdown record");
        assert_eq!(shutdown.stage as usize, FILTER_STAGE);
        assert_eq!(shutdown.health, Some(StageHealth::HighSlack));
        assert_eq!(shutdown.before, vec![NodeId(2), NodeId(5)]);
        assert_eq!(shutdown.chosen, vec![NodeId(2)]);
        // High slack means a comfortably positive observed slack.
        assert!(shutdown.observed_slack_ms.unwrap() > 0.0);
    }

    #[test]
    fn predictive_manager_accumulates_forecast_residuals() {
        let mut m = manager(ArmConfig::paper_predictive());
        let c = ctx(vec![10.0; 6], home_placements(), 1_000);
        m.on_period_boundary(&[], &c);
        assert!(
            Controller::forecast_residuals(&m).is_empty(),
            "no observations yet"
        );
        let obs = obs_with_filter_latency(30.0, 1_000);
        m.on_period_boundary(&[obs], &c);
        let residuals = Controller::forecast_residuals(&m);
        // 5 exec streams + 4 comm streams (stage 0 has no inbound msg).
        assert_eq!(residuals.len(), 9, "{residuals:?}");
        assert!(residuals.iter().all(|r| r.count == 1));
        assert!(residuals.iter().all(|r| r.task == 0));
        let exec: Vec<_> = residuals
            .iter()
            .filter(|r| r.kind == ResidualKind::Exec)
            .collect();
        assert_eq!(exec.len(), 5);
        assert!(
            residuals
                .iter()
                .filter(|r| r.kind == ResidualKind::Comm)
                .all(|r| r.stage > 0),
            "stage 0 never has a comm residual"
        );
        assert!(residuals.iter().all(|r| r.mean_abs_err_ms().is_finite()));
    }

    #[test]
    fn nonpredictive_manager_reports_no_residuals() {
        let mut m = manager(ArmConfig::paper_nonpredictive());
        let c = ctx(vec![10.0; 6], home_placements(), 1_000);
        m.on_period_boundary(&[], &c);
        let obs = obs_with_filter_latency(30.0, 1_000);
        m.on_period_boundary(&[obs], &c);
        assert!(Controller::forecast_residuals(&m).is_empty());
    }

    #[test]
    fn manager_reports_policy_name() {
        assert_eq!(manager(ArmConfig::paper_predictive()).name(), "predictive");
        assert_eq!(
            manager(ArmConfig::paper_nonpredictive()).name(),
            "non-predictive"
        );
    }

    #[test]
    fn utilization_view_reads_stale_snapshots_and_masks_dead_and_cold_nodes() {
        // Epoch k reads 10k + i on node i.
        let epoch = |k: u32| {
            let utils = (0..6).map(|i| f64::from(10 * k + i)).collect();
            ctx(utils, home_placements(), 1_000)
        };
        let reads = |v: &[f64]| v[0] / 10.0;
        // Staleness 2: two periods back, clamped to the oldest retained.
        let mut stale = manager(ArmConfig::paper_predictive()).decentralized(2);
        let seen: Vec<f64> = (1..=5).map(|k| reads(&stale.utilization_view(&epoch(k)))).collect();
        assert_eq!(seen, vec![1.0, 1.0, 1.0, 2.0, 3.0]);
        // A dead node reads 1e6 and a cold one the u_init prior, in the
        // stale snapshot as in the current one.
        let mut c = epoch(6);
        c.alive[1] = false;
        c.cold[2] = true;
        let u_init = ArmConfig::paper_predictive().u_init_pct;
        assert_eq!(stale.utilization_view(&c), vec![40.0, 1e6, u_init, 43.0, 44.0, 45.0]);
        // Staleness 0 is the centralized view: the current masked vector.
        let mut fresh = manager(ArmConfig::paper_predictive()).decentralized(0);
        let mut central = manager(ArmConfig::paper_predictive());
        for k in 1..=3 {
            assert_eq!(fresh.utilization_view(&epoch(k)), central.utilization_view(&epoch(k)));
        }
        assert_eq!(fresh.utilization_view(&c), vec![60.0, 1e6, u_init, 63.0, 64.0, 65.0]);
        assert_eq!(central.utilization_view(&c), fresh.utilization_view(&c));
    }

    #[test]
    #[should_panic(expected = "invalid ARM configuration")]
    fn invalid_config_panics_at_construction() {
        let mut cfg = ArmConfig::paper_predictive();
        cfg.monitor.slack_fraction = 0.9; // above shutdown threshold
        let _ = manager(cfg);
    }
}
