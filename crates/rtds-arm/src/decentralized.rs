//! A decentralized variant of the resource manager.
//!
//! The paper argues asynchronous real-time applications "require
//! decentralization because of the physical distribution of application
//! resources and for achieving survivability" (§1), yet its algorithms
//! are presented as one global decision procedure. This module makes the
//! decentralization cost measurable: each replicable subtask gets an
//! **independent agent** that
//!
//! * monitors only its own stage's observations;
//! * keeps a **fixed** budget from the initial EQF assignment (no global
//!   re-assignment after actions — that would need coordination);
//! * allocates with the same Fig. 5 forecast, but against a **stale**
//!   utilization snapshot (state dissemination in a distributed system is
//!   `staleness` periods behind), and without seeing what the other
//!   agents decided this round.
//!
//! The failure mode this surfaces is *herding*: two agents that both see
//! the same idle node in the same round both take it, and with stale
//! state they keep chasing utilization that no longer exists. The
//! `ext_decentralized` experiment quantifies the effect against the
//! centralized manager.

use std::collections::VecDeque;

use rtds_sim::control::{ControlAction, ControlContext, Controller, PeriodObservation};
use rtds_sim::ids::{NodeId, SubtaskIdx, TaskId};
use rtds_sim::time::SimDuration;

use crate::config::ArmConfig;
use crate::eqf::{assign_deadlines, try_assign_deadlines, DeadlineAssignment};
use crate::monitor::{assess_stage, SlackTracker};
use crate::nonpredictive::shutdown_a_replica;
use crate::predictive::{replicate_subtask, ReplicateFailure, ReplicationRequest};
use crate::predictor::Predictor;

/// Decentralized per-stage management with stale state dissemination.
pub struct DecentralizedManager {
    cfg: ArmConfig,
    predictor: Predictor,
    task: TaskId,
    /// Stage budgets, frozen at the first invocation.
    budgets: Option<Vec<SimDuration>>,
    tracker: SlackTracker,
    /// How many periods behind each agent's view of node utilization is.
    staleness: usize,
    /// Ring of past utilization snapshots (front = oldest retained).
    util_history: VecDeque<Vec<f64>>,
}

impl DecentralizedManager {
    /// Creates the decentralized manager. `staleness` = 0 means agents see
    /// current utilization but still decide independently with fixed
    /// budgets.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ArmConfig, predictor: Predictor, staleness: usize) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid ARM configuration: {e}");
        }
        let n = predictor.n_stages();
        DecentralizedManager {
            cfg,
            predictor,
            task: TaskId(0),
            budgets: None,
            tracker: SlackTracker::new(n),
            staleness,
            util_history: VecDeque::new(),
        }
    }

    /// Targets a different task id.
    pub fn for_task(mut self, task: TaskId) -> Self {
        self.task = task;
        self
    }

    fn init_budgets(&mut self, ctx: &ControlContext) -> Vec<SimDuration> {
        let (exec, comm) = self.predictor.initial_estimates(
            self.cfg.d_init_tracks,
            self.cfg.u_init_pct,
            self.cfg.d_init_tracks,
        );
        let n = self.predictor.n_stages();
        let a: DeadlineAssignment = try_assign_deadlines(
            &exec,
            &comm,
            ctx.deadlines[self.task.index()],
            self.cfg.eqf,
        )
        .unwrap_or_else(|_| {
            // Degenerate initial estimates must not crash an agent; fall
            // back to a uniform split of the end-to-end deadline.
            assign_deadlines(
                &vec![1.0; n],
                &vec![1.0; n.saturating_sub(1)],
                ctx.deadlines[self.task.index()],
                self.cfg.eqf,
            )
        });
        (0..self.predictor.n_stages())
            .map(|j| a.stage_budget(j))
            .collect()
    }

    /// The utilization snapshot an agent sees: `staleness` periods old
    /// (clamped to the oldest retained), with dead nodes masked.
    fn stale_utils(&self, ctx: &ControlContext) -> Vec<f64> {
        let snapshot = if self.staleness == 0 || self.util_history.len() <= 1 {
            &ctx.node_util_pct
        } else {
            let idx = self.util_history.len().saturating_sub(1 + self.staleness);
            &self.util_history[idx.min(self.util_history.len() - 1)]
        };
        snapshot
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                if !ctx.alive[i] {
                    1e6
                } else if ctx.cold[i] {
                    // A restarted node's estimate is still warming up:
                    // substitute the prior rather than trusting a near-zero
                    // reading (stale snapshots are even staler for it).
                    self.cfg.u_init_pct
                } else {
                    u
                }
            })
            .collect()
    }
}

impl Controller for DecentralizedManager {
    fn on_period_boundary(
        &mut self,
        completed: &[PeriodObservation],
        ctx: &ControlContext,
    ) -> Vec<ControlAction> {
        let t = self.task.index();
        if self.budgets.is_none() {
            self.budgets = Some(self.init_budgets(ctx));
        }
        // Record the current snapshot for future (stale) reads, bounded.
        self.util_history.push_back(ctx.node_util_pct.clone());
        while self.util_history.len() > self.staleness + 2 {
            self.util_history.pop_front();
        }
        let utils = self.stale_utils(ctx);
        let budgets = self.budgets.clone().expect("initialized above");

        let mut actions = Vec::new();
        let latest = completed
            .iter().rfind(|o| o.task == self.task && !o.stages.is_empty());

        for j in 0..self.predictor.n_stages() {
            if !ctx.replicable[t][j] {
                continue;
            }
            // Survivability repair stays local too: drop dead nodes.
            let mut current: Vec<NodeId> = ctx.placements[t][j]
                .iter()
                .copied()
                .filter(|n| ctx.alive[n.index()])
                .collect();
            if current.is_empty() {
                if let Some(n) = ctx.least_utilized_excluding(&[]) {
                    current.push(n);
                } else {
                    continue;
                }
            }
            let mut changed = current != ctx.placements[t][j];

            if let Some(obs) = latest {
                if let Some(st) = obs.stages.get(j) {
                    // Fixed budgets: the fiction every agent lives with.
                    let assignment = DeadlineAssignment {
                        subtask: budgets.clone(),
                        message: vec![SimDuration::ZERO; budgets.len().saturating_sub(1)],
                        variant: self.cfg.eqf,
                    };
                    let health = assess_stage(st, &assignment, &self.cfg.monitor);
                    let shutdown_ready =
                        self.tracker
                            .observe(j, health, self.cfg.monitor.shutdown_patience);
                    if health.needs_replication() {
                        let budget = budgets[j];
                        let req = ReplicationRequest {
                            current: &current,
                            node_util_pct: &utils,
                            stage: j,
                            tracks: st.tracks,
                            total_periodic_tracks: ctx.total_tracks(),
                            budget,
                            slack: budget.mul_f64(self.cfg.monitor.slack_fraction),
                        };
                        let new = match replicate_subtask(
                            &req,
                            &self.predictor,
                            self.cfg.processor_choice,
                            None,
                        ) {
                            Ok(ps) => ps,
                            Err(ReplicateFailure::OutOfProcessors { best_effort, .. }) => {
                                best_effort
                            }
                        };
                        let new: Vec<NodeId> =
                            new.into_iter().filter(|n| ctx.alive[n.index()]).collect();
                        if !new.is_empty() && new != current {
                            current = new;
                            changed = true;
                        }
                    } else if shutdown_ready && current.len() > 1 {
                        current = shutdown_a_replica(&current);
                        changed = true;
                    }
                }
            }
            if changed {
                actions.push(ControlAction::SetPlacement {
                    task: self.task,
                    subtask: SubtaskIdx::from_index(j),
                    nodes: current,
                });
            }
        }
        actions
    }

    fn name(&self) -> &'static str {
        "decentralized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::analytic_predictor;
    use rtds_dynbench::app::{aaw_task, EVAL_DECIDE_STAGE, FILTER_STAGE};
    use rtds_regression::buffer::{BufferDelayModel, CommDelayModel};
    use rtds_sim::cluster::{Cluster, ClusterApi, ClusterConfig};
    use rtds_sim::clock::ClockConfig;
    use rtds_sim::load::PoissonLoad;
    use rtds_sim::time::SimTime;

    fn predictor() -> Predictor {
        analytic_predictor(
            &aaw_task(),
            CommDelayModel::new(BufferDelayModel::from_slope(0.0005), 100e6),
        )
    }

    fn run(staleness: usize, max_tracks: u64, seed: u64) -> rtds_sim::metrics::RunSummary {
        let mut config = ClusterConfig::paper_baseline(seed, SimDuration::from_secs(60));
        config.clock = ClockConfig::perfect();
        let mut cl = Cluster::new(config);
        cl.add_task(aaw_task(), Box::new(move |i| 500 + (i % 15) * (max_tracks / 15)));
        for n in 0..6 {
            cl.add_load(Box::new(PoissonLoad::with_utilization(
                rtds_sim::ids::LoadGenId(n),
                NodeId(n),
                0.10,
                SimDuration::from_millis(2),
            )));
        }
        cl.set_controller(Box::new(DecentralizedManager::new(
            ArmConfig::paper_predictive(),
            predictor(),
            staleness,
        )));
        cl.run().metrics.summarize(&[FILTER_STAGE, EVAL_DECIDE_STAGE])
    }

    #[test]
    fn decentralized_manager_keeps_the_mission_alive() {
        let s = run(0, 13_000, 1);
        assert!(s.missed_deadline_pct < 10.0, "{s:?}");
        assert!(s.avg_replicas > 1.0, "it adapts: {s:?}");
    }

    #[test]
    fn stale_state_is_tolerated_but_not_free() {
        let fresh = run(0, 13_000, 2);
        let stale = run(5, 13_000, 2);
        // Both keep the mission alive; staleness may cost extra replicas
        // or placement churn, never a wedge.
        assert!(fresh.missed_deadline_pct <= 15.0);
        assert!(stale.missed_deadline_pct <= 15.0);
        assert!(stale.avg_replicas >= 1.0);
    }

    #[test]
    fn repairs_node_failures_locally() {
        let mut config = ClusterConfig::paper_baseline(3, SimDuration::from_secs(30));
        config.clock = ClockConfig::perfect();
        let mut cl = Cluster::new(config);
        cl.add_task(aaw_task(), Box::new(|_| 8_000));
        cl.set_controller(Box::new(DecentralizedManager::new(
            ArmConfig::paper_predictive(),
            predictor(),
            2,
        )));
        cl.fail_node_at(NodeId(FILTER_STAGE as u32), SimTime::from_secs(10));
        let out = cl.run();
        let late_ok = out
            .metrics
            .periods
            .iter()
            .filter(|p| p.instance >= 15 && p.missed == Some(false))
            .count();
        assert!(late_ok >= 10, "recovers after home failure: {late_ok}");
    }

    #[test]
    fn name_distinguishes_it() {
        let m = DecentralizedManager::new(ArmConfig::paper_predictive(), predictor(), 1);
        assert_eq!(Controller::name(&m), "decentralized");
    }

    #[test]
    #[should_panic(expected = "invalid ARM configuration")]
    fn invalid_config_rejected() {
        let mut cfg = ArmConfig::paper_predictive();
        cfg.monitor.shutdown_patience = 0;
        let _ = DecentralizedManager::new(cfg, predictor(), 0);
    }
}
