//! Task-lifecycle state: runtimes, in-flight instances, and the period
//! bookkeeping every other engine reports into.
//!
//! The [`TaskTable`] is the component the dispatch, network, and fault
//! engines converge on: a completed CPU job advances its stage here, a
//! delivered message accumulates its share here, and any engine that
//! loses work terminally calls [`TaskTable::fail_instance`].

use crate::control::{PeriodObservation, StageObservation};
use crate::engine::dispatch::DispatchEngine;
use crate::engine::net::NetEngine;
use crate::ids::{JobId, MsgId, StageId, SubtaskIdx, TaskId};
use crate::job::JobKind;
use crate::kernel::SimKernel;
use crate::pipeline::{split_tracks_into, TaskRuntime};
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

/// Per-period workload source: maps the period index to the number of
/// data items (`ds(T_i, c)`) arriving in that period. Re-exported
/// publicly as `cluster::WorkloadFn`.
pub type WorkloadFn = Box<dyn FnMut(u64) -> u64 + Send>;

/// All periodic-task state of a run.
#[derive(Default)]
pub(crate) struct TaskTable {
    /// Task runtimes, indexed by `TaskId`.
    pub tasks: Vec<TaskRuntime>,
    /// Per-task workload sources, parallel to `tasks`.
    pub workloads: Vec<WorkloadFn>,
    /// Observations completed since the controller last ran.
    pub pending_obs: Vec<PeriodObservation>,
    /// Emptied `PeriodObservation::stages` lists of observations the
    /// controller has consumed, reused for the next completed instances.
    pub spare_stage_obs: Vec<Vec<StageObservation>>,
}

impl TaskTable {
    /// True when some copy of `origin` already reached its stage replica.
    /// A redundant retransmission (the retx timer fired while the original
    /// was still queued) can then be lost or dropped harmlessly: the data
    /// arrived, so the instance must not be failed. Only ever true when
    /// `dedup_enabled` populates `seen_origins`, which covers every
    /// configuration that can produce redundant copies.
    pub fn origin_delivered(
        &self,
        stage: StageId,
        replica: u32,
        instance: u64,
        origin: MsgId,
    ) -> bool {
        self.tasks[stage.task.index()]
            .instance(instance)
            .is_some_and(|inst| {
                inst.stages[stage.subtask.index()].replicas[replica as usize]
                    .seen_origins
                    .contains(&origin)
            })
    }

    /// Fails one in-flight instance: it is removed, its period record is
    /// marked missed, and the controller is told (as a stage-less, missed
    /// observation, like a shed period).
    pub fn fail_instance(&mut self, k: &mut SimKernel, _now: SimTime, task: TaskId, instance: u64) {
        let rt = &mut self.tasks[task.index()];
        let Some(inst) = rt.take_instance(instance) else {
            return;
        };
        k.metrics.periods[inst.record].missed = Some(true);
        self.pending_obs.push(PeriodObservation {
            task,
            instance,
            released: inst.released,
            tracks: inst.tracks,
            end_to_end: None,
            missed: true,
            stages: Vec::new(),
        });
        rt.retire(inst);
    }

    /// Starts stage `stage` of instance `index`: for the first stage the
    /// sensor data is locally available, so replica jobs are admitted
    /// directly; later stages are started by message delivery.
    pub fn start_stage(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        now: SimTime,
        task: TaskId,
        index: u64,
        stage: SubtaskIdx,
    ) {
        // Borrow the scratch buffers for the call; `admit_job` needs the
        // kernel, so the replica list and shares live outside it while
        // jobs are admitted. Capacity survives across calls.
        let mut nodes = std::mem::take(&mut k.scratch.nodes);
        let mut shares = std::mem::take(&mut k.scratch.shares);
        let rt = &mut self.tasks[task.index()];
        let cost = rt.spec.stages[stage.index()].cost;
        let inst = rt.instance_mut(index).expect("instance exists");
        nodes.clear();
        nodes.extend_from_slice(&inst.placement[stage.index()]);
        split_tracks_into(inst.tracks, nodes.len(), &mut shares);
        {
            let prog = &mut inst.stages[stage.index()];
            prog.started = Some(now);
            for (r, &share) in prog.replicas.iter_mut().zip(shares.iter()) {
                r.tracks_in = share;
                r.msg_delay = Some(SimDuration::ZERO);
            }
        }
        let stage_id = StageId::new(task, stage);
        for (r, (&node, &share)) in nodes.iter().zip(shares.iter()).enumerate() {
            let demand = cost.demand(share).max(SimDuration::from_micros(1));
            dispatch.admit_job(
                k,
                self,
                now,
                node,
                JobKind::Stage {
                    stage: stage_id,
                    replica: r as u32,
                    instance: index,
                },
                demand,
                0,
            );
        }
        k.scratch.nodes = nodes;
        k.scratch.shares = shares;
    }

    /// A stage replica's CPU job completed: record its latency, and when
    /// the whole stage is done either fan out to the successor stage (via
    /// the network engine) or complete the instance.
    #[allow(clippy::too_many_arguments)]
    pub fn on_stage_job_complete(
        &mut self,
        k: &mut SimKernel,
        net: &mut NetEngine,
        now: SimTime,
        stage: StageId,
        replica: u32,
        instance: u64,
        released: SimTime,
    ) {
        let task = stage.task;
        let n_stages = self.tasks[task.index()].spec.n_stages();
        let deadline = self.tasks[task.index()].spec.deadline;
        let finished = {
            let rt = &mut self.tasks[task.index()];
            let Some(inst) = rt.instance_mut(instance) else {
                return; // instance was failed (node death) while this job ran
            };
            let prog = &mut inst.stages[stage.subtask.index()];
            prog.replicas[replica as usize].exec_latency = Some(now.since(released));
            prog.done_replicas += 1;
            if prog.done_replicas as usize == prog.replicas.len() {
                prog.completed = Some(now);
                true
            } else {
                false
            }
        };
        k.record_trace(
            now,
            TraceEvent::ReplicaDone {
                stage,
                replica,
                instance,
                latency: now.since(released),
            },
        );
        if !finished {
            return;
        }
        k.record_trace(now, TraceEvent::StageDone { stage, instance });
        let next = SubtaskIdx(stage.subtask.0 + 1);
        if next.index() < n_stages {
            net.send_stage_messages(k, self, now, task, instance, stage.subtask, next);
        } else {
            // Last stage: the instance is complete.
            let inst = {
                let rt = &mut self.tasks[task.index()];
                let mut inst = rt.take_instance(instance).expect("instance exists");
                inst.completed = Some(now);
                inst
            };
            let e2e = inst.end_to_end().expect("completed");
            let missed = e2e > deadline;
            k.record_trace(
                now,
                TraceEvent::InstanceDone {
                    instance,
                    latency: e2e,
                    missed,
                },
            );
            let rec = &mut k.metrics.periods[inst.record];
            rec.end_to_end = Some(e2e);
            rec.missed = Some(missed);
            let mut stages = self.spare_stage_obs.pop().unwrap_or_default();
            stages.reserve(inst.stages.len());
            for (j, p) in inst.stages.iter().enumerate() {
                let replicas = inst.placement[j].len() as u32;
                let exec_latency = p.max_exec_latency().unwrap_or(SimDuration::ZERO);
                let inbound_msg_delay = p.max_msg_delay().unwrap_or(SimDuration::ZERO);
                k.metrics.stage_records.push(crate::metrics::StageRecord {
                    task: task.0,
                    instance,
                    stage: j as u32,
                    replicas,
                    exec_ms: exec_latency.as_millis_f64(),
                    msg_ms: inbound_msg_delay.as_millis_f64(),
                });
                stages.push(StageObservation {
                    subtask: SubtaskIdx::from_index(j),
                    replicas,
                    tracks: inst.tracks,
                    exec_latency,
                    inbound_msg_delay,
                    stage_latency: match (p.started, p.completed) {
                        (Some(s), Some(c)) => c.since(s),
                        _ => SimDuration::ZERO,
                    },
                });
            }
            self.pending_obs.push(PeriodObservation {
                task,
                instance,
                released: inst.released,
                tracks: inst.tracks,
                end_to_end: Some(e2e),
                missed,
                stages,
            });
            self.tasks[task.index()].retire(inst);
        }
    }

    /// Fails every instance in `lost` that owned a stage job, given the
    /// jobs' kinds. Helper for node-death teardown.
    pub fn fail_lost_jobs(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        now: SimTime,
        lost: Vec<JobId>,
    ) {
        for jid in lost {
            if let Some(job) = dispatch.remove_job(jid) {
                if let JobKind::Stage { stage, instance, .. } = job.kind {
                    self.fail_instance(k, now, stage.task, instance);
                }
            }
        }
    }
}
