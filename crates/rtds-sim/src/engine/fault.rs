//! Fault injection: node death, crash teardown, and restart re-arm.
//!
//! The [`FaultEngine`] is the single owner of the node-death path:
//! permanent failures (`NodeFail`) and crash–restart cycles (`NodeCrash`
//! / `NodeRestart`) both go through [`FaultEngine::kill_node`], so the
//! teardown semantics — lost jobs, failed instances, node-local
//! boundaries and chain completions — cannot drift between the two. A
//! crash additionally tears down the dead node's bus traffic, and a restart re-arms its dormant background
//! generators and reports the node as cold until its utilization
//! estimate warms back up.

use crate::engine::dispatch::DispatchEngine;
use crate::engine::load::LoadEngine;
use crate::engine::net::NetEngine;
use crate::engine::tasks::TaskTable;
use crate::ids::{JobId, NodeId};
use crate::kernel::{Ev, SimKernel};
use crate::net::MsgPayload;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

/// The one node-death code path, plus crash teardown and restart re-arm.
/// Stateless: everything it tears down or re-arms lives in the other
/// engines, which keeps "what dies with a node" auditable in one place.
#[derive(Debug, Default)]
pub(crate) struct FaultEngine;

impl FaultEngine {
    /// Kills a node: abort its running job, drop its ready queue, mark it
    /// dead. Instances whose jobs are lost can never complete and are
    /// failed immediately. Returns `false` (and does nothing) if the node
    /// was already dead.
    ///
    /// This is the *entire* effect of a permanent failure
    /// (`fail_node_at`); a crash is this plus bus teardown.
    pub fn kill_node(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        tasks: &mut TaskTable,
        now: SimTime,
        node: NodeId,
    ) -> bool {
        if !dispatch.nodes[node.index()].alive {
            return false;
        }
        // Boundaries that precede the kill still run; the rest die with
        // the node: node-local ones, and a chain completion on its lane
        // (the heap entry goes stale).
        dispatch.catch_up(k, node);
        dispatch.drop_lazy(k, node.index());
        dispatch.nodes[node.index()].alive = false;
        k.record_trace(now, TraceEvent::NodeFailed { node });
        let mut lost: Vec<JobId> = Vec::new();
        if let Some(running) = dispatch.nodes[node.index()].running.take() {
            if let Some(h) = running.dispatch_handle {
                k.queue.cancel(h);
            }
            lost.push(running.entry.job);
        }
        while let Some(e) = dispatch.nodes[node.index()].sched.pick() {
            lost.push(e.job);
        }
        dispatch.nodes[node.index()].end_busy(now);
        tasks.fail_lost_jobs(k, dispatch, now, lost);
        true
    }

    /// Permanent failure (`Ev::NodeFail`): [`Self::kill_node`], nothing
    /// more. The node never dispatches again.
    pub fn on_node_fail(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        tasks: &mut TaskTable,
        now: SimTime,
        node: NodeId,
    ) {
        self.kill_node(k, dispatch, tasks, now, node);
    }

    /// A crash is a failure plus bus teardown: the crashed node's queued
    /// messages are purged and a frame it was mid-transmitting is aborted
    /// (the medium is freed for the next waiting sender). The aborted
    /// frame's already-scheduled `TxComplete` stays in the event queue and
    /// is ignored as stale by [`crate::net::SharedBus::tx_complete`].
    pub fn on_node_crash(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        net: &mut NetEngine,
        tasks: &mut TaskTable,
        now: SimTime,
        node: NodeId,
    ) {
        if !self.kill_node(k, dispatch, tasks, now, node) {
            return;
        }
        let max_backoff = net.bus.config().max_backoff_us;
        let backoff = if max_backoff > 0
            && net.bus.transmitting_src() == Some(node)
            && net.bus.queue_len() > 0
        {
            SimDuration::from_micros(k.rng.below(max_backoff + 1))
        } else {
            SimDuration::ZERO
        };
        let aborted = net.bus.abort_from(now, node, backoff);
        if let Some((_, done)) = aborted.next {
            k.queue.schedule(done, Ev::TxComplete);
        }
        for m in aborted.purged.into_iter().chain(aborted.in_flight) {
            let MsgPayload::StageData { stage, replica, instance, .. } = m.payload;
            // A dead sender cannot retransmit: retire its timer too.
            if let Some(st) = m.retx.and_then(|h| net.retx.remove(h)) {
                k.queue.cancel(st.timer);
            } else if tasks.origin_delivered(stage, replica, instance, m.origin) {
                // Leftover redundant retransmission; the data already
                // arrived, so purging this copy loses nothing.
                continue;
            }
            k.metrics.messages_lost += 1;
            k.record_trace(now, TraceEvent::MessageLost { msg: m.origin, dst: m.dst });
            tasks.fail_instance(k, now, stage.task, instance);
        }
    }

    /// Brings a crashed node back online: cold caches, empty queues, and
    /// a reset utilization estimate. Until the estimate warms up the node
    /// reports as `cold` in the [`crate::control::ControlContext`], so
    /// managers treat its utilization as missing rather than zero.
    pub fn on_node_restart(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        load: &mut LoadEngine,
        now: SimTime,
        node: NodeId,
    ) {
        if dispatch.nodes[node.index()].alive {
            return; // never crashed (or already restarted): nothing to do
        }
        dispatch.nodes[node.index()].restart(now);
        k.metrics.node_restarts += 1;
        k.record_trace(now, TraceEvent::NodeRestarted { node });
        // Re-arm the node's background generators that went dormant while
        // it was down: ambient load resumes with the node.
        load.rearm_dormant(k, dispatch, now, node);
    }
}

#[cfg(test)]
mod tests {
    //! Isolated crash→restart tests: kernel + engines, no `Cluster`.

    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::lane::LaneRef;
    use crate::ids::LoadGenId;
    use crate::job::JobKind;
    use crate::load::PeriodicLoad;
    use crate::time::SimDuration;

    fn harness() -> (SimKernel, DispatchEngine, NetEngine, LoadEngine, TaskTable, FaultEngine) {
        let cfg = ClusterConfig::paper_baseline(7, SimDuration::from_secs(10));
        let mut dispatch = DispatchEngine::new(cfg.n_nodes, &cfg.scheduler, true);
        let net = NetEngine::new(cfg.bus);
        let k = SimKernel::new(cfg);
        dispatch.start_run();
        let mut load = LoadEngine::default();
        load.gens.push(Box::new(PeriodicLoad::new(
            LoadGenId(0),
            NodeId(0),
            SimDuration::from_millis(10),
            0.3,
        )));
        load.dormant.push(false);
        (k, dispatch, net, load, TaskTable::default(), FaultEngine)
    }

    #[test]
    fn kill_node_is_idempotent() {
        let (mut k, mut dispatch, _net, _load, mut tasks, mut fault) = harness();
        assert!(fault.kill_node(&mut k, &mut dispatch, &mut tasks, SimTime::ZERO, NodeId(3)));
        assert!(!dispatch.nodes[3].alive);
        assert!(
            !fault.kill_node(&mut k, &mut dispatch, &mut tasks, SimTime::ZERO, NodeId(3)),
            "second kill reports already-dead and does nothing"
        );
    }

    #[test]
    fn kill_node_tears_down_lanes_running_job_and_queue() {
        let (mut k, mut dispatch, _net, _load, mut tasks, mut fault) = harness();
        // Two background jobs: one runs (with a node-local boundary under
        // the fast path), one queues.
        for _ in 0..2 {
            dispatch.admit_job(
                &mut k,
                &mut tasks,
                SimTime::ZERO,
                NodeId(0),
                JobKind::Background(LoadGenId(0)),
                SimDuration::from_millis(5),
                1,
            );
        }
        assert!(dispatch.nodes[0].running.is_some());
        fault.kill_node(&mut k, &mut dispatch, &mut tasks, SimTime::from_millis(1), NodeId(0));
        assert!(dispatch.nodes[0].running.is_none());
        assert_eq!(k.lanes.key(LaneRef::Dispatch(0)), None);
        assert_eq!(dispatch.lazy_nodes, 0, "the node-local boundary died too");
        assert_eq!(
            dispatch.jobs.iter().filter(|j| j.is_some()).count(),
            0,
            "both jobs reclaimed"
        );
    }

    #[test]
    fn poll_lane_goes_dormant_on_dead_node_and_rearms_on_restart() {
        let (mut k, mut dispatch, mut net, mut load, mut tasks, mut fault) = harness();
        fault.on_node_crash(&mut k, &mut dispatch, &mut net, &mut tasks, SimTime::ZERO, NodeId(0));
        // The generator's poll fires and finds its node down: dormant,
        // no RNG draw, no re-arm.
        load.on_bg_poll(&mut k, &mut dispatch, &mut tasks, SimTime::from_millis(10), 0);
        assert!(load.dormant[0]);
        assert_eq!(k.lanes.key(LaneRef::BgPoll(0)), None);
        // Restart re-arms the lane at the restart instant (fast path:
        // virtual lane entry, no heap event).
        let back = SimTime::from_millis(500);
        fault.on_node_restart(&mut k, &mut dispatch, &mut load, back, NodeId(0));
        assert!(dispatch.nodes[0].alive);
        assert_eq!(k.metrics.node_restarts, 1);
        assert!(!load.dormant[0]);
        let (at, seq) = k.lanes.key(LaneRef::BgPoll(0)).expect("poll lane re-armed");
        assert_eq!(at, back);
        let top = k.lanes.peek().expect("lane heap entry pushed");
        assert_eq!((top.at, top.seq, top.lane), (at, seq, LaneRef::BgPoll(0)));
    }

    #[test]
    fn restart_does_not_rearm_a_pending_poll() {
        // A crash shorter than one interarrival gap: the generator's poll
        // never fired while the node was down, so it is not dormant and
        // restart must not arm a second lane (double-armed polls would
        // double the ambient load).
        let (mut k, mut dispatch, mut net, mut load, mut tasks, mut fault) = harness();
        let pending = (SimTime::from_millis(20), 77);
        k.lanes.arm(LaneRef::BgPoll(0), pending.0, pending.1);
        fault.on_node_crash(&mut k, &mut dispatch, &mut net, &mut tasks, SimTime::ZERO, NodeId(0));
        fault.on_node_restart(&mut k, &mut dispatch, &mut load, SimTime::from_millis(5), NodeId(0));
        assert_eq!(k.lanes.key(LaneRef::BgPoll(0)), Some(pending), "pending poll untouched");
        assert_eq!(k.lanes.len(), 1, "no extra lane entry");
    }

    #[test]
    fn restart_of_a_live_node_is_a_no_op() {
        let (mut k, mut dispatch, _net, mut load, _tasks, mut fault) = harness();
        fault.on_node_restart(&mut k, &mut dispatch, &mut load, SimTime::from_millis(5), NodeId(0));
        assert_eq!(k.metrics.node_restarts, 0);
    }

    #[test]
    fn crash_mid_transmission_purges_and_fails_the_sender_frames() {
        let (mut k, mut dispatch, mut net, _load, mut tasks, mut fault) = harness();
        // Give the task table a live instance whose stage-1 input is the
        // in-flight frame below (placement: stage0@0, stage1@1).
        let spec = {
            use crate::pipeline::{PolynomialCost, StageSpec, TaskSpec};
            TaskSpec {
                id: crate::ids::TaskId(0),
                name: "iso".into(),
                period: SimDuration::from_secs(1),
                deadline: SimDuration::from_millis(990),
                track_bytes: 80,
                stages: [0u32, 1]
                    .iter()
                    .map(|&home| StageSpec {
                        name: format!("s{home}"),
                        cost: PolynomialCost::linear(1.0, 1.0),
                        replicable: false,
                        home: NodeId(home),
                        output_bytes_per_track: 80.0,
                    })
                    .collect(),
            }
        };
        let mut rt = crate::pipeline::TaskRuntime::new(spec);
        let inst = crate::pipeline::InstanceState::new(
            0,
            SimTime::ZERO,
            100,
            std::sync::Arc::clone(&rt.placement),
        );
        rt.instances.push(inst);
        tasks.tasks.push(rt);
        k.metrics.periods.push(crate::metrics::PeriodRecord {
            instance: 0,
            released: SimTime::ZERO,
            tracks: 100,
            replicas_per_stage: vec![1, 1],
            end_to_end: None,
            missed: None,
            shed: false,
        });
        // Put a frame from node 0 on the wire.
        let payload = crate::net::MsgPayload::StageData {
            stage: crate::ids::StageId::new(crate::ids::TaskId(0), crate::ids::SubtaskIdx(1)),
            replica: 0,
            instance: 0,
            tracks: 100,
        };
        let outcome = net.bus.send(SimTime::ZERO, NodeId(0), NodeId(1), 8_000, payload);
        assert!(matches!(outcome, crate::net::SendOutcome::Transmitting { .. }));
        fault.on_node_crash(
            &mut k,
            &mut dispatch,
            &mut net,
            &mut tasks,
            SimTime::from_micros(100),
            NodeId(0),
        );
        assert_eq!(k.metrics.messages_lost, 1, "the aborted frame is lost");
        assert!(tasks.tasks[0].instances.is_empty(), "its instance fails with it");
        assert_eq!(k.metrics.periods[0].missed, Some(true), "its period record too");
        assert_eq!(net.bus.slab().len(), 0, "the aborted frame's slot is freed");
    }
}
