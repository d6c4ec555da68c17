//! Network behavior: the shared bus plus the retransmit and dedup state
//! machines layered on top of it.
//!
//! The [`NetEngine`] owns every message between send and delivery. It
//! fans a completed stage's output out to the successor's replicas,
//! applies the lossy-medium draws (drop, duplication, backoff — in that
//! fixed RNG order), runs the sender-side retransmit timers, and
//! deduplicates redundant copies at the receiver.
//!
//! Nothing is looked up by hash: `Ev::Deliver` carries the copy's slot in
//! the bus, and the one retransmit record per unacknowledged message sits
//! in [`NetEngine::retx`], its slot carried by every copy and by
//! `Ev::RetxTimeout`.

use crate::engine::dispatch::DispatchEngine;
use crate::engine::tasks::TaskTable;
use crate::ids::{StageId, TaskId, SubtaskIdx};
use crate::job::JobKind;
use crate::kernel::{Ev, SimKernel};
use crate::net::{BusConfig, Message, MsgPayload, SendOutcome, SharedBus, Slot};
use crate::pipeline::split_tracks_into;
use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

/// Sender-side bookkeeping for one unacknowledged remote message.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetxState {
    /// The original message as sent: each resend copies its sender (a
    /// crashed sender gives up), destination, size and payload, and
    /// carries its id as the origin.
    pub orig: Message,
    /// Retransmissions already performed.
    pub attempts: u32,
    /// Handle of the pending `RetxTimeout`, cancelled on delivery.
    pub timer: crate::event::EventHandle,
}

/// Bus-side state and behavior: the wire, the messages on it, and the
/// retransmit/dedup machinery.
pub(crate) struct NetEngine {
    /// The shared Ethernet segment; its slab holds every message copy.
    pub bus: SharedBus,
    /// Pending sender-side retransmit records, one per unacknowledged
    /// original message. Empty unless `BusConfig::retx_timeout_us` is set.
    pub retx: Slab<RetxState>,
    /// Cached `retx_timeout_us > 0`, checked once per remote send.
    pub retx_enabled: bool,
    /// True when duplicates can reach a receiver (bus duplication or
    /// retransmission enabled) and per-replica origin dedup must run.
    pub dedup_enabled: bool,
    /// Bus busy total at the previous sample, for interval net utilization.
    pub sampled_bus_busy: SimDuration,
    /// Instant of the previous utilization sample.
    pub sampled_at: SimTime,
}

impl NetEngine {
    /// Builds the network engine. `SharedBus::new` validates the bus
    /// config and panics with a clear message for bad values (zero/NaN
    /// bandwidth, zero MTU, …).
    pub fn new(bus: BusConfig) -> Self {
        let retx_enabled = bus.retx_timeout_us > 0;
        let dedup_enabled = retx_enabled || bus.dup_prob > 0.0;
        NetEngine {
            bus: SharedBus::new(bus),
            retx: Slab::default(),
            retx_enabled,
            dedup_enabled,
            sampled_bus_busy: SimDuration::ZERO,
            sampled_at: SimTime::ZERO,
        }
    }

    /// Fans the completed stage's output out to the successor's replicas.
    ///
    /// `max(k_src, k_dst)` messages are sent: message `i` carries an even
    /// share of the data stream from source replica `i % k_src` to
    /// destination replica `i % k_dst`, so every source replica ships its
    /// output and every destination replica learns its full input from the
    /// messages addressed to it.
    #[allow(clippy::too_many_arguments)]
    pub fn send_stage_messages(
        &mut self,
        k: &mut SimKernel,
        tasks: &mut TaskTable,
        now: SimTime,
        task: TaskId,
        instance: u64,
        from: SubtaskIdx,
        to: SubtaskIdx,
    ) {
        let mut src_nodes = std::mem::take(&mut k.scratch.nodes);
        let mut dst_nodes = std::mem::take(&mut k.scratch.nodes2);
        let mut shares = std::mem::take(&mut k.scratch.shares);
        let bytes_per_track = {
            let rt = &mut tasks.tasks[task.index()];
            let inst = rt.instance_mut(instance).expect("instance exists");
            src_nodes.clear();
            src_nodes.extend_from_slice(&inst.placement[from.index()]);
            dst_nodes.clear();
            dst_nodes.extend_from_slice(&inst.placement[to.index()]);
            let n_msgs = src_nodes.len().max(dst_nodes.len());
            split_tracks_into(inst.tracks, n_msgs, &mut shares);
            let prog = &mut inst.stages[to.index()];
            prog.started = Some(now);
            for (i, _) in shares.iter().enumerate() {
                prog.replicas[i % dst_nodes.len()].msgs_expected += 1;
            }
            rt.spec.stages[from.index()].output_bytes_per_track
        };
        let stage_id = StageId::new(task, to);
        for (i, &share) in shares.iter().enumerate() {
            let src = src_nodes[i % src_nodes.len()];
            let dst_replica = i % dst_nodes.len();
            let dst = dst_nodes[dst_replica];
            let size = (share as f64 * bytes_per_track).ceil() as u64;
            let payload = MsgPayload::StageData {
                stage: stage_id,
                replica: dst_replica as u32,
                instance,
                tracks: share,
            };
            match self.bus.send(now, src, dst, size, payload) {
                SendOutcome::DeliverLocally { msg, at } => {
                    k.queue.schedule(at, Ev::Deliver { msg });
                }
                SendOutcome::Transmitting { msg, tx_done } => {
                    k.queue.schedule(tx_done, Ev::TxComplete);
                    self.arm_retx(k, now, msg);
                }
                SendOutcome::Queued { msg } => self.arm_retx(k, now, msg),
            }
        }
        k.scratch.nodes = src_nodes;
        k.scratch.nodes2 = dst_nodes;
        k.scratch.shares = shares;
    }

    /// Arms the sender-side retransmit timer for the freshly sent remote
    /// message at `msg` and stamps the message with its record. No-op (no
    /// event, no state) unless `retx_timeout_us` is configured, so the
    /// default path is untouched.
    pub fn arm_retx(&mut self, k: &mut SimKernel, now: SimTime, msg: Slot) {
        if !self.retx_enabled {
            return;
        }
        let at = now + SimDuration::from_micros(self.bus.config().retx_timeout_us);
        let m = self.bus.message_mut(msg);
        m.retx = Some(self.retx.insert_with(|retx| RetxState {
            orig: *m,
            attempts: 0,
            timer: k.queue.schedule(at, Ev::RetxTimeout { retx }),
        }));
    }

    /// True while the sender still holds a retransmit record for `m`'s
    /// origin, i.e. another copy may yet come.
    fn retx_pending(&self, m: &Message) -> bool {
        m.retx.is_some_and(|h| self.retx.get(h).is_some())
    }

    /// The message on the wire finished transmitting: free the medium for
    /// the next sender, then run the lossy-medium draws on the finished
    /// frame (drop, then duplication — after the backoff draw for the
    /// next sender, a fixed order that keeps replays byte-identical).
    pub fn on_tx_complete(&mut self, k: &mut SimKernel, tasks: &mut TaskTable, now: SimTime) {
        let max_backoff = self.bus.config().max_backoff_us;
        let backoff = if max_backoff > 0 && self.bus.queue_len() > 0 {
            SimDuration::from_micros(k.rng.below(max_backoff + 1))
        } else {
            SimDuration::ZERO
        };
        let Some((slot, next)) = self.bus.tx_complete(now, backoff) else {
            // Stale completion: the frame it announced was aborted by a
            // node crash. The wire has already been re-dispatched.
            return;
        };
        // The wire is free for the next sender regardless of what the
        // lossy medium does to the finished frame below.
        if let Some((_, done)) = next {
            k.queue.schedule(done, Ev::TxComplete);
        }
        // Failure realism, each draw gated behind its default-off knob so
        // the baseline consumes no randomness. Draw order is fixed:
        // backoff (above), drop, duplication.
        let cfg = *self.bus.config();
        if cfg.drop_prob > 0.0 && k.rng.chance(cfg.drop_prob) {
            // Corrupted on the wire: bandwidth burned, nothing delivered.
            let msg = self.bus.take(slot);
            let MsgPayload::StageData { stage, replica, instance, .. } = msg.payload;
            k.metrics.messages_dropped += 1;
            k.record_trace(now, TraceEvent::MessageDropped { msg: msg.origin });
            if !self.retx_pending(&msg)
                && !tasks.origin_delivered(stage, replica, instance, msg.origin)
            {
                // No retransmission coming and no copy ever arrived: the
                // stage can never assemble its input.
                tasks.fail_instance(k, now, stage.task, instance);
            }
            return;
        }
        let deliver_at = now + self.bus.propagation();
        if cfg.dup_prob > 0.0 && k.rng.chance(cfg.dup_prob) {
            let dup = self.bus.duplicate(slot);
            k.metrics.messages_duplicated += 1;
            let origin = self.bus.message(slot).origin;
            k.record_trace(now, TraceEvent::MessageDuplicated { msg: origin });
            k.queue.schedule(deliver_at, Ev::Deliver { msg: dup });
        }
        k.queue.schedule(deliver_at, Ev::Deliver { msg: slot });
    }

    /// A message reached its destination: satisfy the sender's retransmit
    /// timer, dedup redundant copies, accumulate the replica's input
    /// share, and admit the stage job once the share set is complete.
    pub fn on_deliver(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        tasks: &mut TaskTable,
        now: SimTime,
        msg: Slot,
    ) {
        let m = self.bus.take(msg);
        let MsgPayload::StageData { stage, replica, instance, tracks } = m.payload;
        if !dispatch.nodes[m.dst.index()].alive {
            // Routed to a dead node. With a retransmission pending the
            // sender will retry (the node may restart in time), and a
            // leftover redundant copy whose origin already arrived is
            // harmless — neither is a final loss (give-up is accounted in
            // `on_retx_timeout`). Otherwise the stage can never assemble
            // its input: count the loss and fail the instance now.
            if self.retx_pending(&m) || tasks.origin_delivered(stage, replica, instance, m.origin)
            {
                return;
            }
            k.metrics.messages_lost += 1;
            k.record_trace(now, TraceEvent::MessageLost { msg: m.origin, dst: m.dst });
            tasks.fail_instance(k, now, stage.task, instance);
            return;
        }
        // Data arrived at a live destination: the sender's retransmit
        // timer (if armed) is satisfied, even if this copy turns out to
        // be a duplicate below.
        if let Some(st) = m.retx.and_then(|h| self.retx.remove(h)) {
            k.queue.cancel(st.timer);
        }
        let delay = now.since(m.enqueued);
        let demand = {
            let rt = &mut tasks.tasks[stage.task.index()];
            let cost = rt.spec.stages[stage.subtask.index()].cost;
            let Some(inst) = rt.instance_mut(instance) else {
                // Instance was finalized early (e.g. at horizon); drop.
                return;
            };
            let rep = &mut inst.stages[stage.subtask.index()].replicas[replica as usize];
            if self.dedup_enabled {
                if rep.seen_origins.contains(&m.origin) {
                    return; // spurious duplicate or redundant retransmit
                }
                rep.seen_origins.push(m.origin);
            }
            rep.msgs_received += 1;
            rep.tracks_in += tracks;
            rep.msg_delay = Some(rep.msg_delay.map_or(delay, |d| d.max(delay)));
            if rep.msgs_received < rep.msgs_expected {
                return; // replica still waiting for more shares
            }
            cost.demand(rep.tracks_in)
        };
        dispatch.admit_job(
            k,
            tasks,
            now,
            m.dst,
            JobKind::Stage {
                stage,
                replica,
                instance,
            },
            demand.max(SimDuration::from_micros(1)),
            0,
        );
    }

    /// The sender-side retransmit timer fired without an acknowledged
    /// delivery: resend (the copy contends on the bus like any message)
    /// with deterministic exponential backoff, or give up once the retry
    /// budget is spent or the sender itself has died.
    pub fn on_retx_timeout(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        tasks: &mut TaskTable,
        now: SimTime,
        retx: Slot,
    ) {
        let cfg = *self.bus.config();
        let Some(st) = self.retx.get_mut(retx) else {
            return; // delivered (or torn down) before the timer fired
        };
        let MsgPayload::StageData { stage, instance, .. } = st.orig.payload;
        if st.attempts >= cfg.retx_max_retries || !dispatch.nodes[st.orig.src.index()].alive {
            let lost = TraceEvent::MessageLost { msg: st.orig.id, dst: st.orig.dst };
            self.retx.remove(retx);
            k.metrics.messages_lost += 1;
            k.record_trace(now, lost);
            tasks.fail_instance(k, now, stage.task, instance);
            return;
        }
        st.attempts += 1;
        k.metrics.retransmits += 1;
        k.record_trace(now, TraceEvent::Retransmit { msg: st.orig.id, attempt: st.attempts });
        match self.bus.resend(now, &st.orig, retx) {
            SendOutcome::Transmitting { tx_done, .. } => {
                k.queue.schedule(tx_done, Ev::TxComplete);
            }
            SendOutcome::Queued { .. } => {}
            SendOutcome::DeliverLocally { .. } => {
                unreachable!("retransmit timers are only armed for remote messages")
            }
        }
        // Deterministic exponential backoff: timeout << attempts. No RNG —
        // replays must be byte-identical, and the contention the copy
        // meets on the bus already desynchronizes senders.
        let delay = SimDuration::from_micros(cfg.retx_timeout_us << st.attempts.min(16));
        st.timer = k.queue.schedule(now + delay, Ev::RetxTimeout { retx });
    }
}

#[cfg(test)]
mod tests {
    //! Isolated retransmit/dedup state-machine tests: a kernel, the
    //! network engine, and a hand-built task table — no `Cluster`, no
    //! event loop.

    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::ids::{LoadGenId, NodeId};
    use crate::metrics::PeriodRecord;
    use crate::pipeline::{InstanceState, PolynomialCost, StageSpec, TaskRuntime, TaskSpec};
    use std::sync::Arc;

    fn two_stage_spec() -> TaskSpec {
        TaskSpec {
            id: TaskId(0),
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
    }

    /// Kernel + engines + one two-stage task (stage 0 on node 0, stage 1
    /// on node 1) with instance 0 released, its period record at index 0,
    /// and stage 1 expecting one message per replica.
    fn harness(bus: BusConfig) -> (SimKernel, DispatchEngine, NetEngine, TaskTable) {
        let mut cfg = ClusterConfig::paper_baseline(7, SimDuration::from_secs(10));
        cfg.bus = bus;
        let mut dispatch = DispatchEngine::new(cfg.n_nodes, &cfg.scheduler, true);
        let net = NetEngine::new(cfg.bus);
        let mut k = SimKernel::new(cfg);
        dispatch.start_run();
        let mut tasks = TaskTable::default();
        let mut rt = TaskRuntime::new(two_stage_spec());
        let mut inst = InstanceState::new(0, SimTime::ZERO, 100, Arc::clone(&rt.placement));
        inst.stages[1].replicas[0].msgs_expected = 1;
        rt.instances.push(inst);
        tasks.tasks.push(rt);
        k.metrics.periods.push(PeriodRecord {
            instance: 0,
            released: SimTime::ZERO,
            tracks: 100,
            replicas_per_stage: vec![1, 1],
            end_to_end: None,
            missed: None,
            shed: false,
        });
        (k, dispatch, net, tasks)
    }

    fn retx_bus() -> BusConfig {
        let mut bus = BusConfig::paper_baseline();
        bus.retx_timeout_us = 1_000;
        bus.retx_max_retries = 2;
        bus
    }

    fn stage1_payload() -> MsgPayload {
        MsgPayload::StageData {
            stage: StageId::new(TaskId(0), crate::ids::SubtaskIdx(1)),
            replica: 0,
            instance: 0,
            tracks: 100,
        }
    }

    /// Sends stage 1's input from node 0 to node 1 and completes its
    /// transmission, leaving the copy in the bus awaiting delivery.
    fn sent_copy(net: &mut NetEngine) -> Slot {
        let sent = net.bus.send(SimTime::ZERO, NodeId(0), NodeId(1), 8_000, stage1_payload());
        let SendOutcome::Transmitting { msg, tx_done } = sent else {
            panic!("idle bus transmits at once, got {sent:?}")
        };
        net.bus.tx_complete(tx_done, SimDuration::ZERO).expect("live completion");
        msg
    }

    /// The retransmit record `msg` carries.
    fn retx_of(net: &NetEngine, msg: Slot) -> Slot {
        net.bus.message(msg).retx.expect("retransmit armed")
    }

    #[test]
    fn retx_enabled_flags_follow_bus_config() {
        let off = NetEngine::new(BusConfig::paper_baseline());
        assert!(!off.retx_enabled && !off.dedup_enabled);
        let on = NetEngine::new(retx_bus());
        assert!(on.retx_enabled && on.dedup_enabled);
    }

    #[test]
    fn arm_retx_is_a_no_op_without_timeout() {
        let (mut k, _, mut net, _) = harness(BusConfig::paper_baseline());
        let msg = sent_copy(&mut net);
        net.arm_retx(&mut k, SimTime::ZERO, msg);
        assert_eq!(net.retx.len(), 0, "no retx state without a configured timeout");
        assert_eq!(net.bus.message(msg).retx, None, "nor a record on the message");
        assert!(k.queue.peek_key().is_none(), "no timer event either");
    }

    #[test]
    fn delivery_cancels_the_armed_timer_and_admits_the_stage_job() {
        let (mut k, mut dispatch, mut net, mut tasks) = harness(retx_bus());
        let msg = sent_copy(&mut net);
        let orig = net.bus.message(msg).id;
        net.arm_retx(&mut k, SimTime::ZERO, msg);
        let retx = retx_of(&net, msg);
        assert_eq!(net.retx.get(retx).map(|st| st.orig.id), Some(orig), "timer armed");
        net.on_deliver(&mut k, &mut dispatch, &mut tasks, SimTime::from_millis(1), msg);
        assert_eq!(net.retx.len(), 0, "delivery retires the retransmit state");
        assert_eq!(net.bus.slab().len(), 0, "and frees the message's slot");
        let rep = &tasks.tasks[0].instance(0).unwrap().stages[1].replicas[0];
        assert_eq!(rep.msgs_received, 1);
        assert_eq!(rep.seen_origins, vec![orig], "dedup remembers the origin");
        assert!(
            dispatch.nodes[1].running.is_some(),
            "complete input admits and dispatches the stage job"
        );
    }

    #[test]
    fn timeout_resends_until_the_retry_budget_is_spent() {
        let (mut k, mut dispatch, mut net, mut tasks) = harness(retx_bus());
        let msg = sent_copy(&mut net);
        net.arm_retx(&mut k, SimTime::ZERO, msg);
        let retx = retx_of(&net, msg);
        // Two timeouts resend (attempts 1 and 2 = retx_max_retries)…
        for attempt in 1..=2u32 {
            let now = SimTime::from_millis(attempt as u64 * 2);
            net.on_retx_timeout(&mut k, &mut dispatch, &mut tasks, now, retx);
            assert_eq!(k.metrics.retransmits, attempt as u64);
            assert_eq!(net.retx.get(retx).unwrap().attempts, attempt);
        }
        // …the third gives up: the copy is lost and the instance fails.
        net.on_retx_timeout(&mut k, &mut dispatch, &mut tasks, SimTime::from_millis(9), retx);
        assert_eq!(net.retx.len(), 0, "give-up retires the state");
        assert_eq!(k.metrics.messages_lost, 1);
        assert!(tasks.tasks[0].instances.is_empty(), "instance failed on give-up");
        assert_eq!(k.metrics.periods[0].missed, Some(true), "its period record too");
        assert_eq!(tasks.pending_obs.len(), 1);
        assert!(tasks.pending_obs[0].missed);
    }

    #[test]
    fn timeout_gives_up_immediately_when_the_sender_is_dead() {
        let (mut k, mut dispatch, mut net, mut tasks) = harness(retx_bus());
        let msg = sent_copy(&mut net);
        net.arm_retx(&mut k, SimTime::ZERO, msg);
        dispatch.nodes[0].alive = false;
        let retx = retx_of(&net, msg);
        net.on_retx_timeout(&mut k, &mut dispatch, &mut tasks, SimTime::from_millis(2), retx);
        assert_eq!(net.retx.len(), 0);
        assert_eq!(k.metrics.retransmits, 0, "a dead sender never resends");
        assert_eq!(k.metrics.messages_lost, 1);
        assert!(tasks.tasks[0].instances.is_empty());
    }

    #[test]
    fn duplicate_origin_is_counted_once() {
        let (mut k, mut dispatch, mut net, mut tasks) = harness(retx_bus());
        let first = sent_copy(&mut net);
        // A redundant copy (retransmission or bus duplicate) of the same
        // origin arrives later: dedup swallows it before any accounting.
        let dup = net.bus.duplicate(first);
        net.on_deliver(&mut k, &mut dispatch, &mut tasks, SimTime::from_millis(1), first);
        net.on_deliver(&mut k, &mut dispatch, &mut tasks, SimTime::from_millis(2), dup);
        let rep = &tasks.tasks[0].instance(0).unwrap().stages[1].replicas[0];
        assert_eq!(rep.msgs_received, 1, "duplicate not double-counted");
        assert_eq!(rep.tracks_in, 100, "tracks accumulated exactly once");
        assert_eq!(rep.seen_origins.len(), 1);
    }

    #[test]
    fn dead_destination_without_retx_loses_the_message_and_fails_the_instance() {
        let (mut k, mut dispatch, mut net, mut tasks) = harness(retx_bus());
        dispatch.nodes[1].alive = false;
        let msg = sent_copy(&mut net);
        net.on_deliver(&mut k, &mut dispatch, &mut tasks, SimTime::from_millis(1), msg);
        assert_eq!(k.metrics.messages_lost, 1);
        assert!(tasks.tasks[0].instances.is_empty(), "stage can never assemble its input");
    }

    #[test]
    fn dead_destination_with_pending_retx_is_not_a_final_loss() {
        let (mut k, mut dispatch, mut net, mut tasks) = harness(retx_bus());
        let msg = sent_copy(&mut net);
        net.arm_retx(&mut k, SimTime::ZERO, msg);
        let retx = retx_of(&net, msg);
        dispatch.nodes[1].alive = false;
        net.on_deliver(&mut k, &mut dispatch, &mut tasks, SimTime::from_millis(1), msg);
        assert_eq!(k.metrics.messages_lost, 0, "the sender will retry");
        assert!(!tasks.tasks[0].instances.is_empty(), "instance survives until give-up");
        assert!(net.retx.get(retx).is_some());
    }

    #[test]
    fn background_jobs_exist_independently_of_the_net_engine() {
        // The harness builds without a Cluster; sanity-check the pieces
        // are genuinely decoupled by running an unrelated admission.
        let (mut k, mut dispatch, _net, mut tasks) = harness(BusConfig::paper_baseline());
        dispatch.admit_job(
            &mut k,
            &mut tasks,
            SimTime::ZERO,
            NodeId(2),
            crate::job::JobKind::Background(LoadGenId(0)),
            SimDuration::from_millis(5),
            1,
        );
        assert!(dispatch.nodes[2].running.is_some());
    }
}
