//! Node scheduling: CPU dispatch, the job slab, and each node's
//! `Dispatch` lane.
//!
//! The [`DispatchEngine`] owns the processor nodes and every live job.
//! It admits work (from stage starts, message deliveries, and background
//! polls) and drives slice-boundary dispatches. A node's next `Dispatch`
//! runs on its lane ([`LaneRef::Dispatch`]) instead of the event queue
//! while it has no external observer: a lone job's quantum chain
//! ([`DispatchChain`]), or the slice boundary of a background-only node.
//! All `(time, seq)` allocation happens at the exact program points where
//! the reference path would `schedule`, which is what keeps the two modes
//! byte-identical.

use crate::engine::net::NetEngine;
use crate::engine::tasks::TaskTable;
use crate::ids::{JobId, NodeId};
use crate::job::{Job, JobKind};
use crate::kernel::{Ev, SimKernel};
use crate::lane::{LaneKey, LaneRef};
use crate::node::{Node, Running};
use crate::sched::SchedulerKind;
use crate::time::{SimDuration, SimTime};

/// The elided continuation of a lone running job (see
/// [`DispatchEngine::chains`]). The next link's key is the node lane's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DispatchChain {
    /// When the job completes if it keeps the CPU: `slice_start +
    /// remaining` at chain creation. The dispatch at this instant has real
    /// effects and is scheduled as a real event when the chain reaches it.
    pub completion: SimTime,
    /// The node's scheduling quantum (chains only exist under a quantum).
    pub quantum: SimDuration,
}

/// CPU-side state and behavior: nodes, the job slab, and elided dispatch.
pub(crate) struct DispatchEngine {
    /// The processor nodes.
    pub nodes: Vec<Node>,
    /// Live jobs in a slot-reuse slab: `JobId` *is* the slot index, so
    /// the admit → dispatch → complete lifecycle (one per background
    /// arrival, millions per run) costs three `Vec` accesses instead of
    /// three hash-map operations. Ids are recycled; every id held by a
    /// scheduler queue or a `Running` slot is live by construction.
    pub jobs: Vec<Option<Job>>,
    /// Vacated job slots awaiting reuse.
    pub free_jobs: Vec<u32>,
    /// Per-node count of live application (stage) jobs — queued or
    /// running. Zero means every job on the node is background load and
    /// its dispatch boundaries are eligible for elision.
    pub stage_jobs: Vec<u32>,
    /// Per-node chain metadata of the node's `Dispatch` lane: when a node
    /// runs a *lone* job (empty ready queue) spanning several quanta,
    /// every intermediate per-quantum `Dispatch` is a state no-op — it
    /// serves one quantum, requeues into an empty queue, picks the same
    /// job back, and schedules the next slice. The lane carries the key
    /// of the next link; `Some` here marks it as a chain link rather than
    /// a plain slice boundary. Meaningful only while the lane is armed:
    /// every arm sets it.
    pub chains: Vec<Option<DispatchChain>>,
    /// The one switch between the two background-load paths: true runs
    /// background polls and background-only slice boundaries on virtual
    /// lanes; false (only [`crate::cluster::Cluster::reference`], the
    /// equivalence oracle) runs them as heap events. Every engine reads
    /// this field, never a config.
    pub bg_ff: bool,
}

impl DispatchEngine {
    /// Builds `n_nodes` homogeneous nodes under `scheduler`.
    pub fn new(n_nodes: usize, scheduler: &SchedulerKind, bg_ff: bool) -> Self {
        let nodes = (0..n_nodes)
            .map(|i| Node::new(NodeId::from_index(i), scheduler.build()))
            .collect();
        DispatchEngine {
            nodes,
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            stage_jobs: vec![0; n_nodes],
            chains: vec![None; n_nodes],
            bg_ff,
        }
    }

    /// Admits a job to `node`'s scheduler (or fails its instance if the
    /// node is dead) and dispatches if the CPU is idle.
    #[allow(clippy::too_many_arguments)]
    pub fn admit_job(
        &mut self,
        k: &mut SimKernel,
        tasks: &mut TaskTable,
        now: SimTime,
        node: NodeId,
        kind: JobKind,
        demand: SimDuration,
        priority: u8,
    ) {
        if !self.nodes[node.index()].alive {
            // Work routed to a dead node is lost; a stage job's instance
            // can never complete.
            if let JobKind::Stage { stage, instance, .. } = kind {
                tasks.fail_instance(k, now, stage.task, instance);
            }
            return;
        }
        let slot = match self.free_jobs.pop() {
            Some(s) => s,
            None => {
                self.jobs.push(None);
                (self.jobs.len() - 1) as u32
            }
        };
        let id = JobId(slot);
        let job = Job::new(id, node, kind, demand, now).with_priority(priority);
        self.jobs[slot as usize] = Some(job);
        if kind.is_stage() {
            self.stage_jobs[node.index()] += 1;
        }
        if self.bg_ff && self.stage_jobs[node.index()] == 0 {
            // Still background-only: the running job (if chained) is no
            // longer alone, so its chain ends at the pending link, which
            // stays on the lane as a plain slice boundary — same key, no
            // heap event.
            if let Some((at, _)) = k.lanes.key(LaneRef::Dispatch(node.index() as u32)) {
                self.chains[node.index()] = None;
                self.running_mut(node).slice_end = at;
            }
        } else {
            // A stage job makes the node externally consequential.
            self.materialize(k, node);
        }
        self.nodes[node.index()].sched.enqueue(id, priority);
        self.try_dispatch(k, now, node);
    }

    /// Frees a job slot, returning the job. The id becomes eligible for
    /// reuse by the next admission.
    #[inline]
    pub fn remove_job(&mut self, id: JobId) -> Option<Job> {
        let job = self.jobs[id.index()].take();
        if let Some(j) = &job {
            self.free_jobs.push(id.0);
            if j.kind.is_stage() {
                self.stage_jobs[j.node.index()] -= 1;
            }
        }
        job
    }

    fn running_mut(&mut self, node: NodeId) -> &mut Running {
        self.nodes[node.index()]
            .running
            .as_mut()
            .expect("a node with an armed lane has a running job")
    }

    /// Moves a node's pending lane `Dispatch` onto the event queue as a
    /// real event in its reserved tie-break slot, truncating a chain at
    /// its pending link: another job arrived, so from here on round-robin
    /// interleaving and the node's scheduling are observable and run on
    /// real events, exactly as without elision.
    pub fn materialize(&mut self, k: &mut SimKernel, node: NodeId) {
        if let Some((at, seq)) = k.lanes.disarm(LaneRef::Dispatch(node.index() as u32)) {
            let h = k.queue.schedule_at_seq(at, seq, Ev::Dispatch { node });
            let r = self.running_mut(node);
            r.slice_end = at;
            r.dispatch_handle = Some(h);
        }
    }

    /// Fires node `i`'s intermediate chain link due at `at`, then keeps
    /// firing links while the next one is still intermediate, within the
    /// horizon, and before every other pending key: the queue's
    /// `queue_key` and the runner-up lane, neither of which moves during
    /// the burst. For the lone job each link is a state no-op (serve one
    /// quantum, requeue into an empty queue, pick itself back), so only
    /// its bookkeeping is replayed: the dispatch that handler would have
    /// scheduled takes the next sequence number and now. Nothing reads the
    /// lane heap during the burst (its bound is taken before the first
    /// link), so the lane is re-armed once, in place, with the key of the
    /// link the burst stops at. The chain's last link — the job's
    /// completion, which has real effects — fires as a `Dispatch`. Returns
    /// the number of links fired.
    pub fn burst_chain(
        &mut self,
        k: &mut SimKernel,
        i: usize,
        mut at: SimTime,
        queue_key: Option<LaneKey>,
        horizon: SimTime,
    ) -> u64 {
        let bound = match (queue_key, k.lanes.runner_up()) {
            (Some(q), Some(r)) => Some(q.min(r)),
            (q, r) => q.or(r),
        };
        let c = self.chains[i].expect("chain link exists");
        let lane = LaneRef::Dispatch(i as u32);
        let mut links = 0;
        loop {
            debug_assert!(at < c.completion, "final link fired as intermediate");
            k.queue.advance_now(at);
            let next = (at + c.quantum).min(c.completion);
            let seq = k.queue.alloc_seq();
            links += 1;
            if next >= c.completion || next > horizon || bound.is_some_and(|b| (next, seq) >= b) {
                k.lanes.arm(lane, next, seq);
                return links;
            }
            at = next;
        }
    }

    /// A node's CPU slice ended: debit the served time, then complete or
    /// rotate the job and dispatch the next one.
    pub fn on_dispatch(
        &mut self,
        k: &mut SimKernel,
        tasks: &mut TaskTable,
        net: &mut NetEngine,
        now: SimTime,
        node: NodeId,
    ) {
        let running = self.nodes[node.index()]
            .running
            .take()
            .expect("dispatch event on idle node");
        debug_assert_eq!(running.slice_end, now, "dispatch at wrong instant");
        let served = now.since(running.slice_start);
        let job = self.jobs[running.job.index()]
            .as_mut()
            .expect("running job exists");
        job.serve(served);
        if job.is_complete() {
            let job = self.remove_job(running.job).expect("job exists");
            if let JobKind::Stage { stage, replica, instance } = job.kind {
                let released = job.released;
                tasks.on_stage_job_complete(k, net, now, stage, replica, instance, released);
            }
        } else {
            let prio = job.priority;
            self.nodes[node.index()].sched.enqueue(running.job, prio);
        }
        self.try_dispatch(k, now, node);
    }

    /// Picks and starts the next job on an idle node, arming either a
    /// real slice-boundary `Dispatch` or the node's lane: a chain (lone
    /// multi-quantum job) or a boundary (background-only node, fast
    /// path).
    pub fn try_dispatch(&mut self, k: &mut SimKernel, now: SimTime, node: NodeId) {
        let (jid, lone, quantum) = {
            let n = &mut self.nodes[node.index()];
            if n.running.is_some() {
                return;
            }
            match n.sched.pick() {
                Some(jid) => (jid, n.sched.ready_len() == 0, n.sched.quantum()),
                None => {
                    n.end_busy(now);
                    return;
                }
            }
        };
        let job = self.jobs[jid.index()].as_mut().expect("picked job exists");
        if job.first_dispatch.is_none() {
            job.first_dispatch = Some(now);
        }
        let remaining = job.remaining;
        let (slice_end, handle) = match quantum {
            // A lone job spanning several quanta: every intermediate
            // dispatch would requeue into an empty queue and pick the
            // same job back, so the whole run is carried on the lane as a
            // chain. The first elided dispatch would be scheduled right
            // here; its sequence number is allocated right here.
            Some(q) if lone && remaining > q => {
                let completion = now + remaining;
                let chain = DispatchChain { completion, quantum: q };
                self.arm_lane(k, now + q, node, Some(chain));
                (completion, None)
            }
            _ => {
                let end = now + quantum.map_or(remaining, |q| q.min(remaining));
                if self.bg_ff && self.stage_jobs[node.index()] == 0 {
                    // Fast path, background-only node: the slice boundary
                    // has no external observer, so it runs on the lane.
                    self.arm_lane(k, end, node, None);
                    (end, None)
                } else {
                    (end, Some(k.queue.schedule(end, Ev::Dispatch { node })))
                }
            }
        };
        let n = &mut self.nodes[node.index()];
        n.running = Some(Running {
            job: jid,
            slice_start: now,
            slice_end,
            dispatch_handle: handle,
        });
        n.begin_busy(now);
    }

    /// Arms `node`'s lane to dispatch at `at`, as a chain link or a plain
    /// slice boundary. The seq is allocated at the exact program point
    /// where the reference path would `schedule`, keeping tie-break order
    /// bit-identical.
    #[inline]
    fn arm_lane(
        &mut self,
        k: &mut SimKernel,
        at: SimTime,
        node: NodeId,
        chain: Option<DispatchChain>,
    ) {
        self.chains[node.index()] = chain;
        let seq = k.queue.alloc_seq();
        k.lanes.arm(LaneRef::Dispatch(node.index() as u32), at, seq);
    }
}
