//! Node scheduling: CPU dispatch, the job slab, and each node's pending
//! slice boundary.
//!
//! The [`DispatchEngine`] owns the processor nodes and every live job.
//! It admits work (from stage starts, message deliveries, and background
//! polls) and drives slice-boundary dispatches. A node's next `Dispatch`
//! is carried in one of three places:
//!
//! - **the event queue**, for a plain slice boundary of a node with stage
//!   jobs (or of any node on the reference path);
//! - **its lane** ([`LaneRef::Dispatch`]), for a lone job's quantum chain
//!   ([`DispatchChain`]) on a node with stage jobs (or any node on the
//!   reference path);
//! - **node-local state** ([`LazyNode`]), for every boundary of a
//!   *background-only* node on the fast path — a plain slice end or a
//!   chain link. No other node can see such a boundary and none draws
//!   randomness, so it is not armed anywhere: the node replays its
//!   boundaries in a local loop ([`DispatchEngine::catch_up`]) only when
//!   something observes it — an admission (a background poll's job, a
//!   stage start, a message delivery), a kill, a `Sample` (everything
//!   strictly before it), and the horizon (everything at or before it).
//!
//! A replayed boundary runs the same serve / requeue / pick code as
//! [`DispatchEngine::on_dispatch`] and counts in the perf report as the
//! lane fire it stands for. Its place in the eager `(time, seq)` order matters only against a
//! global event at the same µs, and is recovered exactly: a lazy boundary
//! takes no seq, but sorts at the queue's tie slot
//! ([`crate::event::EventQueue::tie_seq`]) current when the eager run
//! would have armed it. A boundary armed by a global handler knows that
//! slot at once. One armed during a replay does not (the global events
//! between its predecessor and the replay have already fired), so the
//! node keeps the times it replayed since its last exact slot, and
//! [`DispatchEngine::resolve`] recomputes the slot from the kernel's
//! [`FireLog`](crate::kernel::FireLog) — at a same-µs tie, before a
//! boundary is materialized as a heap `Dispatch` (a stage job arrived),
//! once a node has replayed [`REPLAYED_MAX`] runs, and for every node at
//! every `Sample` and whenever the log is about to grow, which then
//! trims the log to the stalest pending boundary.
//!
//! All `(time, seq)` allocation happens at the exact program points where
//! the reference path would `schedule`, which is what keeps the modes
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

/// Replayed runs a node keeps before it pins its pending boundary's exact
/// tie slot early (see [`DispatchEngine::resolve`]).
const REPLAYED_MAX: usize = 32;

/// A background-only node's pending slice boundary, kept off the lane
/// heap (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct LazyNode {
    /// The pending boundary: its time and tie slot. The slot is exact
    /// while `replayed` is empty; otherwise it is the queue's tie slot
    /// when the replay armed it, and [`DispatchEngine::resolve`] replaces
    /// it with the exact one.
    next: Option<LaneKey>,
    /// Exact tie slot of the first boundary in `replayed`.
    anchor: u64,
    /// The boundaries replayed since the last exact slot, as runs
    /// `(time, count)`: a slice end is a run of one, and chain links
    /// replayed together are a run one quantum apart.
    replayed: Vec<(SimTime, u64)>,
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
    /// a plain slice boundary. Meaningful only while the lane or the
    /// node-local boundary is armed: every arm sets it.
    pub chains: Vec<Option<DispatchChain>>,
    /// Per-node pending boundary of background-only nodes. Sized by
    /// [`Self::start_run`].
    lazy: Vec<LazyNode>,
    /// Nodes whose `lazy` boundary is pending. While it is non-zero the
    /// run loop logs every global event it fires.
    pub lazy_nodes: usize,
    /// The one switch between the two background-load paths: true runs
    /// background polls on virtual lanes and background-only slice
    /// boundaries node-locally; false (only
    /// [`crate::cluster::Cluster::reference`], the equivalence oracle)
    /// runs them as heap events. Every engine reads this field, never a
    /// config.
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
            lazy: Vec::new(),
            lazy_nodes: 0,
            bg_ff,
        }
    }

    /// Sizes the node-local boundary state; called once as the run
    /// starts, so building a cluster allocates none of it. A node's
    /// replayed list takes its full room the first time the node holds a
    /// lazy boundary, so it never grows in the middle of a run.
    pub fn start_run(&mut self) {
        self.lazy.resize_with(self.nodes.len(), LazyNode::default);
    }

    /// True while `node`'s boundaries are node-local: the fast path and
    /// no stage job on the node.
    #[inline]
    fn bg_only(&self, i: usize) -> bool {
        self.bg_ff && self.stage_jobs[i] == 0
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
        // The admission observes the node: bring it up to this event.
        self.catch_up(k, node);
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
        if self.bg_only(node.index()) {
            // Still background-only: the running job (if chained) is no
            // longer alone, so its chain ends at the pending link, which
            // stays node-local as a plain slice boundary — same key.
            if let Some((at, _)) = self.lazy[node.index()].next {
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

    /// Moves a node's pending `Dispatch` — from its lane, or its exact
    /// node-local key — onto the event queue as a real event in its
    /// tie-break slot, truncating a chain at its pending link: another job
    /// arrived, so from here on round-robin interleaving and the node's
    /// scheduling are observable and run on real events, exactly as
    /// without elision.
    pub fn materialize(&mut self, k: &mut SimKernel, node: NodeId) {
        let i = node.index();
        let key = match k.lanes.disarm(LaneRef::Dispatch(i as u32)) {
            Some(key) => Some(key),
            None if self.lazy[i].next.is_some() => {
                let seq = self.resolve(k, i);
                self.drop_lazy(i).map(|(at, _)| (at, seq))
            }
            None => None,
        };
        if let Some((at, seq)) = key {
            let h = k.queue.schedule_at_seq(at, seq, Ev::Dispatch { node });
            let r = self.running_mut(node);
            r.slice_end = at;
            r.dispatch_handle = Some(h);
        }
    }

    /// Discards `node`'s node-local boundary state (materialized, or the
    /// node died), returning the pending key.
    pub fn drop_lazy(&mut self, i: usize) -> Option<LaneKey> {
        let lz = &mut self.lazy[i];
        lz.replayed.clear();
        let next = lz.next.take();
        self.lazy_nodes -= next.is_some() as usize;
        next
    }

    /// Replays `node`'s lazy boundaries that precede the event being
    /// handled (`k.event`) in eager order: every one before its µs, and
    /// one at its µs iff its exact tie slot sorts first. The next one is
    /// at least a µs later, so that is all.
    pub fn catch_up(&mut self, k: &mut SimKernel, node: NodeId) {
        let i = node.index();
        let (t, seq) = k.event;
        if self.lazy[i].next.is_none_or(|(at, _)| at > t) {
            return;
        }
        self.replay_before(k, i, t);
        if self.lazy[i].next.is_some_and(|(at, _)| at == t) {
            let first = self.resolve(k, i) < seq;
            #[cfg(test)]
            k.ties.push((k.handling, first));
            if first {
                self.replay(k, i, t + SimDuration::from_micros(1));
            }
        }
    }

    /// Replays every lazy boundary of node `i` strictly before `t`.
    fn replay_before(&mut self, k: &mut SimKernel, i: usize, t: SimTime) {
        while self.lazy[i].next.is_some_and(|(at, _)| at < t) {
            self.replay(k, i, t);
        }
    }

    /// Replays node `i`'s pending boundary, which is before `until`. A
    /// slice end runs through [`Self::end_slice`] and
    /// [`Self::try_dispatch`] like any dispatch. A chain link is a state
    /// no-op, so it and every further link before `until` replay at once,
    /// as one run of the replayed list. Each counts as the lane fire it
    /// stands for.
    fn replay(&mut self, k: &mut SimKernel, i: usize, until: SimTime) {
        let lz = &mut self.lazy[i];
        let (at, seq) = lz.next.expect("a pending boundary");
        if lz.replayed.is_empty() {
            lz.anchor = seq;
        }
        match self.chains[i] {
            Some(c) if at < c.completion => {
                let end = until.min(c.completion);
                let links = end.since(at).as_micros().div_ceil(c.quantum.as_micros());
                lz.replayed.push((at, links));
                let next = (at + c.quantum * links).min(c.completion);
                lz.next = Some((next, k.queue.tie_seq()));
                if let Some(p) = k.perf.as_mut() {
                    p.report.elided_dispatches += links;
                }
            }
            _ => {
                lz.replayed.push((at, 1));
                lz.next = None;
                self.lazy_nodes -= 1;
                if let Some(p) = k.perf.as_mut() {
                    p.report.elided_bg_dispatches += 1;
                }
                let node = NodeId(i as u32);
                let done = self.end_slice(at, node);
                debug_assert!(done.is_none_or(|j| !j.kind.is_stage()), "stage job on a lazy node");
                self.try_dispatch(k, at, node);
            }
        }
        let lz = &mut self.lazy[i];
        if lz.next.is_none() {
            lz.replayed.clear();
        } else if lz.replayed.len() >= REPLAYED_MAX {
            // Everything replayed precedes the event being handled, which
            // is logged, so the slot is exact already; pin it to bound
            // the list.
            self.resolve(k, i);
        }
    }

    /// The exact tie slot of node `i`'s pending boundary, which becomes
    /// its new anchor. Each replayed boundary armed its successor at the
    /// tie slot current just before the first global event after it
    /// ([`crate::kernel::FireLog::tie_after`]); that depends on the
    /// replayed boundary's own slot only if some global event fired at
    /// the same µs, so the walk starts after the last replayed boundary
    /// without such a tie.
    fn resolve(&mut self, k: &SimKernel, i: usize) -> u64 {
        // Chain links replay in runs `quantum` apart; a run of a plain
        // slice end has one time and needs no spacing.
        let q = self.nodes[i].sched.quantum().unwrap_or(SimDuration::ZERO);
        let lz = &mut self.lazy[i];
        let (at, mut seq) = lz.next.expect("a pending boundary");
        if lz.replayed.is_empty() {
            return seq;
        }
        let (log, current) = (&k.fired, k.queue.tie_seq());
        let untied = lz.replayed.iter().enumerate().rev().find_map(|(r, &(t0, n))| {
            (0..n).rev().find(|&j| !log.fired_at(t0 + q * j)).map(|j| (r, j))
        });
        let (r0, j0) = match untied {
            Some((r, j)) => {
                seq = log.tie_after(lz.replayed[r].0 + q * j, 0, current);
                (r, j + 1)
            }
            None => {
                seq = lz.anchor;
                (0, 0)
            }
        };
        for (r, &(t0, n)) in lz.replayed.iter().enumerate().skip(r0) {
            for j in if r == r0 { j0 } else { 0 }..n {
                seq = log.tie_after(t0 + q * j, seq, current);
            }
        }
        lz.replayed.clear();
        lz.next = Some((at, seq));
        seq
    }

    /// A `Sample` at `now` observes every node's busy time: replay each
    /// lazy node strictly before `now` (a boundary at `now` leaves
    /// `busy_total(now)` unchanged on either side), then compact the fire
    /// log, which is never consulted before `now` again.
    pub fn settle(&mut self, k: &mut SimKernel, now: SimTime) {
        if self.lazy_nodes == 0 {
            return;
        }
        for i in 0..self.lazy.len() {
            self.replay_before(k, i, now);
            #[cfg(test)]
            if self.lazy[i].next.is_some_and(|(at, _)| at == now) {
                k.ties.push(("sample", false));
            }
        }
        self.compact_log(k);
    }

    /// Pins every pending boundary's exact slot, then drops the fire log
    /// before the earliest of them: every later lookup is at or after a
    /// pending boundary's time. The run loop also calls this when the log
    /// is about to grow, so it holds the events since the stalest pending
    /// boundary rather than a whole sample interval's.
    pub fn compact_log(&mut self, k: &mut SimKernel) {
        let mut cut = None;
        for i in 0..self.lazy.len() {
            if let Some((at, _)) = self.lazy[i].next {
                self.resolve(k, i);
                cut = Some(cut.map_or(at, |c: SimTime| c.min(at)));
            }
        }
        k.fired.trim_before(cut.unwrap_or(k.event.0));
    }

    /// Replays every lazy boundary at or before the horizon, so every
    /// boundary the eager run fires is counted.
    pub fn finish(&mut self, k: &mut SimKernel, horizon: SimTime) {
        for i in 0..self.lazy.len() {
            self.replay_before(k, i, horizon);
            if self.lazy[i].next.is_some_and(|(at, _)| at == horizon) {
                #[cfg(test)]
                k.ties.push(("horizon", true));
                self.replay(k, i, horizon + SimDuration::from_micros(1));
            }
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
        if let Some(job) = self.end_slice(now, node) {
            if let JobKind::Stage { stage, replica, instance } = job.kind {
                let released = job.released;
                tasks.on_stage_job_complete(k, net, now, stage, replica, instance, released);
            }
        }
        self.try_dispatch(k, now, node);
    }

    /// Ends `node`'s slice at `now`: debits the served time, then frees
    /// the job and returns it if it completed, or requeues it.
    #[inline(always)]
    fn end_slice(&mut self, now: SimTime, node: NodeId) -> Option<Job> {
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
            return self.remove_job(running.job);
        }
        let prio = job.priority;
        self.nodes[node.index()].sched.enqueue(running.job, prio);
        None
    }

    /// Picks and starts the next job on an idle node, arming either a
    /// real slice-boundary `Dispatch` or, through [`Self::arm_lane`], a
    /// chain (lone multi-quantum job) or the node-local boundary of a
    /// background-only node.
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
                if self.bg_only(node.index()) {
                    // Fast path, background-only node: the slice boundary
                    // has no external observer, so it stays node-local.
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

    /// Arms `node`'s next dispatch at `at`, as a chain link or a plain
    /// slice boundary: node-local with the current tie slot while the
    /// node is background-only, otherwise on its lane with a seq
    /// allocated at the exact program point where the reference path
    /// would `schedule`, keeping tie-break order bit-identical.
    #[inline]
    fn arm_lane(
        &mut self,
        k: &mut SimKernel,
        at: SimTime,
        node: NodeId,
        chain: Option<DispatchChain>,
    ) {
        let i = node.index();
        self.chains[i] = chain;
        if self.bg_only(i) {
            let lz = &mut self.lazy[i];
            if lz.next.replace((at, k.queue.tie_seq())).is_none() {
                self.lazy_nodes += 1;
                if lz.replayed.capacity() == 0 {
                    lz.replayed.reserve_exact(REPLAYED_MAX);
                }
            }
        } else {
            let seq = k.queue.alloc_seq();
            k.lanes.arm(LaneRef::Dispatch(i as u32), at, seq);
        }
    }
}
