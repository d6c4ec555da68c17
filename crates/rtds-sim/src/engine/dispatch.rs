//! Node scheduling: CPU dispatch, the job slab, and each node's pending
//! slice boundary.
//!
//! The [`DispatchEngine`] owns the processor nodes and every live job.
//! It admits work (from stage starts, message deliveries, and background
//! polls) and drives slice-boundary dispatches. On the fast path a node's
//! next `Dispatch` is carried in one of two places:
//!
//! - **the event queue**, for a slice boundary of a node with stage jobs
//!   that is not an intermediate link of a lone job's quantum chain;
//! - **node-local state** ([`LazyNode`]), for every boundary of a
//!   *background-only* node (a plain slice end or a chain link) and for
//!   every intermediate link of a lone job's quantum chain
//!   ([`DispatchChain`]) on any node. Such a boundary has no other
//!   observer and draws no randomness, so it is not armed anywhere: the
//!   node replays its boundaries in closed form ([`DispatchEngine::catch_up`])
//!   only when something observes it — an admission (a background poll's
//!   job, a stage start, a message delivery), a kill, a `Sample` (a
//!   background-only node, everything strictly before it; a chain keeps
//!   the node busy throughout, so it needs none), and the horizon
//!   (everything at or before it).
//!
//! The completion of a stage job's chain has real effects, so it fires in
//! global order from the node's lane ([`LaneRef::Dispatch`]) as a timed
//! `Dispatch`. The reference path ([`crate::cluster::Cluster::reference`])
//! runs every slice boundary, every chain link included, as a heap event.
//!
//! A replayed boundary runs the same serve / requeue / pick code as
//! [`DispatchEngine::on_dispatch`] and counts in the perf report as the
//! lane fire it stands for. Its place in the eager `(time, seq)` order
//! matters only against an event at the same µs, and is recovered
//! exactly: a node-local boundary takes no seq, but sorts at the queue's
//! tie slot ([`crate::event::EventQueue::tie_seq`]) current when the eager
//! run would have armed it. A boundary armed by a global handler knows
//! that slot at once. One armed during a replay does not (the global
//! events between its predecessor and the replay have already fired), so
//! the node keeps the times it replayed since its last exact slot, and
//! [`DispatchEngine::resolve`] recomputes the slot from the kernel's
//! [`FireLog`](crate::kernel::FireLog) — at a same-µs tie, before a
//! boundary is materialized as a heap `Dispatch` (a second job arrived),
//! once a node has replayed [`REPLAYED_MAX`] runs, and for every node at
//! a `Sample` of background-only nodes and whenever the log is about to
//! grow, which then trims the log to the stalest pending boundary.
//!
//! A chain completion's lane key is provisional: the tie slot current
//! when the chain was armed. Its exact slot, which the penultimate link
//! armed, is never smaller (tie slots only grow), so the provisional key
//! can only sort it too early against an event at its own µs; the run
//! loop asks for the exact key ([`DispatchEngine::contend`]) only then.
//! Being keyed by a tie slot, a completion can share its key with another
//! completion or with a node-local boundary of another node: both were
//! armed between the same two seq allocations, and the eager run orders
//! them as their armers fired — by the armers' keys, then by arm order.
//!
//! All seq allocation happens at the exact program points where the
//! reference path would `schedule`, which is what keeps the modes
//! byte-identical.

use crate::engine::net::NetEngine;
use crate::engine::tasks::TaskTable;
use crate::ids::{JobId, NodeId};
use crate::job::{Job, JobKind};
use crate::kernel::{Ev, SimKernel};
use crate::lane::{LaneEntry, LaneKey, LaneRef};
use crate::node::{Node, Running};
use crate::sched::SchedulerKind;
use crate::time::{SimDuration, SimTime};

/// The elided continuation of a lone running job (see
/// [`DispatchEngine::chains`]). Its pending link is the node's
/// [`LazyNode`] boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DispatchChain {
    /// When the job completes if it keeps the CPU: `slice_start +
    /// remaining` at chain creation. The dispatch at this instant has real
    /// effects: for a stage job it fires from the node's lane.
    pub completion: SimTime,
    /// The node's scheduling quantum (chains only exist under a quantum).
    pub quantum: SimDuration,
}

/// Replayed runs a node keeps before it pins its pending boundary's exact
/// tie slot early (see [`DispatchEngine::resolve`]).
const REPLAYED_MAX: usize = 32;

/// Where an event keyed by a tie slot sorts among others with the same
/// key. The eager run gave them seqs in the order their armers fired, so
/// they sort by their armers' keys first; see [`DispatchEngine::precedes`]
/// for armers that share a key too.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rank {
    /// Key of the event that armed it.
    armer: LaneKey,
    /// How that armer sorts against a global event at its own key, if it
    /// was a node-local boundary ([`LazyNode::via`]).
    via: Via,
    /// Its node.
    node: usize,
    /// Its node's arm id ([`LazyNode::id`]).
    id: u64,
}

/// How the armer of a node's pending boundary sorts among events at its
/// own key: a node-local boundary can share its key with a global event
/// keyed by a tie slot (a chain completion or a materialized boundary).
/// Every node-local boundary at such an event's key follows it unless it
/// was replayed just before it fired ([`DispatchEngine::order_at`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Via {
    /// A node-local boundary that fired before the global event at its key.
    Before,
    /// A global event.
    Global,
    /// A node-local boundary after any global event at its key.
    #[default]
    After,
}

/// What the run loop fires next (see [`DispatchEngine::contend`]).
pub(crate) enum Next {
    /// This lane entry.
    Lane(LaneEntry),
    /// The queue head.
    Queue,
    /// Nothing yet: a lane was re-keyed, peek again.
    Again,
}

/// A node's pending node-local slice boundary (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct LazyNode {
    /// The pending boundary: its time and tie slot. The slot is exact
    /// while `replayed` is empty; otherwise it is the queue's tie slot
    /// when the replay armed it, and [`DispatchEngine::resolve`] replaces
    /// it with the exact one.
    next: Option<LaneKey>,
    /// Exact tie slot of the first boundary in `replayed`.
    anchor: u64,
    /// Key of the event that armed the first pending boundary: the first
    /// of `replayed`, or `next` while `replayed` is empty.
    armer: LaneKey,
    /// How `armer` sorts against a global event at its key.
    via: Via,
    /// Arm id of the node's boundaries: a fresh, increasing id each time
    /// a global handler arms one (a replay keeps it).
    id: u64,
    /// For a stage job's chain: the ids of the stage chains pending when
    /// it was armed whose links fall on the same µs as its own, each with
    /// whether that chain's links fire first (see
    /// [`DispatchEngine::place_chain`]).
    follows: Vec<(u64, bool)>,
    /// A stage job's chain completion, once its exact key is known: its
    /// tie slot and the key of the penultimate link that armed it.
    exact: Option<(u64, (LaneKey, Via))>,
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
    /// Per-node chain metadata: when a node runs a *lone* job (empty
    /// ready queue) spanning several quanta, every intermediate
    /// per-quantum `Dispatch` is a state no-op — it serves one quantum,
    /// requeues into an empty queue, picks the same job back, and
    /// schedules the next slice. `Some` here marks the node-local
    /// boundary as a chain link rather than a plain slice end.
    /// Meaningful only while that boundary is pending: every arm sets it.
    pub chains: Vec<Option<DispatchChain>>,
    /// Per-node pending boundary. Sized by [`Self::start_run`].
    lazy: Vec<LazyNode>,
    /// Nodes whose `lazy` boundary is pending. While it is non-zero the
    /// run loop logs every global event it fires.
    pub lazy_nodes: usize,
    /// Nodes whose stage job's chain completion is armed on their lane.
    chain_lanes: usize,
    /// Per node: the key and [`Rank`] of its materialized `Dispatch`, a
    /// heap event keyed by a tie slot, while it is pending.
    materialized: Vec<Option<(LaneKey, Rank)>>,
    /// Global arms of a node-local boundary so far (see [`LazyNode::id`]).
    arms: u64,
    /// The one switch between the two paths: true runs background polls
    /// on virtual lanes and chain links and background-only slice
    /// boundaries node-locally; false (only
    /// [`crate::cluster::Cluster::reference`], the equivalence oracle)
    /// runs them all as heap events. Every engine reads this field, never
    /// a config.
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
            chain_lanes: 0,
            materialized: vec![None; n_nodes],
            arms: 0,
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

    /// Moves a node's pending node-local boundary onto the event queue as
    /// a real `Dispatch` in its exact tie-break slot, truncating a chain
    /// at its pending link (and disarming a stage job's completion): a
    /// second job arrived, so from here on round-robin interleaving and
    /// the node's scheduling are observable and run on real events,
    /// exactly as without elision.
    pub fn materialize(&mut self, k: &mut SimKernel, node: NodeId) {
        let i = node.index();
        if self.lazy[i].next.is_none() {
            return;
        }
        let seq = self.resolve(k, i);
        let rank = self.rank(i, (self.lazy[i].armer, self.lazy[i].via));
        let (at, _) = self.drop_lazy(k, i).expect("a pending boundary");
        self.materialized[i] = Some(((at, seq), rank));
        let h = k.queue.schedule_at_seq(at, seq, Ev::Dispatch { node });
        let r = self.running_mut(node);
        r.slice_end = at;
        r.dispatch_handle = Some(h);
    }

    /// Discards node `i`'s node-local boundary state, its chain
    /// completion's lane and its materialized rank (materialized,
    /// completed, or the node died), returning the pending key.
    pub fn drop_lazy(&mut self, k: &mut SimKernel, i: usize) -> Option<LaneKey> {
        if k.lanes.disarm(LaneRef::Dispatch(i as u32)).is_some() {
            self.chain_lanes -= 1;
        }
        self.materialized[i] = None;
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
            {
                k.ties.push((k.handling, first));
                if k.lanes.key(LaneRef::Dispatch(i as u32)).is_some() {
                    k.ties.push(("stage_link", first));
                }
            }
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
                debug_assert!(k.lanes.key(LaneRef::Dispatch(i as u32)).is_none(), "completion replayed");
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
    /// its new anchor (with the last replayed boundary as its armer).
    fn resolve(&mut self, k: &SimKernel, i: usize) -> u64 {
        let (slot, armer) = self.slot_after(k, i, 0);
        let lz = &mut self.lazy[i];
        lz.replayed.clear();
        lz.next = lz.next.map(|(at, _)| (at, slot));
        (lz.armer, lz.via) = armer;
        slot
    }

    /// The exact tie slot of the boundary `links` chain links after node
    /// `i`'s pending one (`0`: the pending one itself), and its armer.
    /// Nothing is replayed.
    fn slot_after(&self, k: &SimKernel, i: usize, links: u64) -> (u64, (LaneKey, Via)) {
        let (q, lz) = (self.nodes[i].sched.quantum().unwrap_or(SimDuration::ZERO), &self.lazy[i]);
        let (at, seq) = lz.next.expect("a pending boundary");
        if lz.replayed.is_empty() && links == 0 {
            return (seq, (lz.armer, lz.via));
        }
        let anchor = if lz.replayed.is_empty() { seq } else { lz.anchor };
        let (slot, armer) = walk(k, q, anchor, &lz.replayed, (links > 0).then_some((at, links)));
        (slot, (armer, Via::After))
    }

    /// The exact key of node `i`'s stage-job chain completion: its tie
    /// slot, and the key of the penultimate link that armed it.
    fn exact_completion(&mut self, k: &SimKernel, i: usize) -> (u64, (LaneKey, Via)) {
        if let Some(exact) = self.lazy[i].exact {
            return exact;
        }
        let c = self.chains[i].expect("a chain");
        let (at, _) = self.lazy[i].next.expect("a pending boundary");
        let links = c.completion.since(at).as_micros().div_ceil(c.quantum.as_micros());
        let exact = self.slot_after(k, i, links);
        self.lazy[i].exact = Some(exact);
        exact
    }

    /// The [`Rank`] of node `i`'s pending event, armed by `armer`.
    fn rank(&self, i: usize, (armer, via): (LaneKey, Via)) -> Rank {
        Rank { armer, via, node: i, id: self.lazy[i].id }
    }

    /// True if the event ranked `a` fires before the one ranked `b`, both
    /// keyed by the same tie slot. Armers with different keys fired in
    /// key order. Armers that share a key too belong to two nodes whose
    /// boundaries fell on the same µs in the same gap between seq
    /// allocations; the eager run keeps such nodes in the order they had
    /// when they fell into step, and for two stage jobs' chains the later
    /// one recorded that order as it was armed. Otherwise they are taken
    /// in arm order.
    fn precedes(&self, a: Rank, b: Rank) -> bool {
        if (a.armer, a.via) != (b.armer, b.via) {
            return (a.armer, a.via) < (b.armer, b.via);
        }
        let (early, late) = if a.id < b.id { (a, b) } else { (b, a) };
        let verdict = self.lazy[late.node].follows.iter().find(|&&(id, _)| id == early.id);
        verdict.is_none_or(|&(_, first)| first) == (early.id == a.id)
    }

    /// Called by the run loop when node `i`'s chain completion `e` heads
    /// the lanes and sorts no later than `queue_key`. Against an event at
    /// its own µs — the queue head or another lane — the completion needs
    /// its exact key: if that moved, it is re-armed there and the loop
    /// peeks again. Completions sharing the exact key, and a materialized
    /// boundary at the queue head that shares it too, are ordered by
    /// [`Rank`].
    #[inline]
    pub fn contend(&mut self, k: &mut SimKernel, e: LaneEntry, queue_key: Option<LaneKey>) -> Next {
        let same_us = |key: Option<LaneKey>| key.is_some_and(|(at, _)| at == e.at);
        if !same_us(queue_key) && !same_us(k.lanes.runner_up()) {
            return Next::Lane(e);
        }
        self.contend_at(k, e, queue_key)
    }

    /// [`Self::contend`] against an event at the completion's µs.
    #[cold]
    #[inline(never)]
    fn contend_at(&mut self, k: &mut SimKernel, e: LaneEntry, queue_key: Option<LaneKey>) -> Next {
        let LaneRef::Dispatch(i) = e.lane else { return Next::Lane(e) };
        let i = i as usize;
        let runner = k.lanes.runner_up();
        let (seq, armer) = self.exact_completion(k, i);
        #[cfg(test)]
        self.tally_contention(k, i, e.at, seq, queue_key);
        if seq != e.seq {
            k.lanes.arm(e.lane, e.at, seq);
            return Next::Again;
        }
        let key = Some((e.at, seq));
        let (mut best, mut best_rank) = (e.lane, self.rank(i, armer));
        for j in (0..self.nodes.len()).filter(|&j| j != i && runner == key) {
            let lane = LaneRef::Dispatch(j as u32);
            if k.lanes.key(lane) != key {
                continue;
            }
            let (s, armer) = self.exact_completion(k, j);
            if s != seq {
                k.lanes.arm(lane, e.at, s);
                return Next::Again;
            }
            if self.precedes(self.rank(j, armer), best_rank) {
                (best, best_rank) = (lane, self.rank(j, armer));
            }
        }
        if queue_key == key {
            let heap = self.materialized.iter().flatten().find(|&&(k, _)| Some(k) == key);
            if heap.is_none_or(|&(_, rank)| self.precedes(rank, best_rank)) {
                return Next::Queue;
            }
        }
        Next::Lane(LaneEntry { lane: best, ..e })
    }

    /// Fires node `i`'s stage-job chain completion `e` off the node-local
    /// state: its links before `e.at` are counted and the chain is
    /// dropped. Returns the seq the completion is logged with: exact if
    /// another node holds a node-local boundary at its µs, which is then
    /// ordered against it ([`Self::order_at`]).
    pub fn fire_completion(&mut self, k: &mut SimKernel, i: usize, e: LaneEntry) -> u64 {
        let mut seq = e.seq;
        if self.lazy_nodes > 1 && self.any_boundary_at(k, i, e.at) {
            let (exact, armer) = self.exact_completion(k, i);
            seq = exact;
            self.order_at(k, i, e.at, seq, self.rank(i, armer));
        }
        self.replay_before(k, i, e.at);
        self.drop_lazy(k, i);
        seq
    }

    /// A heap `Dispatch` of node `i` at `(t, seq)` was popped. If it is a
    /// materialized boundary, keyed by a tie slot, the lowest-[`Rank`]ed
    /// of the materialized boundaries sharing its key fires first: the
    /// popped event is handed to that node and its pending one to node
    /// `i`. Node-local boundaries at its key are then ordered against it
    /// ([`Self::order_at`]). Returns the node to dispatch.
    #[inline]
    pub fn fire_heap_dispatch(&mut self, k: &mut SimKernel, i: usize, key: LaneKey) -> NodeId {
        match self.materialized[i] {
            None => NodeId(i as u32),
            Some((pending, rank)) => {
                debug_assert_eq!(pending, key, "a materialized dispatch fires at its key");
                self.fire_materialized(k, i, key, rank)
            }
        }
    }

    #[cold]
    #[inline(never)]
    fn fire_materialized(&mut self, k: &mut SimKernel, i: usize, key: LaneKey, mut rank: Rank) -> NodeId {
        let (t, seq) = key;
        let mut w = i;
        for (m, pending) in self.materialized.iter().enumerate() {
            if let Some((_, r)) = pending.filter(|&(km, r)| m != i && km == key && self.precedes(r, rank)) {
                (w, rank) = (m, r);
            }
        }
        if w != i {
            let h = self.nodes[w].running.as_mut().and_then(|r| r.dispatch_handle.take());
            let h = h.expect("a materialized dispatch is pending");
            k.queue.replace(h, Ev::Dispatch { node: NodeId(i as u32) });
            self.running_mut(NodeId(i as u32)).dispatch_handle = Some(h);
        }
        self.materialized[w] = None;
        if self.lazy_nodes > 0 && self.any_boundary_at(k, w, t) {
            self.order_at(k, w, t, seq, rank);
        }
        NodeId(w as u32)
    }

    /// True if a node other than `i` holds a node-local boundary at `t`.
    fn any_boundary_at(&mut self, k: &mut SimKernel, i: usize, t: SimTime) -> bool {
        let mut any = false;
        for j in 0..self.lazy.len() {
            any |= j != i && self.boundary_at(k, j, t);
        }
        any
    }

    /// Node `i`'s event keyed `(t, seq)` by a tie slot, of rank `rank`, is
    /// about to fire and be logged. Each other node's boundary at `t`
    /// that precedes it in eager order — a lower tie slot, or the same one
    /// with a lower rank — is replayed now and its successor's slot
    /// pinned. Every boundary left at its key follows it, which is how
    /// [`crate::kernel::FireLog::tie_after`] counts it.
    fn order_at(&mut self, k: &mut SimKernel, i: usize, t: SimTime, seq: u64, rank: Rank) {
        for j in 0..self.lazy.len() {
            if j == i || !self.boundary_at(k, j, t) {
                continue;
            }
            self.replay_before(k, j, t);
            let slot = self.resolve(k, j);
            let mine = self.rank(j, (self.lazy[j].armer, self.lazy[j].via));
            let first = slot < seq || (slot == seq && self.precedes(mine, rank));
            #[cfg(test)]
            k.ties.push(("gap_event_vs_boundary", !first));
            if first {
                self.replay(k, j, t + SimDuration::from_micros(1));
                if self.lazy[j].next.is_some() {
                    self.resolve(k, j);
                    self.lazy[j].via = Via::Before;
                }
            }
        }
    }

    /// True if node `j` holds a node-local boundary at `t`, the µs of an
    /// event keyed by a tie slot about to fire. A chain's links are found
    /// in closed form; a background-only node is replayed up to `t`.
    fn boundary_at(&mut self, k: &mut SimKernel, j: usize, t: SimTime) -> bool {
        let Some((at, _)) = self.lazy[j].next else { return false };
        if at > t {
            return false;
        }
        match self.chains[j] {
            Some(c) if t < c.completion => t.since(at).as_micros().is_multiple_of(c.quantum.as_micros()),
            // Another stage job's completion at `t`: ranked on the lanes.
            Some(_) if k.lanes.key(LaneRef::Dispatch(j as u32)).is_some() => false,
            _ => {
                self.replay_before(k, j, t);
                self.lazy[j].next.is_some_and(|(at, _)| at == t)
            }
        }
    }

    /// Test-only tally of a chain completion's same-µs contenders.
    #[cfg(test)]
    fn tally_contention(&self, k: &mut SimKernel, i: usize, t: SimTime, seq: u64, queue_key: Option<LaneKey>) {
        if let Some((_, q)) = queue_key.filter(|&(at, _)| at == t) {
            k.ties.push(("completion_vs_heap", seq < q));
        }
        for (lane, (at, s)) in k.lanes.live() {
            match lane {
                LaneRef::BgPoll(_) if at == t => k.ties.push(("completion_vs_poll", seq < s)),
                LaneRef::Dispatch(j) if at == t && j as usize != i => {
                    k.ties.push(("completion_vs_completion", seq <= s));
                }
                _ => {}
            }
        }
    }

    /// A `Sample` at `now` observes every node's busy time: replay each
    /// background-only node strictly before `now` (a boundary at `now`
    /// leaves `busy_total(now)` unchanged on either side), then compact
    /// the fire log, which is never consulted before `now` again. A chain
    /// that completes at or after `now` keeps its node busy throughout, so
    /// it needs no replay; with only stage jobs' chains pending the
    /// sample does nothing here, and the log is compacted when it is about
    /// to grow.
    pub fn settle(&mut self, k: &mut SimKernel, now: SimTime) {
        if self.lazy_nodes == self.chain_lanes {
            return;
        }
        for i in 0..self.lazy.len() {
            if self.chains[i].is_some_and(|c| c.completion >= now) {
                continue;
            }
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
    /// pending boundary's time. A chain's links cost nothing to replay, so
    /// they are first brought up to the event being handled; a long
    /// chain then holds no history back. The run loop also calls this
    /// when the log is about to grow, so it holds the events since the
    /// stalest pending boundary rather than a whole sample interval's.
    pub fn compact_log(&mut self, k: &mut SimKernel) {
        let mut cut = None;
        for i in 0..self.lazy.len() {
            let link = |c: &DispatchChain| self.lazy[i].next.is_some_and(|(at, _)| at < c.completion);
            if let Some(c) = self.chains[i].filter(link) {
                self.replay_before(k, i, k.event.0.min(c.completion));
            }
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
    /// chain (lone multi-quantum job, fast path) or the node-local
    /// boundary of a background-only node.
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
            // same job back, so the whole run is carried as a chain. Its
            // first link sorts where its dispatch would be scheduled,
            // right here.
            Some(q) if lone && remaining > q && self.bg_ff => {
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

    /// Arms `node`'s next boundary at `at`, a chain link or a plain slice
    /// end, node-locally with the current tie slot. A stage job's chain
    /// also arms its completion on the node's lane, keyed provisionally by
    /// the same tie slot (see [`Self::contend`]).
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
        let tie = k.queue.tie_seq();
        let lz = &mut self.lazy[i];
        if lz.replayed.is_empty() {
            // Armed by the global event being handled; a replay arms with
            // its own boundary already in the replayed list.
            (lz.armer, lz.via) = (k.event, Via::Global);
            self.arms += 1;
            lz.id = self.arms;
            lz.follows.clear();
        }
        if lz.next.replace((at, tie)).is_none() {
            self.lazy_nodes += 1;
            if lz.replayed.capacity() == 0 {
                lz.replayed.reserve_exact(REPLAYED_MAX);
            }
        }
        if let Some(c) = chain.filter(|_| !self.bg_only(i)) {
            k.lanes.arm(LaneRef::Dispatch(i as u32), c.completion, tie);
            self.lazy[i].exact = None;
            self.chain_lanes += 1;
            if self.chain_lanes > 1 {
                self.place_chain(k, i, at - c.quantum);
            }
        }
    }

    /// Node `i`'s stage job's chain was just armed at `s` by the event
    /// being handled. Every pending stage chain with a link at `s` has
    /// links on the same µs as this one from here on, and the eager run
    /// fires the two at each such µs in one fixed order: the other's
    /// first iff its link at `s` fired before the arming event. That is
    /// recorded now, while the other's slot at `s` can still be walked.
    fn place_chain(&mut self, k: &SimKernel, i: usize, s: SimTime) {
        let q = self.chains[i].expect("a chain").quantum;
        for j in 0..self.nodes.len() {
            if j == i || k.lanes.key(LaneRef::Dispatch(j as u32)).is_none() {
                continue;
            }
            let (Some(c), Some(r)) = (self.chains[j], self.nodes[j].running.as_ref()) else { continue };
            let start = r.slice_start;
            if start >= s {
                continue;
            }
            if s.since(start).as_micros().is_multiple_of(q.as_micros()) && s < c.completion {
                let first = self.slot_at(k, j, s) < k.event.1;
                let id = self.lazy[j].id;
                self.lazy[i].follows.push((id, first));
            }
        }
    }

    /// The tie slot of stage chain `j`'s link at `s` (not before its
    /// pending one), or 0 if it was replayed already (it fired first).
    fn slot_at(&self, k: &SimKernel, j: usize, s: SimTime) -> u64 {
        let (at, _) = self.lazy[j].next.expect("a pending boundary");
        let q = self.chains[j].expect("a chain").quantum;
        if at > s { 0 } else { self.slot_after(k, j, s.since(at).as_micros() / q.as_micros()).0 }
    }
}

/// The tie-slot walk behind [`DispatchEngine::resolve`]: `runs`, then
/// `extra` (a chain's links not yet replayed), are boundaries in eager
/// order, each run `(t0, n)` being `n` boundaries `q` apart, the first
/// with tie slot `anchor`. Each armed its successor at the tie slot
/// current just before the first global event after it
/// ([`crate::kernel::FireLog::tie_after`]); that depends on the
/// boundary's own slot only if some global event fired at the same µs, so
/// the walk starts after the last such untied boundary short of the last
/// one. Returns the slot the last boundary arms, and its key.
fn walk(
    k: &SimKernel,
    q: SimDuration,
    anchor: u64,
    runs: &[(SimTime, u64)],
    extra: Option<(SimTime, u64)>,
) -> (u64, LaneKey) {
    let count = runs.len() + extra.is_some() as usize;
    let run = |r: usize| runs.get(r).copied().or(extra).expect("a run");
    let (log, current) = (&k.fired, k.queue.tie_seq());
    let mut start = None;
    'search: for r in (0..count).rev() {
        let (t0, n) = run(r);
        for j in (0..n - (r + 1 == count) as u64).rev() {
            let at = t0 + q * j;
            let i = log.seek(at);
            if !log.fired_at(i, at) {
                let next = if j + 1 < n { (r, j + 1) } else { (r + 1, 0) };
                start = Some((next, i, log.tie_at(i, current)));
                break 'search;
            }
        }
    }
    let ((mut r, mut j), mut i, mut seq) = start.unwrap_or_else(|| ((0, 0), log.seek(run(0).0), anchor));
    loop {
        let (t0, n) = run(r);
        let at = t0 + q * j;
        let next = log.tie_after(&mut i, at, seq, current);
        if r + 1 == count && j + 1 == n {
            return (next, (at, seq));
        }
        seq = next;
        (r, j) = if j + 1 < n { (r, j + 1) } else { (r + 1, 0) };
    }
}
