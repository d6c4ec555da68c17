//! Node scheduling: CPU dispatch, the job slab, and the virtual quantum
//! chains / boundary lanes of the fast path.
//!
//! The [`DispatchEngine`] owns the processor nodes and every live job.
//! It admits work (from stage starts, message deliveries, and background
//! polls), drives slice-boundary dispatches, and carries the elided
//! dispatch state of the fast path: per-node [`DispatchChain`]s for lone
//! jobs and `bg_bounds` for background-only nodes. All `(time, seq)`
//! allocation happens at the exact program points where the reference path
//! would `schedule`, which is what keeps the two modes byte-identical.

use crate::engine::net::NetEngine;
use crate::engine::tasks::TaskTable;
use crate::ids::{JobId, NodeId};
use crate::job::{Job, JobKind};
use crate::kernel::{Ev, SimKernel};
use crate::lane::LaneRef;
use crate::node::{Node, Running};
use crate::sched::SchedulerKind;
use crate::time::{SimDuration, SimTime};

/// The elided continuation of a lone running job (see
/// [`DispatchEngine::chains`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DispatchChain {
    /// Time of the next (elided) quantum-boundary dispatch.
    pub next_at: SimTime,
    /// The sequence number that dispatch would occupy in the event queue.
    pub next_seq: u64,
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
    /// Per-node virtual dispatch chains: when a node runs a *lone* job
    /// (empty ready queue) spanning several quanta, every intermediate
    /// per-quantum `Dispatch` is a state no-op — it serves one quantum,
    /// requeues into an empty queue, picks the same job back, and
    /// schedules the next slice. Those events are elided from the heap;
    /// this chain tracks the `(time, seq)` key the *next* one would have
    /// carried, with the seq allocated at the exact point the real event
    /// would have been scheduled, so same-time tie-breaking is
    /// bit-identical to the unelided execution (see
    /// [`crate::event::EventQueue::alloc_seq`]). An arrival at the node
    /// re-materializes the pending link as a real truncated dispatch.
    pub chains: Vec<Option<DispatchChain>>,
    /// Per-node elided dispatch boundary, used when the fast path is on
    /// and the node runs *only* background jobs: the slice-end `Dispatch`
    /// is carried here (key only, no heap event) and fired as a direct
    /// handler call. A stage admission re-materializes it via
    /// [`crate::event::EventQueue::schedule_at_seq`] in its reserved
    /// tie-break slot. Invariant: a node never has both a chain and a
    /// boundary.
    pub bg_bounds: Vec<Option<(SimTime, u64)>>,
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
            bg_bounds: vec![None; n_nodes],
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
            // longer alone, but its truncated slice boundary can stay
            // virtual — same key, no heap event.
            self.truncate_chain_to_bound(k, node);
        } else {
            // A stage job makes the node externally consequential: any
            // elided boundary or chain link re-materializes as a real
            // event in its reserved tie-break slot.
            self.materialize_bound(k, node);
            self.truncate_chain(k, node);
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

    /// Re-materializes a node's pending elided dispatch as a real event,
    /// in its reserved tie-break position: another job arrived, so
    /// round-robin interleaving must resume at the next quantum boundary
    /// exactly as it would have without elision.
    pub fn truncate_chain(&mut self, k: &mut SimKernel, node: NodeId) {
        if let Some(link) = self.chains[node.index()].take() {
            let h = k
                .queue
                .schedule_at_seq(link.next_at, link.next_seq, Ev::Dispatch { node });
            let r = self.nodes[node.index()]
                .running
                .as_mut()
                .expect("chained node has a running job");
            r.slice_end = link.next_at;
            r.dispatch_handle = Some(h);
        }
    }

    /// Like [`Self::truncate_chain`], but the truncated slice boundary
    /// stays virtual: on a background-only node the dispatch at
    /// `link.next_at` has no external observer, so its `(time, seq)` key
    /// moves from the chain to the boundary lane instead of the heap.
    /// The chain's heap entry goes stale; the key is unchanged, so event
    /// order — and hence every RNG draw and output byte — is too.
    pub fn truncate_chain_to_bound(&mut self, k: &mut SimKernel, node: NodeId) {
        if let Some(link) = self.chains[node.index()].take() {
            self.bg_bounds[node.index()] = Some((link.next_at, link.next_seq));
            k.lanes
                .push(link.next_at, link.next_seq, LaneRef::Bound(node.index() as u32));
            let r = self.nodes[node.index()]
                .running
                .as_mut()
                .expect("chained node has a running job");
            r.slice_end = link.next_at;
            debug_assert!(r.dispatch_handle.is_none(), "chained node had a heap dispatch");
        }
    }

    /// Re-materializes a node's elided background slice boundary as a
    /// real `Dispatch` in its reserved tie-break slot: a stage job was
    /// admitted, so from here on the node's scheduling is externally
    /// observable and runs on real events.
    pub fn materialize_bound(&mut self, k: &mut SimKernel, node: NodeId) {
        if let Some((at, seq)) = self.bg_bounds[node.index()].take() {
            let h = k.queue.schedule_at_seq(at, seq, Ev::Dispatch { node });
            let r = self.nodes[node.index()]
                .running
                .as_mut()
                .expect("bounded node has a running job");
            debug_assert_eq!(r.slice_end, at, "boundary key drifted from the running slice");
            r.dispatch_handle = Some(h);
        }
    }

    /// Fires one elided intermediate dispatch. For the lone job this is a
    /// state no-op (serve one quantum, requeue into an empty queue, pick
    /// itself back), so only its bookkeeping is replayed: the dispatch
    /// that handler would have scheduled takes the next sequence number,
    /// now. The chain's last link — the job's completion, which has real
    /// effects — keeps `next_at == completion` and is fired by the run
    /// loop as a direct handler call, never touching the heap.
    pub fn advance_chain(&mut self, k: &mut SimKernel, i: usize) {
        let link = self.chains[i].expect("chain link exists");
        debug_assert!(link.next_at < link.completion, "final link fired as intermediate");
        k.queue.advance_now(link.next_at);
        let next = (link.next_at + link.quantum).min(link.completion);
        let next_seq = k.queue.alloc_seq();
        self.chains[i] = Some(DispatchChain {
            next_at: next,
            next_seq,
            ..link
        });
        // The fired link's entry is still the heap top (the run loop
        // peeks, it does not pop): rekey it to the next link in place.
        k.lanes
            .rekey_top(link.next_seq, next, next_seq, LaneRef::Chain(i as u32));
        if let Some(p) = k.perf.as_mut() {
            p.report.elided_dispatches += 1;
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
            self.nodes[node.index()].sched.requeue(running.job, prio);
        }
        self.try_dispatch(k, now, node);
    }

    /// Picks and starts the next job on an idle node, arming either a
    /// real slice-boundary `Dispatch`, a virtual chain (lone multi-quantum
    /// job), or a virtual boundary (background-only node, fast path).
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
        // Fast path, background-only node: the coming slice boundary has
        // no external observer, so it is carried on the boundary lane
        // instead of the heap (the chain arm below is already heap-free).
        let bg_only = self.bg_ff && self.stage_jobs[node.index()] == 0;
        let (slice_end, handle) = match quantum {
            // A lone job spanning several quanta: every intermediate
            // dispatch would requeue into an empty queue and pick the
            // same job back, so the whole run is carried on the virtual
            // chain. The first elided dispatch would be scheduled right
            // here; its sequence number is allocated right here.
            Some(q) if lone && remaining > q => {
                let completion = now + remaining;
                let next_at = now + q;
                let next_seq = k.queue.alloc_seq();
                self.chains[node.index()] = Some(DispatchChain {
                    next_at,
                    next_seq,
                    completion,
                    quantum: q,
                });
                k.lanes.push(next_at, next_seq, LaneRef::Chain(node.index() as u32));
                (completion, None)
            }
            Some(q) => {
                let end = now + q.min(remaining);
                if bg_only {
                    (end, self.elide_bound(k, end, node))
                } else {
                    (end, Some(k.queue.schedule(end, Ev::Dispatch { node })))
                }
            }
            None => {
                let end = now + remaining;
                if bg_only {
                    (end, self.elide_bound(k, end, node))
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

    /// Arms the boundary lane for a background-only node's slice end and
    /// returns the (absent) dispatch handle. The seq is allocated at the
    /// exact program point where the reference path would `schedule`, keeping
    /// tie-break order bit-identical.
    #[inline]
    fn elide_bound(
        &mut self,
        k: &mut SimKernel,
        end: SimTime,
        node: NodeId,
    ) -> Option<crate::event::EventHandle> {
        let seq = k.queue.alloc_seq();
        self.bg_bounds[node.index()] = Some((end, seq));
        k.lanes.push(end, seq, LaneRef::Bound(node.index() as u32));
        None
    }
}
