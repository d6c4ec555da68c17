//! Background load: ambient-load generators and their polls.
//!
//! The [`LoadEngine`] owns the [`LoadGenerator`]s. Each generator's next
//! `BgPoll` runs on its lane ([`LaneRef::BgPoll`], the fast path) or as a
//! real heap event (the reference path, run only by the equivalence
//! oracle `Cluster::reference`); either way it fires through
//! [`LoadEngine::on_bg_poll`], so both paths draw the generator at the
//! same program point with the same RNG stream and are byte-identical by
//! construction. Polls stay in global order because they share that
//! stream. The slice boundaries of a background-only node draw nothing,
//! so they are node-local: a poll's admission first replays its node's
//! boundaries up to the poll (`DispatchEngine::catch_up`).

use crate::engine::dispatch::DispatchEngine;
use crate::engine::tasks::TaskTable;
use crate::ids::NodeId;
use crate::job::JobKind;
use crate::kernel::{Ev, SimKernel};
use crate::lane::LaneRef;
use crate::load::LoadGenerator;
use crate::time::SimTime;

/// Ambient-load state and behavior: the generators and their dormancy.
#[derive(Default)]
pub(crate) struct LoadEngine {
    /// The background load generators.
    pub gens: Vec<Box<dyn LoadGenerator>>,
    /// Per generator: its poll fired while its node was down, so no
    /// further polls are armed until the node restarts.
    pub dormant: Vec<bool>,
}

impl LoadEngine {
    /// A generator's poll fired (from its lane or the heap): draw the
    /// generator, admit the arrival, and arm the next poll if one is due
    /// within the horizon. A poll that finds its node down marks the
    /// generator dormant — no RNG draw, no re-arm — until the fault
    /// engine's restart handler re-arms it, so ambient load survives
    /// crash–restart instead of silently vanishing.
    pub fn on_bg_poll(
        &mut self,
        k: &mut SimKernel,
        dispatch: &mut DispatchEngine,
        tasks: &mut TaskTable,
        now: SimTime,
        gen: usize,
    ) {
        let node = self.gens[gen].node();
        if !dispatch.nodes[node.index()].alive {
            self.dormant[gen] = true;
            return;
        }
        let arrival = self.gens[gen].arrive(now, &mut k.rng);
        // A generator yielding `next_at <= now` would re-poll at the
        // current instant forever and spin the event loop; this is a
        // contract violation by the generator, not a simulation outcome.
        assert!(
            arrival.next_at > now,
            "load generator {gen} scheduled its next arrival at {} <= now {now}; \
             degenerate intervals would spin the event loop",
            arrival.next_at,
        );
        if !arrival.demand.is_zero() {
            let gid = crate::ids::LoadGenId(gen as u32);
            dispatch.admit_job(k, tasks, now, node, JobKind::Background(gid), arrival.demand, 1);
        }
        if arrival.next_at <= k.horizon() {
            self.arm_poll(k, dispatch, arrival.next_at, gen);
        }
    }

    /// Re-arms `node`'s dormant generators at `now` (restart re-arm). A
    /// generator whose poll was still pending at restart (crash shorter
    /// than one interarrival gap) is not dormant and needs nothing — its
    /// poll fires normally. Index order keeps the re-arm deterministic.
    pub fn rearm_dormant(
        &mut self,
        k: &mut SimKernel,
        dispatch: &DispatchEngine,
        now: SimTime,
        node: NodeId,
    ) {
        for g in 0..self.gens.len() {
            if self.gens[g].node() != node || !self.dormant[g] {
                continue;
            }
            self.dormant[g] = false;
            self.arm_poll(k, dispatch, now, g);
        }
    }

    /// Arms generator `gen`'s next poll at `at` on the path
    /// [`DispatchEngine::bg_ff`] selects: a virtual lane whose seq is
    /// allocated exactly where the reference path schedules its `BgPoll`,
    /// so tie-breaking stays bit-identical.
    #[inline]
    pub fn arm_poll(
        &self,
        k: &mut SimKernel,
        dispatch: &DispatchEngine,
        at: SimTime,
        gen: usize,
    ) {
        if dispatch.bg_ff {
            let seq = k.queue.alloc_seq();
            k.lanes.arm(LaneRef::BgPoll(gen as u32), at, seq);
        } else {
            k.queue.schedule(at, Ev::BgPoll { gen });
        }
    }
}
