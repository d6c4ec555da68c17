//! The simulation kernel: pure mechanics, no domain logic.
//!
//! [`SimKernel`] owns everything a deterministic discrete-event run needs
//! *regardless* of what is being simulated: the `(time, seq)`-ordered
//! [`EventQueue`], the seeded [`SimRng`] streams, the
//! [`Lanes`] carrying the virtual-lane fast path, the optional
//! observability hooks (the event trace, a [`BoundedSink`], and
//! [`PerfState`]), the [`RunMetrics`] accumulator, and the reusable
//! scratch buffers of the hot paths.
//!
//! Domain behavior lives in the engine components
//! (`crate::engine::{DispatchEngine, NetEngine, FaultEngine, LoadEngine,
//! TaskTable}`), each of which mutates its own state and reaches the
//! shared mechanics only through an explicit `&mut SimKernel` parameter.
//! `Cluster` composes kernel + engines and runs the event loop; see
//! `docs/ARCHITECTURE.md` for the ownership map.
//!
//! The kernel also keeps the bookkeeping behind the node-local slice
//! boundaries — every boundary of a background-only node and every
//! intermediate link of a lone job's quantum chain (see
//! `crate::engine::dispatch`): the key of the event being handled
//! ([`SimKernel::event`]) and, while any node holds such a boundary, the
//! [`FireLog`] of global events from which a boundary's exact tie slot is
//! recovered on demand.
//!
//! Everything here is `pub(crate)`: the kernel is an internal seam, not
//! public API. The public surface is the `ClusterApi` trait.

use crate::cluster::ClusterConfig;
use crate::event::EventQueue;
use crate::ids::{NodeId, TaskId};
use crate::kheap::pack;
use crate::lane::{LaneKey, Lanes};
use crate::metrics::RunMetrics;
use crate::net::Slot;
use crate::perf::PerfState;
use crate::rng::SimRng;
use crate::sink::BoundedSink;
use crate::time::SimTime;
use crate::trace::TraceEvent;

/// Events driving the simulation. Owned by the kernel (the queue is typed
/// over it); each variant is handled by the engine that owns its domain.
pub(crate) enum Ev {
    /// A new period of a task begins (data arrival).
    PeriodRelease {
        /// Task being released.
        task: TaskId,
        /// Period instance number.
        index: u64,
    },
    /// A node's CPU slice ends.
    Dispatch {
        /// The node whose slice ends.
        node: NodeId,
    },
    /// A background generator produces its next job.
    BgPoll {
        /// Generator index.
        gen: usize,
    },
    /// The message on the wire finishes transmitting.
    TxComplete,
    /// A message reaches its destination.
    Deliver {
        /// The message's slot in the bus.
        msg: Slot,
    },
    /// Clock-synchronization round.
    ClockSync,
    /// Utilization sampling tick.
    Sample,
    /// Fault injection: a node dies permanently.
    NodeFail {
        /// The dying node.
        node: NodeId,
    },
    /// Fault injection: a node crashes (like `NodeFail`, but its in-flight
    /// bus traffic is torn down and it may restart later).
    NodeCrash {
        /// The crashing node.
        node: NodeId,
    },
    /// A crashed node comes back online with cold caches.
    NodeRestart {
        /// The restarting node.
        node: NodeId,
    },
    /// A sender-side retransmit timer fired.
    RetxTimeout {
        /// The retransmit record the timer guards.
        retx: Slot,
    },
}

impl Ev {
    /// Index into [`crate::perf::PHASE_NAMES`] for the perf breakdown.
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            Ev::PeriodRelease { .. } => 0,
            Ev::Dispatch { .. } => 1,
            Ev::BgPoll { .. } => 2,
            Ev::TxComplete => 3,
            Ev::Deliver { .. } => 4,
            Ev::ClockSync => 5,
            Ev::Sample => 6,
            Ev::NodeFail { .. } => 7,
            Ev::NodeCrash { .. } => 8,
            Ev::NodeRestart { .. } => 9,
            Ev::RetxTimeout { .. } => 10,
        }
    }
}

/// Reusable scratch buffers for the hot paths (dispatch fan-out and
/// message fan-out run once per stage per period). Taken with
/// `mem::take` for the duration of a call and restored afterwards so
/// their capacity persists and the steady state allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Replica/source node list.
    pub nodes: Vec<NodeId>,
    /// Destination node list (message fan-out).
    pub nodes2: Vec<NodeId>,
    /// Per-replica track shares.
    pub shares: Vec<u64>,
}

/// The pure simulation substrate shared by every engine component.
pub(crate) struct SimKernel {
    /// Static configuration of the run.
    pub config: ClusterConfig,
    /// The global `(time, seq)`-ordered event queue.
    pub queue: EventQueue<Ev>,
    /// Master RNG; all stochastic draws flow through here in a fixed
    /// program order (the byte-identity contract).
    pub rng: SimRng,
    /// The virtual lanes: each generator's next `BgPoll` and the chain
    /// completion of each node's lone stage job, off the event queue.
    pub lanes: Lanes,
    /// `(time, seq)` of the event being handled.
    pub event: LaneKey,
    /// Global events fired while some node holds a node-local boundary.
    pub fired: FireLog,
    /// Optional structured trace.
    pub trace: Option<BoundedSink<TraceEvent>>,
    /// Instrumentation, present only when `enable_perf` was called. The
    /// hot loop pays a single branch per event when this is `None`.
    pub perf: Option<Box<PerfState>>,
    /// Everything measured.
    pub metrics: RunMetrics,
    /// Reusable hot-path buffers.
    pub scratch: Scratch,
    /// Phase name of the event being handled (tests only).
    #[cfg(test)]
    pub handling: &'static str,
    /// Every same-µs meeting of a node-local boundary or a chain
    /// completion with another event, as `(class, which went first)`
    /// (tests only; see `tie_tests`).
    #[cfg(test)]
    pub ties: Vec<(&'static str, bool)>,
}

impl SimKernel {
    /// Builds the kernel for a validated config. Seeds the RNG and makes
    /// the clock configuration's draws from it — the first and only
    /// construction-time draws, in the same order every run.
    pub(crate) fn new(config: ClusterConfig) -> Self {
        let mut rng = SimRng::from_seed_stream(config.seed, 0);
        config.clock.draw_initial(config.n_nodes, &mut rng);
        SimKernel {
            config,
            queue: EventQueue::with_capacity(1024),
            rng,
            lanes: Lanes::default(),
            event: (SimTime::ZERO, 0),
            fired: FireLog::default(),
            trace: None,
            perf: None,
            metrics: RunMetrics::default(),
            scratch: Scratch::default(),
            #[cfg(test)]
            handling: "",
            #[cfg(test)]
            ties: Vec::new(),
        }
    }

    /// The last simulated instant of the run.
    #[inline]
    pub(crate) fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.config.horizon
    }

    /// Records a trace event if tracing is enabled.
    #[inline]
    pub(crate) fn record_trace(&mut self, now: SimTime, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(now, ev);
        }
    }
}

/// Entries the [`FireLog`] reserves when it is first used.
const FIRE_LOG_START: usize = 1024;

/// One entry of the [`FireLog`]: a global event, with the tie slot current
/// just before it fired.
#[derive(Debug, Clone, Copy)]
struct Fired {
    at: SimTime,
    seq: u64,
    tie: u64,
}

impl Fired {
    fn key(&self) -> u128 {
        pack(self.at, self.seq)
    }
}

/// The global events fired while some node holds a node-local boundary,
/// in fire order (which is key order), with the tie slot current before
/// each. A node-local boundary's exact tie slot is a function of the
/// boundary that armed it: the tie slot just before the first global
/// event to fire after that boundary's key ([`FireLog::tie_after`]). Kept
/// only while some node holds such a boundary, and trimmed to the
/// stalest pending boundary whenever it is about to grow (and at a
/// `Sample` of background-only nodes).
#[derive(Debug, Default)]
pub(crate) struct FireLog {
    events: Vec<Fired>,
}

impl FireLog {
    /// True if the next [`Self::push`] would grow the log. The first call
    /// reserves the log's starting room instead, in one go.
    #[inline]
    pub fn would_grow(&mut self) -> bool {
        if self.events.capacity() == 0 {
            self.events.reserve_exact(FIRE_LOG_START);
        }
        self.events.len() == self.events.capacity()
    }

    /// Logs a global event fired at `(at, seq)` with tie slot `tie`.
    #[inline]
    pub fn push(&mut self, at: SimTime, seq: u64, tie: u64) {
        self.events.push(Fired { at, seq, tie });
    }

    /// The index of the first logged event at or after `at`. Most lookups
    /// are for boundaries just before the event being handled, so the
    /// last few entries are probed before a binary search.
    pub fn seek(&self, at: SimTime) -> usize {
        let mut i = self.events.len();
        for _ in 0..8 {
            if i == 0 || self.events[i - 1].at < at {
                return i;
            }
            i -= 1;
        }
        self.events[..i].partition_point(|r| r.at < at)
    }

    /// True if the event at index `i`, from [`Self::seek`]`(at)`, fired
    /// at exactly `at`: only then does [`Self::tie_after`] at `at` depend
    /// on the seq it is given.
    pub fn fired_at(&self, i: usize, at: SimTime) -> bool {
        self.events.get(i).is_some_and(|r| r.at == at)
    }

    /// The tie slot current just before the event at index `i`, or
    /// `current` past the last one.
    pub fn tie_at(&self, i: usize, current: u64) -> u64 {
        self.events.get(i).map_or(current, |r| r.tie)
    }

    /// The tie slot current just before the first logged event after the
    /// node-local boundary keyed `(at, seq)`, or `current` if none has
    /// fired yet. Scans forward from index `*i`, which must not be past
    /// that event, and leaves `*i` on it, so a walk over boundaries in key
    /// order reads the log once. Only an event keyed by a tie slot (a
    /// chain completion or a materialized boundary) can share the
    /// boundary's key; it counts as before the boundary, because every
    /// boundary at its key that precedes it was replayed before it fired
    /// (`DispatchEngine::order_at`).
    pub fn tie_after(&self, i: &mut usize, at: SimTime, seq: u64, current: u64) -> u64 {
        let key = pack(at, seq);
        while self.events.get(*i).is_some_and(|r| r.key() <= key) {
            *i += 1;
        }
        self.tie_at(*i, current)
    }

    /// Drops every event before `at`.
    pub fn trim_before(&mut self, at: SimTime) {
        let i = self.events.partition_point(|r| r.at < at);
        self.events.drain(..i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// The log of this history: seqs 1 (A at 10 µs), 3 (B at 20 µs) and
    /// 5 (C at 30 µs) are allocated up front, so A fires with tie slot 6
    /// and allocates seq 7 (D at 47 µs). B and C fire with tie slot 8. A
    /// chain completion E, keyed by tie slot 8, fires at 47 µs after D,
    /// which allocated nothing.
    fn log() -> FireLog {
        let mut l = FireLog::default();
        l.push(t(10), 1, 6);
        l.push(t(20), 3, 8);
        l.push(t(30), 5, 8);
        l.push(t(47), 7, 8);
        l.push(t(47), 8, 8);
        l
    }

    #[test]
    fn tie_after_finds_the_first_later_event() {
        let l = log();
        let after = |us: u64, seq: u64| l.tie_after(&mut 0, t(us), seq, 99);
        assert_eq!(after(5, 0), 6);
        assert_eq!(after(10, 0), 6, "tie slot 0 precedes A's seq 1");
        assert_eq!(after(10, 2), 8, "tie slot 2 follows A");
        assert_eq!(after(30, 4), 8, "before C (seq 5)");
        assert_eq!(after(30, 6), 8, "after C: D next");
        assert_eq!(after(47, 6), 8, "before D (seq 7)");
        assert_eq!(after(47, 8), 99, "a completion at the same key counts as before");
        assert_eq!(after(48, 0), 99, "nothing later: the current slot");
        // A walk scans forward from where the last lookup stopped.
        let mut i = l.seek(t(20));
        assert_eq!((l.tie_after(&mut i, t(20), 4, 99), i), (8, 2));
        assert_eq!((l.tie_after(&mut i, t(47), 6, 99), i), (8, 3));
    }

    #[test]
    fn fired_at_sees_logged_events_only() {
        let l = log();
        let hits: Vec<u64> = (0..60).filter(|&us| l.fired_at(l.seek(t(us)), t(us))).collect();
        assert_eq!(hits, vec![10, 20, 30, 47]);
        assert_eq!(l.tie_at(l.seek(t(25)), 99), 8, "before C");
    }

    #[test]
    fn trim_drops_events_before_the_cut() {
        let mut l = log();
        l.trim_before(t(21));
        assert_eq!(l.events.len(), 3);
        assert!(!l.fired_at(l.seek(t(20)), t(20)));
        assert!(l.fired_at(l.seek(t(30)), t(30)));
        l.trim_before(t(48));
        assert!(l.events.is_empty());
    }
}
