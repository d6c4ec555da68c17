//! The simulation kernel: pure mechanics, no domain logic.
//!
//! [`SimKernel`] owns everything a deterministic discrete-event run needs
//! *regardless* of what is being simulated: the `(time, seq)`-ordered
//! [`EventQueue`], the [`ClockModel`], the seeded [`SimRng`] streams, the
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
//! boundaries of background-only nodes (see `crate::engine::dispatch`):
//! the key of the event being handled ([`SimKernel::event`]) and, while
//! any node holds such a boundary, the [`FireLog`] of global events from
//! which a boundary's exact tie slot is recovered on demand.
//!
//! Everything here is `pub(crate)`: the kernel is an internal seam, not
//! public API. The public surface is the `ClusterApi` trait.

use crate::clock::ClockModel;
use crate::cluster::ClusterConfig;
use crate::event::EventQueue;
use crate::ids::{MsgId, NodeId, TaskId};
use crate::kheap::pack;
use crate::lane::{LaneKey, Lanes};
use crate::metrics::RunMetrics;
use crate::perf::PerfState;
use crate::rng::SimRng;
use crate::sink::BoundedSink;
use crate::time::{SimDuration, SimTime};
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
        /// The in-flight message id.
        msg: MsgId,
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
    /// Sender-side retransmit timer for the original message `orig` fired.
    RetxTimeout {
        /// The original message id the timer guards.
        orig: MsgId,
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
    /// Per-node clock-skew model.
    pub clocks: ClockModel,
    /// Master RNG; all stochastic draws flow through here in a fixed
    /// program order (the byte-identity contract).
    pub rng: SimRng,
    /// The virtual lanes: each generator's next `BgPoll` and the quantum
    /// chains of nodes with stage jobs, off the event queue.
    pub lanes: Lanes,
    /// `(time, seq)` of the event being handled.
    pub event: LaneKey,
    /// Global events fired while some node holds a lazy boundary.
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
    /// Every same-µs meeting of a node-local boundary with an observer,
    /// as `(observer, boundary went first)` (tests only).
    #[cfg(test)]
    pub ties: Vec<(&'static str, bool)>,
}

impl SimKernel {
    /// Builds the kernel for a validated config. Seeds the RNG and draws
    /// the clock model from it — the first and only construction-time
    /// draws, in the same order every run.
    pub(crate) fn new(config: ClusterConfig) -> Self {
        let mut rng = SimRng::from_seed_stream(config.seed, 0);
        let clocks = ClockModel::new(config.n_nodes, config.clock, &mut rng);
        SimKernel {
            config,
            queue: EventQueue::with_capacity(1024),
            clocks,
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
/// just before it fired. Tie slots are even, so bit 0 is free: it marks
/// the first link of a chain burst, whose last link is the next entry.
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

    fn tie(&self) -> u64 {
        self.tie & !1
    }

    fn opens_burst(&self) -> bool {
        self.tie & 1 == 1
    }
}

/// The global events fired while some node holds a lazy boundary, in fire
/// order (which is key order), with the tie slot current before each. A lazy
/// boundary's exact tie slot is a function of the boundary that armed it:
/// the tie slot just before the first global event to fire after that
/// boundary's key ([`FireLog::tie_after`]). Kept only while some node
/// holds a lazy boundary, and trimmed to the stalest pending boundary at
/// every `Sample` and whenever it is about to grow.
///
/// A chain burst's links are logged as its first and last link only: link
/// `j` of a burst that starts with tie slot `T` sits at seq `T + 2j − 1`
/// (`j ≥ 1`; each link allocates the next one's seq and nothing else) and
/// fires with tie slot `T + 2j`, the links evenly spaced in between.
#[derive(Debug, Default)]
pub(crate) struct FireLog {
    events: Vec<Fired>,
}

impl FireLog {
    /// True if the next [`Self::push`] could grow the log. The first call
    /// reserves the log's starting room instead, in one go.
    #[inline]
    pub fn would_grow(&mut self) -> bool {
        if self.events.capacity() == 0 {
            self.events.reserve_exact(FIRE_LOG_START);
        }
        self.events.capacity() - self.events.len() < 2
    }

    /// Logs `n` global events, the first fired at `(at, seq)` with tie
    /// slot `tie`: one event, or (`n > 1`) a chain burst whose links are
    /// `step` apart.
    #[inline]
    pub fn push(&mut self, at: SimTime, seq: u64, tie: u64, n: u64, step: SimDuration) {
        if n == 1 {
            return self.events.push(Fired { at, seq, tie });
        }
        let last = n - 1;
        self.events.push(Fired { at, seq, tie: tie | 1 });
        self.events.push(Fired {
            at: at + step * last,
            seq: tie + 2 * last - 1,
            tie: tie + 2 * last,
        });
    }

    /// The tie slot current just before the first logged event after the
    /// key `(at, seq)`, or `current` if none has fired yet.
    pub fn tie_after(&self, at: SimTime, seq: u64, current: u64) -> u64 {
        let key = pack(at, seq);
        let i = self.events.partition_point(|r| r.key() < key);
        if let (Some(first), Some(last)) =
            (i.checked_sub(1).map(|p| self.events[p]), self.events.get(i))
        {
            if first.opens_burst() {
                // `key` falls inside the burst: find its first link after it.
                let t0 = first.tie();
                let step = last.at.since(first.at).as_micros() / ((last.tie - t0) / 2);
                let mut j = (at.since(first.at).as_micros() / step).max(1);
                let t = first.at + SimDuration::from_micros(step * j);
                if t < at || (t == at && t0 + 2 * j - 1 < seq) {
                    j += 1;
                }
                return t0 + 2 * j;
            }
        }
        self.events.get(i).map_or(current, Fired::tie)
    }

    /// True if a logged event fired at exactly `at`: only then does
    /// [`Self::tie_after`] depend on the seq it is given.
    pub fn fired_at(&self, at: SimTime) -> bool {
        let i = self.events.partition_point(|r| r.at <= at);
        let Some(r) = i.checked_sub(1).map(|p| self.events[p]) else {
            return false;
        };
        if r.at == at {
            return true;
        }
        // Inside a burst, `at` may fall on a link between its two entries.
        self.events.get(i).filter(|_| r.opens_burst()).is_some_and(|last| {
            let step = last.at.since(r.at).as_micros() / ((last.tie - r.tie()) / 2);
            at.since(r.at).as_micros().is_multiple_of(step)
        })
    }

    /// Drops every event before `at`, keeping a burst whole.
    pub fn trim_before(&mut self, at: SimTime) {
        let mut i = self.events.partition_point(|r| r.at < at);
        if i.checked_sub(1).is_some_and(|p| self.events[p].opens_burst()) {
            i -= 1;
        }
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
    /// 5 (a chain link at 30 µs) are allocated up front, so A fires with
    /// tie slot 6 and allocates seq 7 (C at 47 µs). B fires with tie slot
    /// 8. The chain bursts four links every 5 µs from 30 µs (seqs 5, 9,
    /// 11, 13; tie slots 8, 10, 12, 14) and stops before C, which fires
    /// with tie slot 16.
    fn log() -> FireLog {
        let mut l = FireLog::default();
        let one = SimDuration::ZERO;
        l.push(t(10), 1, 6, 1, one);
        l.push(t(20), 3, 8, 1, one);
        l.push(t(30), 5, 8, 4, SimDuration::from_micros(5));
        l.push(t(47), 7, 16, 1, one);
        l
    }

    #[test]
    fn tie_after_finds_the_first_later_event() {
        let l = log();
        assert_eq!(l.tie_after(t(5), 0, 99), 6);
        assert_eq!(l.tie_after(t(10), 0, 99), 6, "tie slot 0 precedes A's seq 1");
        assert_eq!(l.tie_after(t(10), 2, 99), 8, "tie slot 2 follows A");
        assert_eq!(l.tie_after(t(25), 2, 99), 8);
        assert_eq!(l.tie_after(t(30), 4, 99), 8, "before link 0 (seq 5)");
        assert_eq!(l.tie_after(t(30), 6, 99), 10, "after link 0: link 1 next");
        assert_eq!(l.tie_after(t(35), 8, 99), 10, "before link 1 (seq 9)");
        assert_eq!(l.tie_after(t(35), 10, 99), 12, "after link 1");
        assert_eq!(l.tie_after(t(44), 12, 99), 14, "link 3 at 45 µs next");
        assert_eq!(l.tie_after(t(45), 12, 99), 14, "before link 3 (seq 13)");
        assert_eq!(l.tie_after(t(45), 14, 99), 16, "after the burst: C");
        assert_eq!(l.tie_after(t(47), 6, 99), 16, "before C (seq 7)");
        assert_eq!(l.tie_after(t(47), 8, 99), 99, "nothing later: the current slot");
    }

    #[test]
    fn fired_at_sees_events_and_burst_links() {
        let l = log();
        let hits: Vec<u64> = (0..60).filter(|&us| l.fired_at(t(us))).collect();
        assert_eq!(hits, vec![10, 20, 30, 35, 40, 45, 47]);
    }

    #[test]
    fn trim_keeps_bursts_that_reach_the_cut() {
        let mut l = log();
        l.trim_before(t(21));
        assert_eq!(l.events.len(), 3, "the burst (two entries) ends at 45");
        l.trim_before(t(36));
        assert_eq!(l.events.len(), 3, "a cut inside the burst keeps it whole");
        assert!(l.fired_at(t(35)));
        assert!(!l.fired_at(t(20)));
        assert!(l.fired_at(t(40)));
        l.trim_before(t(48));
        assert!(l.events.is_empty());
    }
}
