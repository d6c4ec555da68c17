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
//! Everything here is `pub(crate)`: the kernel is an internal seam, not
//! public API. The public surface is the `ClusterApi` trait.

use crate::clock::ClockModel;
use crate::cluster::ClusterConfig;
use crate::event::EventQueue;
use crate::ids::{MsgId, NodeId, TaskId};
use crate::lane::Lanes;
use crate::metrics::RunMetrics;
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
    /// The virtual lanes: each node's next `Dispatch` and each
    /// generator's next `BgPoll`, off the event queue.
    pub lanes: Lanes,
    /// Optional structured trace.
    pub trace: Option<BoundedSink<TraceEvent>>,
    /// Instrumentation, present only when `enable_perf` was called. The
    /// hot loop pays a single branch per event when this is `None`.
    pub perf: Option<Box<PerfState>>,
    /// Everything measured.
    pub metrics: RunMetrics,
    /// Reusable hot-path buffers.
    pub scratch: Scratch,
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
            trace: None,
            perf: None,
            metrics: RunMetrics::default(),
            scratch: Scratch::default(),
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
