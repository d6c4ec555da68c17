//! # rtds-sim — asynchronous real-time distributed-system simulator
//!
//! Deterministic discrete-event simulation of the execution environment in
//! Ravindran & Hegazy, *"A Predictive Algorithm for Adaptive Resource
//! Management of Periodic Tasks in Asynchronous Real-Time Distributed
//! Systems"* (IPPS 2001), §3:
//!
//! * homogeneous processor nodes with private memory, each running a CPU
//!   scheduler (round-robin with a 1 ms slice in the paper's Table 1);
//! * a shared 100 Mbps Ethernet segment carrying all inter-subtask
//!   messages, with FIFO queueing (the paper's buffer delay) and
//!   bandwidth-limited transmission (the paper's transmission delay);
//! * a global time base: every observation carries global simulated time,
//!   and the configured Mills-style clock skew ([`clock::ClockConfig`])
//!   only draws from the kernel RNG stream;
//! * periodic pipeline tasks `T = [st1, m1, …, stn, mn]` whose subtasks can
//!   be **replicated** at run time to split the data stream;
//! * background load generators that create the "internal load situations"
//!   the paper profiles against;
//! * a [`control::Controller`] hook through which a resource-management
//!   policy observes timeliness and re-places replicas — the plug point for
//!   the predictive and non-predictive algorithms in `rtds-arm`.
//!
//! The simulator is policy-free: it knows nothing about regression or
//! prediction. Everything observable (latencies, utilizations, deadline
//! outcomes) is surfaced through [`metrics::RunMetrics`] and the controller
//! interface.
//!
//! ## Example
//!
//! ```
//! use rtds_sim::prelude::*;
//!
//! let mut config = ClusterConfig::paper_baseline(7, SimDuration::from_secs(5));
//! config.clock = ClockConfig::perfect();
//! let mut cluster = Cluster::new(config);
//! cluster.add_task(
//!     TaskSpec {
//!         id: TaskId(0),
//!         name: "sensor-pipeline".into(),
//!         period: SimDuration::from_secs(1),
//!         deadline: SimDuration::from_millis(990),
//!         track_bytes: 80,
//!         stages: vec![StageSpec {
//!             name: "filter".into(),
//!             cost: PolynomialCost::new(0.01, 1.0, 0.5),
//!             replicable: true,
//!             home: NodeId(0),
//!             output_bytes_per_track: 80.0,
//!         }],
//!     },
//!     Box::new(|_period| 500),
//! );
//! let outcome = cluster.run();
//! assert!(outcome.metrics.periods.iter().take(4).all(|p| p.missed == Some(false)));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod cluster;
pub mod control;
mod engine;
pub mod event;
pub mod ids;
pub mod job;
mod kernel;
mod kheap;
mod lane;
pub mod load;
pub mod metrics;
pub mod net;
pub mod node;
pub mod perf;
pub mod pipeline;
pub mod rng;
pub mod sched;
pub mod sink;
mod slab;
pub mod time;
pub mod trace;

/// One-stop imports for typical users of the simulator.
pub mod prelude {
    pub use crate::clock::ClockConfig;
    pub use crate::cluster::{Cluster, ClusterApi, ClusterConfig, RunOutcome, WorkloadFn};
    pub use crate::control::{
        ControlAction, ControlContext, Controller, NullController, PeriodObservation,
        StageObservation,
    };
    pub use crate::ids::{JobId, LoadGenId, MsgId, NodeId, StageId, SubtaskIdx, TaskId};
    pub use crate::load::{LoadGenerator, PeriodicLoad, PoissonLoad};
    pub use crate::metrics::{
        ForecastResidualStat, PeriodRecord, ResidualKind, RunMetrics, RunSummary,
    };
    pub use crate::net::{BusConfig, SharedBus};
    pub use crate::perf::PerfReport;
    pub use crate::pipeline::{PolynomialCost, StageSpec, TaskSpec};
    pub use crate::rng::SimRng;
    pub use crate::sched::SchedulerKind;
    pub use crate::sink::BoundedSink;
    pub use crate::trace::TraceEvent;
    pub use crate::time::{SimDuration, SimTime};
}
