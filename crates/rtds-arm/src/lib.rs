//! # rtds-arm — predictive adaptive resource management
//!
//! The primary contribution of Ravindran & Hegazy, *"A Predictive
//! Algorithm for Adaptive Resource Management of Periodic Tasks in
//! Asynchronous Real-Time Distributed Systems"* (IPPS 2001):
//!
//! * [`eqf`] — subtask/message deadline assignment from end-to-end
//!   deadlines (Eqs. 1–2, EQF variant of Kao & Garcia-Molina);
//! * [`predictor`] — the timeliness forecaster combining the Eq. (3)
//!   execution-latency regression with the Eq. (4)–(6) communication-delay
//!   model;
//! * [`monitor`] — run-time slack monitoring and candidate selection
//!   (§4.1), shared by both algorithms;
//! * [`predictive`] — the predictive `ReplicateSubtask` (Fig. 5);
//! * [`nonpredictive`] — the heuristic baseline (Fig. 7) and the shared
//!   `ShutDownAReplica` rule (Fig. 6);
//! * [`manager`] — the full control loop as a simulator
//!   [`Controller`](rtds_sim::control::Controller), centralized or as
//!   decentralized per-stage agents;
//! * [`audit`] — decision records explaining every replicate / shut-down
//!   / no-op choice, for the observability layer;
//! * [`config`] — Table 1 constants and policy selection;
//! * [`metrics`] — the combined performance metric of §5.2.
//!
//! ## Quick start
//!
//! ```
//! use rtds_arm::prelude::*;
//! use rtds_dynbench::app::aaw_task;
//! use rtds_regression::buffer::{BufferDelayModel, CommDelayModel};
//!
//! let task = aaw_task();
//! let predictor = analytic_predictor(
//!     &task,
//!     CommDelayModel::new(BufferDelayModel::from_slope(0.0005), 100e6),
//! );
//! let manager = ResourceManager::new(ArmConfig::paper_predictive(), predictor);
//! // `manager` plugs into `rtds_sim::Cluster::set_controller`.
//! assert_eq!(rtds_sim::control::Controller::name(&manager), "predictive");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod config;
pub mod eqf;
pub mod manager;
pub mod metrics;
pub mod monitor;
pub mod nonpredictive;
pub mod online;
pub mod predictive;
pub mod predictor;

/// One-stop imports.
pub mod prelude {
    pub use crate::audit::{CandidateForecast, DecisionArm, DecisionRecord};
    pub use crate::config::{ArmConfig, Policy};
    pub use crate::eqf::{assign_deadlines, DeadlineAssignment, EqfVariant};
    pub use crate::manager::{CompositeManager, ManagerStats, ResourceManager};
    pub use crate::metrics::{combined_breakdown, combined_metric, combined_metric_weighted, CombinedBreakdown, MetricWeights};
    pub use crate::monitor::{assess_stage, classify, MonitorConfig, SlackTracker, StageHealth};
    pub use crate::nonpredictive::{replicate_subtask_incremental, replicate_subtask_nonpredictive, shutdown_a_replica};
    pub use crate::online::OnlineRefiner;
    pub use crate::predictive::{replicate_subtask, CandidateStep, ProcessorChoice, ReplicateFailure, ReplicationRequest};
    pub use crate::predictor::{analytic_predictor, Predictor};
}
