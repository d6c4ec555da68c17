//! # rtds — predictive adaptive resource management for periodic tasks
//!
//! A full reproduction of Ravindran & Hegazy, *"A Predictive Algorithm for
//! Adaptive Resource Management of Periodic Tasks in Asynchronous
//! Real-Time Distributed Systems"* (IPPS 2001), as a Rust workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event simulator of the paper's execution environment (nodes, round-robin CPUs, shared Ethernet, clocks, replicable pipeline tasks) |
//! | [`regression`] | least-squares substrate: the Eq. (3) bivariate latency model, the Eq. (5) buffer-delay fit, goodness-of-fit statistics |
//! | [`dynbench`] | the synthetic DynBench/AAW benchmark application and its profiling campaign |
//! | [`arm`] | the paper's contribution: EQF deadline assignment, slack monitoring, the predictive (Fig. 5) and non-predictive (Fig. 7) algorithms, the Fig. 6 shutdown rule, the combined metric |
//! | [`workloads`] | the Fig. 8 workload patterns plus extensions |
//! | [`experiments`] | runners that regenerate every table and figure of the evaluation section |
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system inventory
//! and substitutions, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use rtds::prelude::*;
//!
//! // The paper's Table 1 system with the AAW task under a triangular
//! // workload, managed by the predictive algorithm.
//! let mut scenario = ScenarioConfig::paper(
//!     PatternSpec::Triangular { half_period: 10 },
//!     PolicySpec::Predictive,
//!     8_000, // max workload, tracks/period
//! );
//! scenario.n_periods = 30;
//! let predictor = rtds::experiments::models::quick_predictor();
//! let result = run_scenario(&scenario, &predictor);
//! assert!(result.summary.missed_deadline_pct < 100.0);
//! ```

pub use rtds_arm as arm;
pub use rtds_dynbench as dynbench;
pub use rtds_experiments as experiments;
pub use rtds_regression as regression;
pub use rtds_sim as sim;
pub use rtds_workloads as workloads;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use rtds_arm::prelude::*;
    pub use rtds_dynbench::{aaw_task, ProfileData};
    pub use rtds_experiments::{
        run_scenario, CrashFault, FaultPlan, PatternSpec, PolicySpec, ScenarioConfig,
        ScenarioResult,
    };
    pub use rtds_regression::{
        BufferDelayModel, CommDelayModel, ExecLatencyModel, LatencySample,
    };
    pub use rtds_sim::prelude::*;
    pub use rtds_workloads::{Pattern, WorkloadRange};
}
