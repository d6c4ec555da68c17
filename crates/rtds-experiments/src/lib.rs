//! # rtds-experiments — the paper's evaluation, regenerated
//!
//! Harness that reproduces every table and figure of the evaluation
//! section of Ravindran & Hegazy (IPPS 2001):
//!
//! * [`models`] — the profiling campaign that fits Eq. (3)/(5) models
//!   against the simulator (plus a fast analytic fallback);
//! * [`scenario`] — assembly of the Table 1 system + workload pattern +
//!   policy into one simulation run;
//! * [`sweep`] — parallel max-workload sweeps (the x-axis of Figs. 9–13);
//! * [`figures`] — one runner per table/figure;
//! * [`export`] — Chrome trace-event and decision-JSONL exporters for
//!   observed runs;
//! * [`report`] — aligned tables, CSV artifacts, ASCII charts;
//! * [`cli`] — flag parsing and the life cycle of the `run_all` binary.
//!
//! The one binary, `run_all` in the root `rtds` package, runs the default
//! set or the named [`figures::REGISTRY`] entries (`tables`, `fig2` …
//! `fig13`, `ablations`, `extensions`, `profile`), accepting `--quick`,
//! `--analytic`, `--out DIR`, `--threads N`, `--extended`, `--perf`,
//! `--trace-out FILE` and `--decisions-out FILE`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod export;
pub mod figures;
pub mod models;
pub mod perfmon;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use figures::{FigureOptions, FigureOutput};
pub use export::{chrome_trace, decisions_jsonl, validate_chrome_trace};
pub use serde_json;
pub use scenario::{
    run_scenario, CrashFault, FaultPlan, PatternSpec, PolicySpec, ScenarioConfig, ScenarioResult,
};
pub use sweep::{run_sweep, SweepConfig, SweepPoint, TRACKS_PER_UNIT};
