//! # rtds-regression — statistical regression substrate
//!
//! The regression machinery behind the predictive resource-management
//! algorithm of Ravindran & Hegazy (IPPS 2001):
//!
//! * [`matrix`] — small dense matrices, Gaussian elimination, Householder
//!   QR least squares;
//! * [`linear`] — simple (incl. through-origin) and multiple linear
//!   regression;
//! * [`polyfit`] — polynomial least squares, including the through-origin
//!   quadratic used per utilization level;
//! * [`model`] — the paper's Eq. (3) bivariate execution-latency model,
//!   with both the paper's two-stage fitting procedure and a direct
//!   six-parameter fit;
//! * [`buffer`] — the Eq. (4)–(6) communication-delay model (linear buffer
//!   delay plus deterministic transmission delay);
//! * [`incremental`] — recursive least squares with exponential
//!   forgetting: rank-1 Sherman–Morrison updates of the inverse normal
//!   matrix, O(K²) per observation instead of an O(window · K²) refit;
//! * [`stats`] — goodness-of-fit statistics (R², RMSE, MAE, residuals).
//!
//! Everything is `f64`, allocation-light, and dependency-free beyond
//! `serde` for persistence of fitted models.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod incremental;
pub mod linear;
pub mod matrix;
pub mod model;
pub mod polyfit;
pub mod stats;
pub mod validate;

pub use buffer::{BufferDelayModel, BufferDelaySample, CommDelayModel};
pub use incremental::RecursiveLeastSquares;
pub use linear::{MultipleLinear, SimpleLinear};
pub use matrix::{Matrix, SolveError};
pub use model::{ExecLatencyModel, LatencySample};
pub use polyfit::Polynomial;
pub use stats::{fit_stats, mean, residuals, FitStats};
pub use validate::{cross_validate, CrossValidation, FitMethod, PredictionBand};
