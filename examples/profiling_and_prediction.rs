//! Profiling → regression → prediction, end to end.
//!
//! Reproduces the paper's §4.2.1 pipeline in miniature: profile the Filter
//! subtask's execution latency over a grid of data sizes × CPU
//! utilizations, fit the Eq. (3) bivariate model with the paper's
//! two-stage procedure, then validate the fitted model against fresh
//! *hold-out* measurements at grid points it never saw.
//!
//! Run with: `cargo run --release --example profiling_and_prediction`

use rtds::dynbench::app::filter_cost;
use rtds::dynbench::profile::{profile_execution, ProfileConfig};
use rtds::prelude::*;

fn main() {
    // Training grid.
    let train_cfg = ProfileConfig {
        utilizations_pct: vec![10.0, 30.0, 50.0, 70.0],
        data_sizes: vec![1_000, 3_000, 6_000, 9_000, 13_000],
        periods_per_point: 4,
        warmup_periods: 2,
        seed: 11,
    };
    println!(
        "profiling Filter over {} utilizations x {} data sizes…",
        train_cfg.utilizations_pct.len(),
        train_cfg.data_sizes.len()
    );
    let train = profile_execution(filter_cost(), &train_cfg);

    let model = ExecLatencyModel::fit_two_stage(&train).expect("fit");
    println!(
        "fitted Eq.(3): a = [{:.3e}, {:.3e}, {:.3e}]  b = [{:.3e}, {:.3e}, {:.3e}]",
        model.a[0], model.a[1], model.a[2], model.b[0], model.b[1], model.b[2]
    );
    println!(
        "training fit: R2 = {:.4}, RMSE = {:.2} ms over {} samples",
        model.stats.r2, model.stats.rmse, model.stats.n
    );

    // Hold-out grid: utilizations and sizes *between* the training points.
    let holdout_cfg = ProfileConfig {
        utilizations_pct: vec![20.0, 40.0, 60.0],
        data_sizes: vec![2_000, 7_500, 11_000],
        periods_per_point: 4,
        warmup_periods: 2,
        seed: 13,
    };
    let holdout = profile_execution(filter_cost(), &holdout_cfg);

    println!();
    println!("hold-out validation (points the fit never saw):");
    println!("  util%   tracks   measured-ms   predicted-ms   error%");
    let mut worst: f64 = 0.0;
    for s in &holdout {
        let pred = model.predict(s.d, s.u);
        let err = 100.0 * (pred - s.latency_ms) / s.latency_ms;
        worst = worst.max(err.abs());
        println!(
            "  {:>5.0}  {:>7.0}   {:>11.1}   {:>12.1}   {:>+6.1}",
            s.u,
            s.d * 100.0,
            s.latency_ms,
            pred,
            err
        );
    }
    println!();
    println!("worst hold-out error: {worst:.1} %");
    println!(
        "(the paper's allocator only needs the forecast to rank replica \
         counts correctly, so errors of this size are operationally fine)"
    );
}
