//! Figures 9–13: the evaluation sweeps.
//!
//! Every figure sweeps the maximum workload (scale unit = 500 tracks) and
//! compares the predictive and non-predictive algorithms:
//!
//! * Fig. 9 (a–d) — triangular pattern: missed-deadline %, average CPU
//!   utilization, average network utilization, average subtask replicas;
//! * Fig. 10 — triangular pattern: combined metric;
//! * Fig. 11 / 12 (a–d) — increasing / decreasing ramps, same four
//!   metrics;
//! * Fig. 13 (a, b) — combined metric for both ramps, including the
//!   extended-workload run behind the paper's §5.2 claim that the ranking
//!   fluctuates beyond the threshold workload.

use std::collections::HashMap;
use std::sync::Mutex;

use super::{FigureOptions, FigureOutput};
use crate::report::{ascii_chart, fmt_f, Series, Table};
use crate::scenario::{PatternSpec, PolicySpec};
use crate::sweep::{points_for, run_sweep, SweepConfig, SweepPoint};

/// Sweep settings for one paper pattern under the given options.
fn sweep_config(pattern: PatternSpec, opts: &FigureOptions, extended: bool) -> SweepConfig {
    let mut cfg = if opts.quick {
        SweepConfig::quick(pattern)
    } else {
        SweepConfig::paper(pattern)
    };
    cfg.threads = opts.threads;
    if extended {
        let top = if opts.quick { 40 } else { 50 };
        let step = if opts.quick { 6 } else { 1 };
        cfg.units = (1..=top).step_by(step).collect();
    }
    cfg
}

/// The pattern parameterizations the figures use, scaled to run length.
fn paper_pattern(kind: &str, opts: &FigureOptions) -> PatternSpec {
    let n = if opts.quick { 40 } else { 240 };
    match kind {
        "triangular" => PatternSpec::Triangular { half_period: n / 8 },
        "increasing" => PatternSpec::Increasing { ramp_periods: n },
        "decreasing" => PatternSpec::Decreasing { ramp_periods: n },
        other => panic!("unknown paper pattern {other}"),
    }
}

/// Process-wide sweep cache so figure pairs (9+10, 11/12+13) that share a
/// sweep do not run it twice within one binary (notably `run_all`).
fn sweep_cached(kind: &str, opts: &FigureOptions, extended: bool) -> Vec<SweepPoint> {
    static CACHE: Mutex<Option<HashMap<String, Vec<SweepPoint>>>> = Mutex::new(None);
    let key = format!("{kind}/{}/{}/{}", opts.quick, extended, opts.fitted_models);
    if let Some(hit) = CACHE
        .lock()
        .expect("sweep cache")
        .get_or_insert_with(HashMap::new)
        .get(&key)
    {
        return hit.clone();
    }
    let cfg = sweep_config(paper_pattern(kind, opts), opts, extended);
    let predictor = opts.predictor();
    let points = run_sweep(&cfg, &predictor);
    CACHE
        .lock()
        .expect("sweep cache")
        .get_or_insert_with(HashMap::new)
        .insert(key, points.clone());
    points
}

/// Builds the four-metric table + charts from sweep points.
fn metric_tables(points: &[SweepPoint]) -> (Table, String) {
    let mut table = Table::new(vec![
        "max_workload_units",
        "policy",
        "missed_pct",
        "avg_cpu_pct",
        "avg_net_pct",
        "avg_replicas",
        "placement_changes",
    ]);
    for p in points {
        table.row(vec![
            p.units.to_string(),
            p.policy.name().to_string(),
            fmt_f(p.missed_pct),
            fmt_f(p.cpu_pct),
            fmt_f(p.net_pct),
            fmt_f(p.avg_replicas),
            p.placement_changes.to_string(),
        ]);
    }
    let chart = |f: fn(&SweepPoint) -> f64, title: &str| {
        let pred = points_for(points, PolicySpec::Predictive)
            .iter()
            .map(|p| (p.units as f64, f(p)))
            .collect();
        let nonp = points_for(points, PolicySpec::NonPredictive)
            .iter()
            .map(|p| (p.units as f64, f(p)))
            .collect();
        format!(
            "({title})\n{}",
            ascii_chart(
                &[
                    Series {
                        label: "P=predictive",
                        points: pred,
                    },
                    Series {
                        label: "N=non-predictive",
                        points: nonp,
                    },
                ],
                64,
                12,
            )
        )
    };
    let charts = format!(
        "{}\n{}\n{}\n{}",
        chart(|p| p.missed_pct, "a: missed deadlines, %"),
        chart(|p| p.cpu_pct, "b: average CPU utilization, %"),
        chart(|p| p.net_pct, "c: average network utilization, %"),
        chart(|p| p.avg_replicas, "d: average subtask replicas"),
    );
    (table, charts)
}

/// Shared implementation of Figs. 9, 11, 12.
fn four_metric_figure(
    id: &'static str,
    title: &'static str,
    kind: &str,
    opts: &FigureOptions,
) -> FigureOutput {
    let points = sweep_cached(kind, opts, false);
    let (table, charts) = metric_tables(&points);
    let text = format!("{title}\n\n{}\n{charts}\n", table.render());
    FigureOutput {
        id,
        title,
        text,
        tables: vec![("metrics".into(), table)],
    }
}

/// Shared implementation of Figs. 10 and 13(a)/(b).
fn combined_figure(
    id: &'static str,
    title: &'static str,
    kind: &str,
    opts: &FigureOptions,
    extended: bool,
) -> FigureOutput {
    let points = sweep_cached(kind, opts, extended);
    let mut table = Table::new(vec!["max_workload_units", "policy", "combined_metric"]);
    for p in &points {
        table.row(vec![
            p.units.to_string(),
            p.policy.name().to_string(),
            fmt_f(p.combined),
        ]);
    }
    let pred: Vec<(f64, f64)> = points_for(&points, PolicySpec::Predictive)
        .iter()
        .map(|p| (p.units as f64, p.combined))
        .collect();
    let nonp: Vec<(f64, f64)> = points_for(&points, PolicySpec::NonPredictive)
        .iter()
        .map(|p| (p.units as f64, p.combined))
        .collect();
    let chart = ascii_chart(
        &[
            Series {
                label: "P=predictive",
                points: pred.clone(),
            },
            Series {
                label: "N=non-predictive",
                points: nonp.clone(),
            },
        ],
        64,
        14,
    );
    // Who wins where (the §5.2 narrative).
    let mut verdicts = String::new();
    let mut pred_wins = 0usize;
    let mut flips = Vec::new();
    let mut last: Option<bool> = None;
    for (p, n) in pred.iter().zip(&nonp) {
        let pw = p.1 <= n.1;
        if pw {
            pred_wins += 1;
        }
        if let Some(prev) = last {
            if prev != pw {
                flips.push(p.0 as u64);
            }
        }
        last = Some(pw);
    }
    use std::fmt::Write as _;
    let _ = writeln!(
        verdicts,
        "predictive wins {pred_wins}/{} points; ranking flips at units {flips:?}",
        pred.len()
    );
    let text = format!("{title}\n\n{}\n{chart}\n{verdicts}", table.render());
    FigureOutput {
        id,
        title,
        text,
        tables: vec![("combined".into(), table)],
    }
}

/// Fig. 9 (a–d): triangular pattern, four metrics.
pub fn fig9(opts: &FigureOptions) -> FigureOutput {
    four_metric_figure(
        "fig9",
        "Figure 9: Performance for the triangular workload pattern",
        "triangular",
        opts,
    )
}

/// Fig. 10: triangular pattern, combined metric.
pub fn fig10(opts: &FigureOptions) -> FigureOutput {
    combined_figure(
        "fig10",
        "Figure 10: Combined performance, triangular pattern",
        "triangular",
        opts,
        false,
    )
}

/// Fig. 11 (a–d): increasing-ramp pattern, four metrics.
pub fn fig11(opts: &FigureOptions) -> FigureOutput {
    four_metric_figure(
        "fig11",
        "Figure 11: Performance for the increasing-ramp workload pattern",
        "increasing",
        opts,
    )
}

/// Fig. 12 (a–d): decreasing-ramp pattern, four metrics.
pub fn fig12(opts: &FigureOptions) -> FigureOutput {
    four_metric_figure(
        "fig12",
        "Figure 12: Performance for the decreasing-ramp workload pattern",
        "decreasing",
        opts,
    )
}

/// Fig. 13 (a): increasing ramp, combined metric (optionally extended
/// beyond the paper's 35-unit axis for the fluctuation study).
pub fn fig13a(opts: &FigureOptions, extended: bool) -> FigureOutput {
    combined_figure(
        "fig13a",
        "Figure 13(a): Combined performance, increasing-ramp pattern",
        "increasing",
        opts,
        extended,
    )
}

/// Fig. 13 (b): decreasing ramp, combined metric.
pub fn fig13b(opts: &FigureOptions, extended: bool) -> FigureOutput {
    combined_figure(
        "fig13b",
        "Figure 13(b): Combined performance, decreasing-ramp pattern",
        "decreasing",
        opts,
        extended,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_compares_both_policies_at_every_unit() {
        let opts = FigureOptions::quick_for_tests("fig9");
        let f = fig9(&opts);
        // quick sweep: 3 units x 2 policies.
        assert_eq!(f.tables[0].1.len(), 6);
        assert!(f.text.contains("non-predictive"));
        assert!(f.text.contains("average subtask replicas"));
    }

    #[test]
    fn fig10_reports_winner_summary() {
        let opts = FigureOptions::quick_for_tests("fig10");
        let f = fig10(&opts);
        assert!(f.text.contains("predictive wins"));
        assert_eq!(f.tables[0].1.len(), 6);
    }

    #[test]
    fn fig13_extended_covers_more_units() {
        let opts = FigureOptions::quick_for_tests("fig13");
        let normal = fig13a(&opts, false);
        let extended = fig13a(&opts, true);
        assert!(extended.tables[0].1.len() > normal.tables[0].1.len());
    }

    #[test]
    fn sweep_cache_reuses_results_across_figures() {
        // fig9 and fig10 share the triangular sweep: running both with the
        // same options must agree on the (unit, policy) grid.
        let opts = FigureOptions::quick_for_tests("cache");
        let a = fig9(&opts);
        let b = fig10(&opts);
        assert_eq!(a.tables[0].1.len(), b.tables[0].1.len());
    }
}
