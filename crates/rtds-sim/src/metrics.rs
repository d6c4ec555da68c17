//! Run metrics.
//!
//! Collects, per period and per run, exactly the quantities the paper's
//! evaluation plots: missed-deadline ratio, average CPU utilization,
//! average network utilization, and average number of subtask replicas
//! (Figs. 9, 11, 12), from which the combined metric (Fig. 10/13) is
//! computed in `rtds-arm`.

use crate::time::{SimDuration, SimTime};

/// Per-period record for one task.
#[derive(Debug, Clone)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct PeriodRecord {
    /// Instance number.
    pub instance: u64,
    /// Release time.
    pub released: SimTime,
    /// Data items this period.
    pub tracks: u64,
    /// Replica count per stage, frozen at release.
    pub replicas_per_stage: Vec<u32>,
    /// End-to-end latency; `None` if shed or unfinished at the horizon.
    pub end_to_end: Option<SimDuration>,
    /// Deadline outcome; `None` if undecided at the horizon (the instance
    /// was still running and its deadline had not yet passed).
    pub missed: Option<bool>,
    /// True if admission control shed this instance.
    pub shed: bool,
}

/// Per-stage, per-instance latency record (filled at instance
/// completion) — the raw material for budget-breakdown analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct StageRecord {
    /// Owning task index.
    pub task: u32,
    /// Instance number.
    pub instance: u64,
    /// Stage index within the pipeline.
    pub stage: u32,
    /// Replica count the stage ran with.
    pub replicas: u32,
    /// Worst per-replica execution latency, ms.
    pub exec_ms: f64,
    /// Worst per-replica inbound message delay, ms.
    pub msg_ms: f64,
}

/// Which forecast a residual statistic grades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum ResidualKind {
    /// Execution-latency forecast (the paper's Eq. (3) regression `eex`).
    Exec,
    /// Communication-delay forecast (Eqs. (4)–(6), `ecd`).
    Comm,
}

/// Accumulated predicted-vs-observed residuals for one (task, stage,
/// kind) forecast stream — how good the paper's Eq. (3)/(4) predictors
/// actually were against what the simulator then measured.
///
/// Controllers that forecast (the predictive manager) fill these in
/// during the run; [`RunMetrics::forecast_residuals`] carries them out.
/// Policies that never forecast leave the list empty.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ForecastResidualStat {
    /// Owning task index.
    pub task: u32,
    /// Stage index within the pipeline.
    pub stage: u32,
    /// Which forecast this row grades.
    pub kind: ResidualKind,
    /// Observations accumulated.
    pub count: u64,
    /// Sum of |predicted − observed| in ms (mean = sum / count).
    pub sum_abs_err_ms: f64,
    /// Worst single absolute error, ms.
    pub max_abs_err_ms: f64,
    /// Sum of |predicted − observed| / observed over observations with
    /// observed > 0 (for MAPE).
    pub sum_abs_pct_err: f64,
    /// Observations entering `sum_abs_pct_err` (observed > 0).
    pub pct_count: u64,
}

impl ForecastResidualStat {
    /// An empty accumulator for one forecast stream.
    pub fn new(task: u32, stage: u32, kind: ResidualKind) -> Self {
        ForecastResidualStat {
            task,
            stage,
            kind,
            count: 0,
            sum_abs_err_ms: 0.0,
            max_abs_err_ms: 0.0,
            sum_abs_pct_err: 0.0,
            pct_count: 0,
        }
    }

    /// Folds in one predicted-vs-observed pair (both in ms).
    pub fn observe(&mut self, predicted_ms: f64, observed_ms: f64) {
        let err = (predicted_ms - observed_ms).abs();
        self.count += 1;
        self.sum_abs_err_ms += err;
        if err > self.max_abs_err_ms {
            self.max_abs_err_ms = err;
        }
        if observed_ms > 0.0 {
            self.sum_abs_pct_err += err / observed_ms;
            self.pct_count += 1;
        }
    }

    /// Mean absolute error, ms; NaN with no observations.
    pub fn mean_abs_err_ms(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum_abs_err_ms / self.count as f64
        }
    }

    /// Mean absolute percentage error, percent; NaN with no observations
    /// of positive observed latency.
    pub fn mape_pct(&self) -> f64 {
        if self.pct_count == 0 {
            f64::NAN
        } else {
            100.0 * self.sum_abs_pct_err / self.pct_count as f64
        }
    }
}

/// Everything measured during one simulation run.
#[derive(Debug, Clone, Default)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct RunMetrics {
    /// Period records, one per released instance per task, in release order.
    pub periods: Vec<PeriodRecord>,
    /// Raw per-interval CPU utilization samples: `samples[k][node]`.
    pub cpu_samples: Vec<Vec<f64>>,
    /// Raw per-interval network utilization samples.
    pub net_samples: Vec<f64>,
    /// Lifetime-average CPU utilization per node, `[0, 1]`, filled at
    /// finalization from exact busy-time integrals.
    pub cpu_lifetime_util: Vec<f64>,
    /// Lifetime-average network utilization, `[0, 1]`.
    pub net_lifetime_util: f64,
    /// Total simulated time.
    pub horizon: SimDuration,
    /// Total application bytes offered to the network.
    pub bytes_offered: u64,
    /// Total messages offered to the network.
    pub messages_offered: u64,
    /// Number of replication / shutdown placement changes applied.
    pub placement_changes: u64,
    /// Number of controller actions rejected as invalid.
    pub rejected_actions: u64,
    /// Messages lost for good: delivered to a dead node with no
    /// retransmission pending, purged when their sender crashed, or
    /// abandoned after the retransmit budget ran out. Redundant copies of
    /// data that already reached its destination never count.
    pub messages_lost: u64,
    /// Messages corrupted by the lossy bus (wire time burned, nothing
    /// delivered). Always 0 unless `BusConfig::drop_prob` is set.
    pub messages_dropped: u64,
    /// Spurious duplicates injected by the bus (suppressed at receivers).
    pub messages_duplicated: u64,
    /// Sender-side retransmissions performed.
    pub retransmits: u64,
    /// Node crash–restart cycles completed.
    pub node_restarts: u64,
    /// Per-stage latency records, one row per (instance, stage) of every
    /// completed instance.
    pub stage_records: Vec<StageRecord>,
    /// Predicted-vs-observed forecast residuals per (task, stage, kind),
    /// reported by the controller at finalization; empty for policies
    /// that never forecast.
    pub forecast_residuals: Vec<ForecastResidualStat>,
}

/// Aggregate summary over a run — the four per-figure metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct RunSummary {
    /// Missed-deadline percentage over decided instances, `[0, 100]`.
    pub missed_deadline_pct: f64,
    /// Average CPU utilization over nodes and time, percent.
    pub avg_cpu_util_pct: f64,
    /// Average network utilization over time, percent.
    pub avg_net_util_pct: f64,
    /// Average replicas per replicable stage, time-averaged over periods.
    pub avg_replicas: f64,
    /// Number of decided instances (completed or shed).
    pub decided_periods: usize,
    /// Number of released instances.
    pub released_periods: usize,
    /// Placement changes applied during the run.
    pub placement_changes: u64,
}

/// Distribution summary of end-to-end latencies over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub struct LatencyDistribution {
    /// Minimum, milliseconds.
    pub min_ms: f64,
    /// Median (p50).
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Maximum.
    pub max_ms: f64,
    /// Mean.
    pub mean_ms: f64,
    /// Completed instances the distribution covers.
    pub n: usize,
}

/// Nearest-rank percentile of a sorted slice (q in [0, 1]); NaN for an
/// empty slice (there is no order statistic to report).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        // The old `.clamp(1, sorted.len())` below panicked with
        // "min > max" here — in release builds too, where the
        // debug_assert that was meant to catch it is compiled out.
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

impl RunMetrics {
    /// End-to-end latency distribution over completed instances; `None`
    /// if nothing completed.
    pub fn latency_distribution(&self) -> Option<LatencyDistribution> {
        let mut ls: Vec<f64> = self
            .periods
            .iter()
            .filter_map(|p| p.end_to_end.map(|d| d.as_millis_f64()))
            .collect();
        if ls.is_empty() {
            return None;
        }
        ls.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let n = ls.len();
        Some(LatencyDistribution {
            min_ms: ls[0],
            p50_ms: percentile(&ls, 0.50),
            p95_ms: percentile(&ls, 0.95),
            p99_ms: percentile(&ls, 0.99),
            max_ms: ls[n - 1],
            mean_ms: ls.iter().sum::<f64>() / n as f64,
            n,
        })
    }

    /// Mean (exec, msg) latency per stage over completed instances of the
    /// given task; empty if nothing completed.
    pub fn mean_stage_breakdown(&self, task: u32) -> Vec<(f64, f64)> {
        let mut sums: Vec<(f64, f64, usize)> = Vec::new();
        for r in self.stage_records.iter().filter(|r| r.task == task) {
            let j = r.stage as usize;
            if sums.len() <= j {
                sums.resize(j + 1, (0.0, 0.0, 0));
            }
            sums[j].0 += r.exec_ms;
            sums[j].1 += r.msg_ms;
            sums[j].2 += 1;
        }
        sums.into_iter()
            .map(|(e, m, n)| {
                let n = n.max(1) as f64;
                (e / n, m / n)
            })
            .collect()
    }

    /// Summarizes the run. `replicable_stages` selects which stages'
    /// replica counts enter the replica average (the paper averages over
    /// the replicable subtasks only — the others are pinned at 1).
    pub fn summarize(&self, replicable_stages: &[usize]) -> RunSummary {
        let decided: Vec<&PeriodRecord> =
            self.periods.iter().filter(|p| p.missed.is_some()).collect();
        let missed = decided.iter().filter(|p| p.missed == Some(true)).count();
        let missed_pct = if decided.is_empty() {
            0.0
        } else {
            100.0 * missed as f64 / decided.len() as f64
        };

        let avg_cpu = if self.cpu_lifetime_util.is_empty() {
            0.0
        } else {
            100.0 * self.cpu_lifetime_util.iter().sum::<f64>()
                / self.cpu_lifetime_util.len() as f64
        };

        let avg_replicas = if self.periods.is_empty() || replicable_stages.is_empty() {
            0.0
        } else {
            let per_period: f64 = self
                .periods
                .iter()
                .map(|p| {
                    let s: u32 = replicable_stages
                        .iter()
                        .filter_map(|&i| p.replicas_per_stage.get(i))
                        .sum();
                    s as f64 / replicable_stages.len() as f64
                })
                .sum();
            per_period / self.periods.len() as f64
        };

        RunSummary {
            missed_deadline_pct: missed_pct,
            avg_cpu_util_pct: avg_cpu,
            avg_net_util_pct: 100.0 * self.net_lifetime_util,
            avg_replicas,
            decided_periods: decided.len(),
            released_periods: self.periods.len(),
            placement_changes: self.placement_changes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(missed: Option<bool>, replicas: Vec<u32>) -> PeriodRecord {
        PeriodRecord {
            instance: 0,
            released: SimTime::ZERO,
            tracks: 100,
            replicas_per_stage: replicas,
            end_to_end: Some(SimDuration::from_millis(500)),
            missed,
            shed: false,
        }
    }

    #[test]
    fn missed_pct_ignores_undecided() {
        let m = RunMetrics {
            periods: vec![
                record(Some(true), vec![1, 1]),
                record(Some(false), vec![1, 1]),
                record(Some(false), vec![1, 1]),
                record(None, vec![1, 1]),
            ],
            cpu_lifetime_util: vec![0.5, 0.3],
            net_lifetime_util: 0.2,
            ..Default::default()
        };
        let s = m.summarize(&[0]);
        assert!((s.missed_deadline_pct - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.decided_periods, 3);
        assert_eq!(s.released_periods, 4);
    }

    #[test]
    fn cpu_util_averages_over_nodes() {
        let m = RunMetrics {
            cpu_lifetime_util: vec![0.2, 0.4, 0.6],
            ..Default::default()
        };
        assert!((m.summarize(&[]).avg_cpu_util_pct - 40.0).abs() < 1e-9);
    }

    #[test]
    fn replica_average_uses_only_replicable_stages() {
        let m = RunMetrics {
            periods: vec![
                record(Some(false), vec![1, 2, 1, 4]),
                record(Some(false), vec![1, 4, 1, 6]),
            ],
            ..Default::default()
        };
        // Replicable stages 1 and 3: period means (2+4)/2=3 and (4+6)/2=5.
        let s = m.summarize(&[1, 3]);
        assert!((s.avg_replicas - 4.0).abs() < 1e-9, "{}", s.avg_replicas);
    }

    #[test]
    fn empty_run_summarizes_to_zeros() {
        let s = RunMetrics::default().summarize(&[0]);
        assert_eq!(s.missed_deadline_pct, 0.0);
        assert_eq!(s.avg_cpu_util_pct, 0.0);
        assert_eq!(s.avg_replicas, 0.0);
        assert_eq!(s.decided_periods, 0);
    }

    #[test]
    fn latency_distribution_orders_percentiles() {
        let mut m = RunMetrics::default();
        for i in 1..=100u64 {
            m.periods.push(PeriodRecord {
                instance: i,
                released: SimTime::ZERO,
                tracks: 0,
                replicas_per_stage: vec![1],
                end_to_end: Some(SimDuration::from_millis(i)),
                missed: Some(false),
                shed: false,
            });
        }
        let d = m.latency_distribution().unwrap();
        assert_eq!(d.n, 100);
        assert_eq!(d.min_ms, 1.0);
        assert_eq!(d.p50_ms, 50.0);
        assert_eq!(d.p95_ms, 95.0);
        assert_eq!(d.p99_ms, 99.0);
        assert_eq!(d.max_ms, 100.0);
        assert!((d.mean_ms - 50.5).abs() < 1e-9);
        assert!(d.min_ms <= d.p50_ms && d.p50_ms <= d.p95_ms);
        assert!(d.p95_ms <= d.p99_ms && d.p99_ms <= d.max_ms);
    }

    #[test]
    fn latency_distribution_empty_run_is_none() {
        assert!(RunMetrics::default().latency_distribution().is_none());
    }

    #[test]
    fn stage_breakdown_averages_per_stage() {
        let mut m = RunMetrics::default();
        for (inst, exec) in [(0u64, 10.0f64), (1, 20.0)] {
            for stage in 0..2u32 {
                m.stage_records.push(StageRecord {
                    task: 0,
                    instance: inst,
                    stage,
                    replicas: 1,
                    exec_ms: exec + stage as f64,
                    msg_ms: 2.0,
                });
            }
        }
        // A record of another task must not leak in.
        m.stage_records.push(StageRecord {
            task: 1,
            instance: 0,
            stage: 0,
            replicas: 1,
            exec_ms: 999.0,
            msg_ms: 999.0,
        });
        let b = m.mean_stage_breakdown(0);
        assert_eq!(b.len(), 2);
        assert!((b[0].0 - 15.0).abs() < 1e-12);
        assert!((b[1].0 - 16.0).abs() < 1e-12);
        assert!((b[0].1 - 2.0).abs() < 1e-12);
        assert!(m.mean_stage_breakdown(7).is_empty());
    }

    #[test]
    fn percentile_of_empty_slice_is_nan_not_panic() {
        // Regression: `.clamp(1, sorted.len())` on an empty slice used to
        // panic with "min > max" — in release builds too.
        assert!(percentile(&[], 0.5).is_nan());
        assert!(percentile(&[], 0.0).is_nan());
        assert!(percentile(&[], 1.0).is_nan());
        // Non-empty behavior unchanged.
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn forecast_residual_stat_tracks_mean_max_and_mape() {
        let mut s = ForecastResidualStat::new(0, 1, ResidualKind::Exec);
        assert!(s.mean_abs_err_ms().is_nan());
        assert!(s.mape_pct().is_nan());
        s.observe(110.0, 100.0); // err 10, pct 10%
        s.observe(80.0, 100.0); // err 20, pct 20%
        s.observe(5.0, 0.0); // err 5, no pct contribution
        assert_eq!(s.count, 3);
        assert!((s.mean_abs_err_ms() - 35.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.max_abs_err_ms, 20.0);
        assert_eq!(s.pct_count, 2);
        assert!((s.mape_pct() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn net_util_is_percent() {
        let m = RunMetrics {
            net_lifetime_util: 0.35,
            ..Default::default()
        };
        assert!((m.summarize(&[]).avg_net_util_pct - 35.0).abs() < 1e-9);
    }
}
