//! Max-workload sweeps (the x-axis of Figs. 9–13).
//!
//! Each figure plots a metric against the experiment's **maximum
//! workload** in scale units of 500 tracks, one independent simulation per
//! point per policy. A unit's policies run as one group
//! ([`crate::scenario::run_policies`]): they share the seed, so a policy
//! that acts exactly like the first one at every period boundary shares
//! its simulation, and only a policy that diverges is simulated again on
//! its own. Units are embarrassingly parallel; the sweep fans them out over
//! `std::thread::scope` workers pulling from an atomic work index,
//! collects into a mutex-guarded vector, then restores deterministic
//! order. Thread count never affects results — only `wall_ms` (measured
//! wall-clock, excluded from golden comparisons) varies between runs.

use std::sync::Mutex;

use rtds_arm::predictor::Predictor;
use crate::scenario::{
    run_group, FaultPlan, PatternSpec, PolicySpec, ScenarioConfig, ScenarioResult,
};

/// Tracks per scale unit on every figure's x-axis ("1 scale unit = 500
/// Track").
pub const TRACKS_PER_UNIT: u64 = 500;

/// One sweep measurement.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Maximum workload in scale units.
    pub units: u64,
    /// Policy that ran.
    pub policy: PolicySpec,
    /// Missed-deadline percentage.
    pub missed_pct: f64,
    /// Average CPU utilization, percent.
    pub cpu_pct: f64,
    /// Average network utilization, percent.
    pub net_pct: f64,
    /// Average replicas per replicable subtask.
    pub avg_replicas: f64,
    /// Combined metric.
    pub combined: f64,
    /// Placement changes over the run.
    pub placement_changes: u64,
    /// Wall-clock time this point's simulation took, in milliseconds. A
    /// simulation shared by several policies is charged to them in equal
    /// parts; a policy re-run on its own is charged that run's time.
    /// Non-deterministic by nature: report it, but never fold it into
    /// golden or cross-thread-count comparisons.
    pub wall_ms: f64,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Pattern family (its period parameters fixed by the caller).
    pub pattern: PatternSpec,
    /// Max-workload grid, scale units.
    pub units: Vec<u64>,
    /// Policies to compare.
    pub policies: Vec<PolicySpec>,
    /// Periods per run.
    pub n_periods: u64,
    /// Ambient background utilization.
    pub ambient_util: f64,
    /// Seed (same for every point: the paper runs "a single experiment"
    /// per point; determinism comes from the seed, comparability from
    /// sharing it across policies).
    pub seed: u64,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Failure-realism plan applied identically to every point (default:
    /// everything off — the clean-network headline sweeps).
    pub faults: FaultPlan,
    /// Observability applied to every point (default: off). Sweep points
    /// only keep the aggregate numbers, so this is useful purely to prove
    /// the observer effect is zero — the per-run payloads are dropped.
    pub observe: bool,
}

impl SweepConfig {
    /// The paper's sweep for one pattern: units 1..=35, both policies.
    pub fn paper(pattern: PatternSpec) -> Self {
        SweepConfig {
            pattern,
            units: (1..=35).collect(),
            policies: vec![PolicySpec::Predictive, PolicySpec::NonPredictive],
            n_periods: 240,
            ambient_util: 0.10,
            seed: 0x5EED,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            faults: FaultPlan::default(),
            observe: false,
        }
    }

    /// A coarse, short sweep for tests and `--quick` runs.
    pub fn quick(pattern: PatternSpec) -> Self {
        SweepConfig {
            units: vec![4, 16, 28],
            n_periods: 40,
            threads: 2,
            ..Self::paper(pattern)
        }
    }
}

/// Runs the sweep. Results are ordered by (unit, policy order as given).
///
/// If any unit panics, the sweep stops handing out new work and re-raises
/// the **first** panic's original payload from the calling thread. (The
/// naive `.expect("poisoned")` alternative would replace the real failure
/// message with a generic "a scoped thread panicked" — `std::thread::scope`
/// swallows spawned-thread payloads — and then panic a second time on the
/// poisoned results lock, burying the root cause.)
pub fn run_sweep(cfg: &SweepConfig, predictor: &Predictor) -> Vec<SweepPoint> {
    run_sweep_with(cfg, |units| run_unit(cfg, units, predictor))
}

/// Sweep engine, parameterized over the per-unit runner (one point per
/// policy, in order) so tests can inject failures.
fn run_sweep_with<F>(cfg: &SweepConfig, run: F) -> Vec<SweepPoint>
where
    F: Fn(u64) -> Vec<SweepPoint> + Sync,
{
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    assert!(!cfg.units.is_empty() && !cfg.policies.is_empty(), "empty sweep");
    let jobs = &cfg.units;
    let results: Mutex<Vec<(usize, Vec<SweepPoint>)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    let threads = cfg.threads.clamp(1, jobs.len());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                // Catch the panic here rather than letting it unwind
                // through the scope: we keep the original payload, and no
                // lock is ever poisoned by an unwinding worker.
                match std::panic::catch_unwind(AssertUnwindSafe(|| run(jobs[i]))) {
                    Ok(points) => {
                        results
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((i, points));
                    }
                    Err(payload) => {
                        abort.store(true, Ordering::Relaxed);
                        let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        break;
                    }
                }
            });
        }
    });

    if let Some(payload) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        std::panic::resume_unwind(payload);
    }

    let mut out = results.into_inner().unwrap_or_else(|e| e.into_inner());
    out.sort_by_key(|(order, _)| *order);
    out.into_iter().flat_map(|(_, points)| points).collect()
}

/// One unit's points, one per policy in order: a single group simulation,
/// then a run of its own for each policy that diverged from the first.
fn run_unit(cfg: &SweepConfig, units: u64, predictor: &Predictor) -> Vec<SweepPoint> {
    let max_tracks = units * TRACKS_PER_UNIT;
    let scenario = ScenarioConfig {
        n_periods: cfg.n_periods,
        ambient_util: cfg.ambient_util,
        seed: cfg.seed,
        faults: cfg.faults.clone(),
        observe: cfg.observe,
        ..ScenarioConfig::paper(cfg.pattern, cfg.policies[0], max_tracks)
    };
    let point = |policy, r: &ScenarioResult, wall_ms| SweepPoint {
        units,
        policy,
        missed_pct: r.summary.missed_deadline_pct,
        cpu_pct: r.summary.avg_cpu_util_pct,
        net_pct: r.summary.avg_net_util_pct,
        avg_replicas: r.summary.avg_replicas,
        combined: r.breakdown.combined,
        placement_changes: r.summary.placement_changes,
        wall_ms,
    };
    let started = std::time::Instant::now();
    let group = run_group(&scenario, &cfg.policies, predictor);
    let served: Vec<bool> = group.served().collect();
    let shared_ms = started.elapsed().as_secs_f64() * 1e3
        / served.iter().filter(|&&s| s).count() as f64;
    // Reduce the shared run to its points, and free it, before any re-run.
    let shared: Vec<Option<SweepPoint>> = cfg
        .policies
        .iter()
        .zip(served)
        .map(|(&policy, s)| s.then(|| point(policy, &group.lead, shared_ms)))
        .collect();
    drop(group);
    cfg.policies
        .iter()
        .zip(shared)
        .map(|(&policy, p)| {
            p.unwrap_or_else(|| {
                let started = std::time::Instant::now();
                let r = run_group(&scenario, &[policy], predictor).lead;
                point(policy, &r, started.elapsed().as_secs_f64() * 1e3)
            })
        })
        .collect()
}

/// Renders the *deterministic* fields of sweep points as CSV text — every
/// field except `wall_ms`. Two runs of the same sweep must produce
/// byte-identical output from this function regardless of thread count.
pub fn deterministic_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "units,policy,missed_pct,cpu_pct,net_pct,avg_replicas,combined,placement_changes\n",
    );
    for p in points {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{},{},{:?},{:?},{:?},{:?},{:?},{}",
            p.units,
            p.policy.name(),
            p.missed_pct,
            p.cpu_pct,
            p.net_pct,
            p.avg_replicas,
            p.combined,
            p.placement_changes,
        );
    }
    out
}

/// Selects the points of one policy, ordered by unit.
pub fn points_for(points: &[SweepPoint], policy: PolicySpec) -> Vec<&SweepPoint> {
    points.iter().filter(|p| p.policy == policy).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::quick_predictor;

    #[test]
    fn sweep_produces_every_grid_point_in_order() {
        let mut cfg = SweepConfig::quick(PatternSpec::Triangular { half_period: 10 });
        cfg.units = vec![2, 20];
        cfg.n_periods = 20;
        let pts = run_sweep(&cfg, &quick_predictor());
        assert_eq!(pts.len(), 4);
        assert_eq!(
            pts.iter().map(|p| p.units).collect::<Vec<_>>(),
            vec![2, 2, 20, 20]
        );
        assert_eq!(pts[0].policy, PolicySpec::Predictive);
        assert_eq!(pts[1].policy, PolicySpec::NonPredictive);
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree() {
        let mut cfg = SweepConfig::quick(PatternSpec::Triangular { half_period: 10 });
        cfg.units = vec![4, 24];
        cfg.n_periods = 20;
        let p = quick_predictor();
        cfg.threads = 1;
        let seq = run_sweep(&cfg, &p);
        cfg.threads = 4;
        let par = run_sweep(&cfg, &p);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.units, b.units);
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.missed_pct, b.missed_pct);
            assert_eq!(a.combined, b.combined);
        }
        // The full deterministic serialization must agree byte for byte.
        assert_eq!(deterministic_csv(&seq), deterministic_csv(&par));
    }

    #[test]
    fn failure_realism_sweeps_are_deterministic_across_threads_and_seeds() {
        // The PR-1 determinism property, extended to the failure-realism
        // layer: lossy + duplicating bus, retransmission, and a
        // crash–restart fault must still yield byte-identical CSVs
        // regardless of thread count, for every seed.
        use crate::scenario::CrashFault;
        let p = quick_predictor();
        for seed in [0x5EED_u64, 7] {
            let mut cfg = SweepConfig::quick(PatternSpec::Triangular { half_period: 10 });
            cfg.units = vec![4, 24];
            cfg.n_periods = 20;
            cfg.seed = seed;
            cfg.faults = FaultPlan {
                drop_prob: 0.15,
                dup_prob: 0.05,
                retx_timeout_us: 20_000,
                jam: None,
                crashes: vec![CrashFault { node: 2, at_s: 6, restart_after_s: Some(5) }],
            };
            cfg.threads = 1;
            let seq = run_sweep(&cfg, &p);
            cfg.threads = 4;
            let par = run_sweep(&cfg, &p);
            assert_eq!(
                deterministic_csv(&seq),
                deterministic_csv(&par),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn sweep_points_record_positive_wall_clock() {
        let mut cfg = SweepConfig::quick(PatternSpec::Triangular { half_period: 10 });
        cfg.units = vec![4];
        cfg.n_periods = 10;
        cfg.threads = 1;
        let pts = run_sweep(&cfg, &quick_predictor());
        for p in &pts {
            assert!(p.wall_ms > 0.0, "wall clock should be measured: {}", p.wall_ms);
        }
        // And the deterministic CSV deliberately excludes it.
        assert!(!deterministic_csv(&pts).contains("wall"));
    }

    #[test]
    fn points_for_filters_by_policy() {
        let mut cfg = SweepConfig::quick(PatternSpec::Increasing { ramp_periods: 15 });
        cfg.units = vec![8];
        cfg.n_periods = 20;
        let pts = run_sweep(&cfg, &quick_predictor());
        assert_eq!(points_for(&pts, PolicySpec::Predictive).len(), 1);
        assert_eq!(points_for(&pts, PolicySpec::NonPredictive).len(), 1);
    }

    #[test]
    fn sweep_panic_propagates_original_payload_once() {
        // Regression: a panicking point used to surface as the generic
        // "a scoped thread panicked" (scope swallows worker payloads),
        // immediately followed by a second panic from the poisoned
        // results lock. The sweep must instead re-raise the original
        // payload, exactly once.
        let mut cfg = SweepConfig::quick(PatternSpec::Triangular { half_period: 10 });
        cfg.units = vec![2, 4, 6, 8];
        cfg.threads = 4;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sweep_with(&cfg, |units| {
                if units == 4 {
                    panic!("injected point failure at unit 4");
                }
                cfg.policies
                    .iter()
                    .map(|&policy| SweepPoint {
                        units,
                        policy,
                        missed_pct: 0.0,
                        cpu_pct: 0.0,
                        net_pct: 0.0,
                        avg_replicas: 1.0,
                        combined: 0.0,
                        placement_changes: 0,
                        wall_ms: 1.0,
                    })
                    .collect()
            })
        }))
        .expect_err("sweep should re-raise the injected panic");
        let msg = caught
            .downcast_ref::<&str>()
            .copied()
            .expect("payload should be the original &str, not a poison/scope wrapper");
        assert_eq!(msg, "injected point failure at unit 4");
    }

    #[test]
    fn observability_sinks_do_not_change_sweep_results() {
        // The observer-effect guarantee at sweep granularity: enabling
        // both sinks must leave every deterministic field byte-identical.
        let mut cfg = SweepConfig::quick(PatternSpec::Triangular { half_period: 10 });
        cfg.units = vec![4, 24];
        cfg.n_periods = 20;
        let p = quick_predictor();
        let plain = run_sweep(&cfg, &p);
        cfg.observe = true;
        let observed = run_sweep(&cfg, &p);
        assert_eq!(deterministic_csv(&plain), deterministic_csv(&observed));
    }

    #[test]
    #[should_panic(expected = "empty sweep")]
    fn empty_sweep_panics() {
        let mut cfg = SweepConfig::quick(PatternSpec::Triangular { half_period: 5 });
        cfg.units.clear();
        let _ = run_sweep(&cfg, &quick_predictor());
    }
}
