//! Property-style tests on the core invariants the paper's algorithms
//! rely on.
//!
//! Originally written with proptest; the build environment has no
//! registry access, so these now drive the same properties from a
//! deterministic in-file generator (xorshift-based). Each property runs
//! over a few hundred pseudo-random cases — deterministic, so a failure
//! reproduces exactly.

use rtds::arm::online::OnlineRefiner;
use rtds::arm::prelude::*;
use rtds::regression::{BufferDelayModel, ExecLatencyModel, LatencySample, Polynomial};
use rtds::sim::event::EventQueue;
use rtds::sim::ids::NodeId;
use rtds::sim::pipeline::split_tracks;
use rtds::sim::time::{SimDuration, SimTime};

/// Small deterministic generator for test case synthesis.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut s = self.0;
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        self.0 = s;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform f64 in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }

    /// Uniform u64 in `[lo, hi)`.
    fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform usize in `[lo, hi)`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// A vector of uniform f64 draws.
    fn vec_f64(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.f64_in(lo, hi)).collect()
    }
}

// ---------------------------------------------------------------
// Deadline assignment (EQF)
// ---------------------------------------------------------------

/// Classic EQF budgets always partition the end-to-end deadline.
#[test]
fn eqf_classic_partitions_deadline() {
    let mut g = Gen::new(11);
    for _ in 0..300 {
        let n = g.usize_in(1, 8);
        let exec = g.vec_f64(n, 0.0, 500.0);
        let deadline_ms = g.f64_in(1.0, 5_000.0);
        let comm_seed = g.f64_in(0.0, 100.0);
        let comm: Vec<f64> = (0..exec.len().saturating_sub(1))
            .map(|i| comm_seed * (i as f64 + 0.5) % 97.0)
            .collect();
        let a = assign_deadlines(
            &exec,
            &comm,
            SimDuration::from_millis_f64(deadline_ms),
            EqfVariant::Classic,
        );
        let total: f64 = a
            .subtask
            .iter()
            .chain(a.message.iter())
            .map(|d| d.as_millis_f64())
            .sum();
        // Rounding to whole microseconds may shift each component by 0.5us.
        let tolerance = 0.002 * (a.subtask.len() + a.message.len()) as f64;
        assert!(
            (total - deadline_ms).abs() <= tolerance,
            "sum {total} vs deadline {deadline_ms}"
        );
    }
}

/// Budgets are monotone in the estimates: more estimated work never
/// yields a *smaller* budget under the same totals.
#[test]
fn eqf_budgets_proportional_to_estimates() {
    let mut g = Gen::new(12);
    for _ in 0..300 {
        let base = g.f64_in(1.0, 100.0);
        let factor = g.f64_in(1.01, 10.0);
        let deadline_ms = g.f64_in(100.0, 5_000.0);
        let exec = vec![base, base * factor];
        let a = assign_deadlines(
            &exec,
            &[0.0],
            SimDuration::from_millis_f64(deadline_ms),
            EqfVariant::Classic,
        );
        assert!(a.subtask[1] >= a.subtask[0]);
    }
}

/// Equal-slack budgets also partition the deadline whenever there is
/// non-negative slack.
#[test]
fn eqs_partitions_deadline_when_feasible() {
    let mut g = Gen::new(13);
    for _ in 0..300 {
        let n = g.usize_in(1, 6);
        let exec = g.vec_f64(n, 1.0, 100.0);
        let slack_per_comp = g.f64_in(0.0, 50.0);
        let comm: Vec<f64> = (0..exec.len().saturating_sub(1))
            .map(|i| 1.0 + i as f64)
            .collect();
        let total: f64 = exec.iter().sum::<f64>() + comm.iter().sum::<f64>();
        let n_comp = (exec.len() + comm.len()) as f64;
        let deadline = total + slack_per_comp * n_comp;
        let a = assign_deadlines(
            &exec,
            &comm,
            SimDuration::from_millis_f64(deadline),
            EqfVariant::EqualSlack,
        );
        let sum: f64 = a
            .subtask
            .iter()
            .chain(a.message.iter())
            .map(|d| d.as_millis_f64())
            .sum();
        let tolerance = 0.002 * n_comp;
        assert!((sum - deadline).abs() <= tolerance, "{sum} vs {deadline}");
        // And every budget at least covers its estimate.
        for (b, e) in a.subtask.iter().zip(&exec) {
            assert!(b.as_millis_f64() + 0.001 >= *e);
        }
    }
}

/// The online refiner never produces non-finite coefficients from
/// finite observation streams, and converges on self-generated data.
#[test]
fn online_refiner_is_stable_on_random_streams() {
    let mut g = Gen::new(14);
    for _ in 0..100 {
        let a3 = g.f64_in(0.001, 0.5);
        let b3 = g.f64_in(0.1, 5.0);
        let lambda = g.f64_in(0.9, 1.0);
        let seed = g.u64_in(0, 1000);
        let truth = ExecLatencyModel::from_coefficients([1e-5, 1e-3, a3], [1e-4, 1e-2, b3]);
        let mut r = OnlineRefiner::from_model(
            &ExecLatencyModel::from_coefficients([0.0, 0.0, 0.1], [0.0, 0.0, 1.0]),
            lambda,
            100.0,
        );
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as f64 / (u32::MAX as f64 / 2.0)
        };
        for _ in 0..200 {
            let d = 1.0 + next() * 40.0;
            let u = next() * 80.0;
            r.observe(d, u, truth.predict_raw(d, u));
        }
        let m = r.model();
        for c in m.a.iter().chain(m.b.iter()) {
            assert!(c.is_finite(), "coefficient diverged: {c}");
        }
        let (d, u) = (20.0, 40.0);
        let err = (r.predict(d, u) - truth.predict_raw(d, u)).abs();
        assert!(
            err < 0.05 * truth.predict_raw(d, u).max(1.0),
            "err {err} at truth {}",
            truth.predict_raw(d, u)
        );
    }
}

// ---------------------------------------------------------------
// Data-stream splitting
// ---------------------------------------------------------------

/// Replica shares conserve the stream and are balanced within 1.
#[test]
fn split_tracks_conserves_and_balances() {
    let mut g = Gen::new(16);
    for _ in 0..500 {
        let tracks = g.u64_in(0, 1_000_000);
        let k = g.usize_in(1, 32);
        let s = split_tracks(tracks, k);
        assert_eq!(s.len(), k);
        assert_eq!(s.iter().sum::<u64>(), tracks);
        let max = *s.iter().max().unwrap();
        let min = *s.iter().min().unwrap();
        assert!(max - min <= 1);
    }
}

// ---------------------------------------------------------------
// Regression substrate
// ---------------------------------------------------------------

/// The two-stage Eq. (3) fit recovers a surface generated by the model
/// family itself (with non-negative coefficient draws).
#[test]
fn eq3_fit_recovers_model_family() {
    let mut g = Gen::new(17);
    for _ in 0..100 {
        let a = [
            g.f64_in(0.0, 1e-4),
            g.f64_in(0.0, 1e-2),
            g.f64_in(0.001, 0.5),
        ];
        let b = [
            g.f64_in(0.0, 1e-3),
            g.f64_in(0.0, 1e-1),
            g.f64_in(0.1, 5.0),
        ];
        let truth = ExecLatencyModel::from_coefficients(a, b);
        let mut samples = Vec::new();
        for &u in &[10.0, 30.0, 50.0, 70.0] {
            for d in (1..=8).map(|i| i as f64 * 2.0) {
                samples.push(LatencySample {
                    d,
                    u,
                    latency_ms: truth.predict_raw(d, u),
                });
            }
        }
        let fitted = ExecLatencyModel::fit_two_stage(&samples).unwrap();
        for &u in &[20.0, 60.0] {
            for &d in &[3.0, 9.0, 15.0] {
                let t = truth.predict_raw(d, u);
                let f = fitted.predict_raw(d, u);
                assert!(
                    (t - f).abs() <= 1e-6 + 1e-6 * t.abs(),
                    "({d},{u}): {f} vs {t}"
                );
            }
        }
    }
}

/// Polynomial fits are exact on data generated by polynomials of the
/// same degree.
#[test]
fn polyfit_exact_on_own_family() {
    let mut g = Gen::new(18);
    for _ in 0..300 {
        let c0 = g.f64_in(-10.0, 10.0);
        let c1 = g.f64_in(-10.0, 10.0);
        let c2 = g.f64_in(-2.0, 2.0);
        let xs: Vec<f64> = (0..12).map(|i| i as f64 - 3.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| c0 + c1 * x + c2 * x * x).collect();
        let p = Polynomial::fit(&xs, &ys, 2).unwrap();
        assert!((p.eval(5.5) - (c0 + c1 * 5.5 + c2 * 5.5 * 5.5)).abs() < 1e-6);
    }
}

/// The buffer-delay fit recovers any non-negative slope exactly from
/// noiseless data.
#[test]
fn buffer_fit_recovers_slope() {
    let mut g = Gen::new(19);
    for _ in 0..300 {
        let k = g.f64_in(0.0, 1.0);
        let samples: Vec<rtds::regression::BufferDelaySample> = (1..=10)
            .map(|i| rtds::regression::BufferDelaySample {
                total_tracks: i as f64 * 1_000.0,
                delay_ms: k * i as f64 * 1_000.0,
            })
            .collect();
        let m = BufferDelayModel::fit(&samples).unwrap();
        assert!((m.k - k).abs() < 1e-9 * (1.0 + k));
    }
}

// ---------------------------------------------------------------
// Monitoring
// ---------------------------------------------------------------

/// Classification is total and consistent with the slack bands.
#[test]
fn classify_matches_band_arithmetic() {
    let mut g = Gen::new(20);
    for _ in 0..500 {
        let observed_ms = g.f64_in(0.0, 2_000.0);
        let budget_ms = g.f64_in(1.0, 2_000.0);
        let cfg = MonitorConfig::default();
        let h = classify(
            SimDuration::from_millis_f64(observed_ms),
            SimDuration::from_millis_f64(budget_ms),
            &cfg,
        );
        // Recompute from the rounded durations the classifier actually saw.
        let obs = SimDuration::from_millis_f64(observed_ms).as_millis_f64();
        let bud = SimDuration::from_millis_f64(budget_ms).as_millis_f64();
        if obs > bud {
            assert_eq!(h, StageHealth::Missed);
        } else {
            let slack = (bud - obs) / bud;
            if slack < 0.2 {
                assert_eq!(h, StageHealth::LowSlack);
            } else if slack > 0.6 {
                assert_eq!(h, StageHealth::HighSlack);
            } else {
                assert_eq!(h, StageHealth::Nominal);
            }
        }
    }
}

// ---------------------------------------------------------------
// Fig. 5 / Fig. 7 allocation invariants
// ---------------------------------------------------------------

/// The non-predictive enlargement always contains the original set,
/// never duplicates, and only adds below-threshold processors.
#[test]
fn nonpredictive_enlargement_invariants() {
    let mut g = Gen::new(21);
    for _ in 0..300 {
        let n = g.usize_in(2, 12);
        let utils = g.vec_f64(n, 0.0, 100.0);
        let threshold = g.f64_in(0.0, 100.0);
        let current = vec![NodeId(0)];
        let ps = replicate_subtask_nonpredictive(&current, &utils, threshold);
        assert_eq!(ps[0], NodeId(0));
        let mut seen = std::collections::HashSet::new();
        for n in &ps {
            assert!(seen.insert(*n), "duplicate {n}");
            assert!(n.index() < utils.len());
        }
        for n in &ps[1..] {
            assert!(utils[n.index()] < threshold);
        }
        // Exhaustiveness: every qualifying node is in.
        for (i, &u) in utils.iter().enumerate() {
            if u < threshold {
                assert!(ps.contains(&NodeId(i as u32)));
            }
        }
    }
}

/// Shutdown removes exactly one (the last) replica and never the
/// original.
#[test]
fn shutdown_invariants() {
    let mut g = Gen::new(22);
    for _ in 0..300 {
        let n_extra = g.usize_in(0, 8);
        let mut current = vec![NodeId(0)];
        for i in 0..n_extra {
            current.push(NodeId(i as u32 + 1));
        }
        let after = shutdown_a_replica(&current);
        assert_eq!(after[0], NodeId(0));
        if current.len() == 1 {
            assert_eq!(after.len(), 1);
        } else {
            assert_eq!(after.len(), current.len() - 1);
            assert_eq!(&after[..], &current[..current.len() - 1]);
        }
    }
}

// ---------------------------------------------------------------
// Simulation substrate
// ---------------------------------------------------------------

/// The event queue pops in (time, insertion) order whatever the
/// schedule order.
#[test]
fn event_queue_is_stable_priority_queue() {
    let mut g = Gen::new(23);
    for _ in 0..200 {
        let n = g.usize_in(1, 200);
        let times: Vec<u64> = (0..n).map(|_| g.u64_in(0, 10_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO among ties");
            }
        }
    }
}

/// Time arithmetic round-trips.
#[test]
fn sim_time_arithmetic_round_trips() {
    let mut g = Gen::new(24);
    for _ in 0..500 {
        let base = g.u64_in(0, u32::MAX as u64);
        let delta = g.u64_in(0, u32::MAX as u64);
        let t = SimTime::from_micros(base);
        let d = SimDuration::from_micros(delta);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    }
}

// ---------------------------------------------------------------
// Combined metric
// ---------------------------------------------------------------

/// The combined metric is monotone in each component.
#[test]
fn combined_metric_is_monotone() {
    let mut g = Gen::new(25);
    for _ in 0..300 {
        let md = g.f64_in(0.0, 100.0);
        let cpu = g.f64_in(0.0, 100.0);
        let net = g.f64_in(0.0, 100.0);
        let reps = g.f64_in(1.0, 6.0);
        let bump = g.f64_in(0.001, 10.0);
        let mk = |md, cpu, net, reps| rtds::sim::metrics::RunSummary {
            missed_deadline_pct: md,
            avg_cpu_util_pct: cpu,
            avg_net_util_pct: net,
            avg_replicas: reps,
            decided_periods: 1,
            released_periods: 1,
            placement_changes: 0,
        };
        let base = combined_metric(&mk(md, cpu, net, reps), 6);
        assert!(combined_metric(&mk(md + bump, cpu, net, reps), 6) > base);
        assert!(combined_metric(&mk(md, cpu + bump, net, reps), 6) > base);
        assert!(combined_metric(&mk(md, cpu, net + bump, reps), 6) > base);
        assert!(combined_metric(&mk(md, cpu, net, reps + bump.min(1.0)), 6) > base);
    }
}

/// Fig. 5 replication: the result is always a superset of the current
/// set with no duplicates, regardless of utilizations and budgets —
/// and on failure the best-effort set is the whole cluster.
#[test]
fn predictive_replication_set_invariants() {
    use rtds::arm::predictive::{
        replicate_subtask, ProcessorChoice, ReplicateFailure, ReplicationRequest,
    };
    use rtds::experiments::models::quick_predictor;
    let mut g = Gen::new(26);
    let predictor = quick_predictor();
    for _ in 0..16 {
        let utils = g.vec_f64(6, 0.0, 95.0);
        let tracks = g.u64_in(1_000, 17_500);
        let budget_ms = g.f64_in(10.0, 900.0);
        let current = vec![NodeId(2)];
        let budget = SimDuration::from_millis_f64(budget_ms);
        let req = ReplicationRequest {
            current: &current,
            node_util_pct: &utils,
            stage: 2,
            tracks,
            total_periodic_tracks: tracks,
            budget,
            slack: budget.mul_f64(0.2),
        };
        let choice = ProcessorChoice::LeastUtilized;
        let set = match replicate_subtask(&req, &predictor, choice, None) {
            Ok(ps) => ps,
            Err(ReplicateFailure::OutOfProcessors { best_effort, .. }) => {
                assert_eq!(best_effort.len(), 6);
                best_effort
            }
        };
        assert_eq!(set[0], NodeId(2));
        let mut seen = std::collections::HashSet::new();
        for n in &set {
            assert!(seen.insert(*n));
            assert!(n.index() < 6);
        }
        assert!(set.len() >= 2, "Fig. 5 always adds at least one replica");
    }
}
