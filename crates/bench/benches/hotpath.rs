//! Hot-path benches guarding the simulator-core performance pass:
//! end-to-end evaluation runs (dispatch chains + scratch buffers), event
//! queue churn under cancellation (tombstone compaction), batch
//! scheduling, and the incremental RLS refit.
//!
//! CI runs this in quick mode and compares against the checked-in
//! `BENCH_hotpath.json` baseline (see `scripts/check_bench_regression.py`);
//! regenerate the baseline with:
//!
//! ```text
//! cargo bench --bench hotpath -- --save-json BENCH_hotpath.json
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtds_bench::{bench_bg_heavy_scenario, bench_predictor, bench_scenario, run_large_cluster};
use rtds_experiments::scenario::{run_scenario, PatternSpec, PolicySpec};
use rtds_regression::RecursiveLeastSquares;
use rtds_sim::event::EventQueue;
use rtds_sim::time::SimTime;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10);

    // End-to-end evaluation run: the unit of work behind every figure
    // sweep point. Dominated by the dispatch/bg-poll hot loop, so this is
    // where the virtual dispatch chains and scratch buffers show up.
    let predictor = bench_predictor();
    for policy in [PolicySpec::None, PolicySpec::Predictive] {
        let cfg = bench_scenario(PatternSpec::Triangular { half_period: 10 }, policy);
        g.bench_with_input(
            BenchmarkId::new("scenario_run", policy.name()),
            &cfg,
            |b, cfg| b.iter(|| run_scenario(std::hint::black_box(cfg), &predictor)),
        );
    }

    // Background-dominated evaluation run (45 % ambient load per node):
    // the case the background-load fast path targets.
    let cfg = bench_bg_heavy_scenario();
    g.bench_with_input(
        BenchmarkId::new("scenario_run", "bg_heavy"),
        &cfg,
        |b, cfg| b.iter(|| run_scenario(std::hint::black_box(cfg), &predictor)),
    );

    // Large-cluster scaling: pure ambient load, event volume linear in
    // node count. The row names keep their historical `ff` suffix so the
    // regression gate compares them against their existing baselines.
    for n_nodes in [16usize, 64] {
        g.bench_with_input(
            BenchmarkId::new("large_cluster", format!("{n_nodes}xff")),
            &n_nodes,
            |b, &n| b.iter(|| run_large_cluster(std::hint::black_box(n))),
        );
    }

    // Cancellation-heavy queue churn: schedule 1k, cancel every other
    // event, pop the rest. Exercises the tombstone lazy-deletion path and
    // the heap compaction threshold.
    g.bench_function("event_queue_cancel_churn_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let handles: Vec<_> = (0..1_000u64)
                .map(|i| q.schedule(SimTime::from_micros((i * 7919) % 50_000 + 100_000), i))
                .collect();
            for h in handles.iter().step_by(2) {
                q.cancel(*h);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        })
    });

    // Bulk admission: one reserve + heapify pass instead of per-event
    // sift-ups (the period-release path).
    g.bench_function("event_queue_batch_schedule_4k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            q.schedule_batch(
                (0..4_000u64).map(|i| (SimTime::from_micros((i * 104_729) % 200_000 + 100_000), i)),
            );
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        })
    });

    // Incremental refit: 1k rank-1 Sherman–Morrison updates over the
    // Eq. (3) feature dimension — the per-observation cost that replaced
    // the O(window) batch refit.
    g.bench_function("rls_update_k6_1k", |b| {
        b.iter(|| {
            let mut rls = RecursiveLeastSquares::<6>::new([0.0; 6], 0.98, 1e3);
            for i in 0..1_000u64 {
                let d = 1.0 + (i % 20) as f64;
                let u = 5.0 + (i % 8) as f64 * 10.0;
                let phi = [
                    u * u * d * d * 1e-5,
                    u * d * d * 1e-3,
                    d * d * 1e-1,
                    u * u * d * 1e-3,
                    u * d * 1e-1,
                    d,
                ];
                rls.update(std::hint::black_box(&phi), 0.02 * d * d + 1.2 * d);
            }
            *rls.theta()
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
