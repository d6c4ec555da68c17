//! Hot-path benches guarding the simulator-core performance pass:
//! end-to-end evaluation runs (dispatch chains + scratch buffers; a lossy
//! bus with retransmission and a crash–restart), the ambient-load draw,
//! event queue churn under cancellation (tombstone compaction), and the
//! incremental RLS refit.
//!
//! The first row, `hotpath/reference_kernel`, times a fixed kernel that
//! uses none of the workspace's code, so it measures only how fast the
//! host runs right now; the last row, `hotpath/reference_kernel_end`,
//! times it again. CI runs this bench in quick mode and compares every
//! row, divided by the mean of its own run's two reference rows, against
//! the same ratio in the last record of the checked-in
//! `BENCH_hotpath.json` trajectory (see
//! `scripts/check_bench_regression.py`). A slower or loaded host slows
//! both sides of the ratio, so the bound does not depend on the host that
//! recorded the baseline, and timing the reference at both ends keeps one
//! slow sample from loosening the bound. Record a new baseline
//! (full budget, all rows) with:
//!
//! ```text
//! cargo bench -p rtds-bench --bench hotpath -- --save-json /tmp/hotpath.json
//! python3 scripts/check_bench_regression.py BENCH_hotpath.json /tmp/hotpath.json --append <rev>
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtds_bench::{
    bench_bg_heavy_scenario, bench_degraded_scenario, bench_scenario, run_large_cluster,
};
use rtds_experiments::models::quick_predictor;
use rtds_experiments::scenario::{run_scenario, PatternSpec, PolicySpec};
use rtds_regression::RecursiveLeastSquares;
use rtds_sim::event::EventQueue;
use rtds_sim::ids::{LoadGenId, NodeId};
use rtds_sim::load::{LoadGenerator, PoissonLoad};
use rtds_sim::rng::SimRng;
use rtds_sim::time::{SimDuration, SimTime};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(10);

    // Host calibration: the gate divides every other row by the mean of
    // this row and `reference_kernel_end`, the last.
    assert_eq!(reference::kernel(), reference::CHECKSUM, "reference kernel checksum");
    g.bench_function("reference_kernel", |b| b.iter(reference::kernel));

    // End-to-end evaluation run: the unit of work behind every figure
    // sweep point. Dominated by the dispatch/bg-poll hot loop, so this is
    // where the virtual dispatch chains and scratch buffers show up.
    let predictor = quick_predictor();
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

    // Degraded network: drops, duplicates, a jammed bus, retransmit
    // timers and a crash–restart's bus teardown, the paths no other row
    // takes.
    let cfg = bench_degraded_scenario();
    g.bench_with_input(
        BenchmarkId::new("scenario_run", "degraded"),
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

    // The ambient-load draw alone: 64k Poisson arrivals (two exponential
    // draws each) at the large-cluster rows' utilization and job size.
    // A stack sampler (scripts/sample_profile.py) finds `arrive` on
    // about a fifth of perfbench's `fig9` and `ambient-64` samples, so
    // a slower draw moves their run time by less than its spread; this
    // row shows it alone.
    g.bench_function("rng/poisson_arrive_64k", |b| {
        let mut load = PoissonLoad::with_utilization(
            LoadGenId(0),
            NodeId(0),
            0.60,
            SimDuration::from_millis(2),
        );
        b.iter(|| {
            let mut rng = SimRng::from_seed_stream(0x5EED, 0);
            let mut t = SimTime::ZERO;
            let mut busy = SimDuration::ZERO;
            for _ in 0..65_536 {
                let a = load.arrive(t, &mut rng);
                busy += a.demand;
                t = a.next_at;
            }
            (t, busy)
        })
    });

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

    // The host-speed reference again, after every other row.
    assert_eq!(reference::kernel(), reference::CHECKSUM, "reference kernel checksum");
    g.bench_function("reference_kernel_end", |b| b.iter(reference::kernel));

    g.finish();
}

/// The host-speed reference kernel, copied from perfbench's `calib.rs`:
/// sorts of random keys (unpredictable branches) plus a binary-heap event
/// loop over a 256 KiB table. It must stay a verbatim copy, so that a row's
/// ratio to it means the same here as perfbench's calibrated times.
mod reference {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::hint::black_box;

    /// Checksum of one kernel run; a different value means the kernel did
    /// not do its work.
    pub const CHECKSUM: u64 = 133_921_738_977_946;

    /// Sorts of `SORT_LEN` random keys.
    const SORTS: usize = 2000;
    const SORT_LEN: usize = 2000;
    /// Pop-push steps of the heap event loop.
    const HEAP_STEPS: usize = 1_500_000;
    /// Live events in the heap, as many as nodes × event kinds in a run.
    const HEAP_EVENTS: u32 = 64;
    /// State table the events update: 256 KiB.
    const TABLE_WORDS: usize = 32 * 1024;

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    fn sorts() -> u64 {
        let mut s = 3u64;
        let mut acc = 0u64;
        let mut keys = vec![0u32; SORT_LEN];
        for _ in 0..SORTS {
            for k in keys.iter_mut() {
                *k = xorshift(&mut s) as u32;
            }
            black_box(&mut keys).sort_unstable();
            acc = acc.wrapping_add(u64::from(keys[SORT_LEN / 2]));
        }
        acc
    }

    fn event_loop() -> u64 {
        let mut s = 1u64;
        let mut table = vec![0u64; TABLE_WORDS];
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..HEAP_EVENTS)
            .map(|id| Reverse((xorshift(&mut s) % 1000, id)))
            .collect();
        let mut acc = 0u64;
        for _ in 0..HEAP_STEPS {
            let Some(Reverse((t, id))) = heap.pop() else {
                break;
            };
            let r = xorshift(&mut s);
            let k = (r as usize) & (TABLE_WORDS - 1);
            table[k] = table[k].wrapping_add(t);
            acc = acc.wrapping_add(table[(k * 7 + id as usize) & (TABLE_WORDS - 1)]);
            heap.push(Reverse((t + 1 + r % 1000, id)));
        }
        acc
    }

    /// Runs the kernel once; returns its checksum.
    pub fn kernel() -> u64 {
        black_box(sorts()) ^ black_box(event_loop())
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
