//! Allocation gate for the steady-state period path.
//!
//! A counting global allocator tallies, per thread, every heap
//! allocation (and reallocation) made inside `Cluster::run` for one fixed
//! scenario built like the benchmark's `degraded` grid: Table 1's six
//! nodes and AAW task under the Fig. 9 triangular workload, a lossy,
//! periodically jammed bus with retransmission, crash–restarts, and the
//! predictive manager with online refinement. Running the same scenario
//! to two horizons and dividing the difference by the extra periods
//! cancels set-up and finalization, leaving the cost of one steady-state
//! period: releasing and executing an instance, moving its messages, and
//! one control epoch.
//!
//! What remains, about 16 per period, is the output rows a run records
//! (a CPU-utilization row per sample, a period record's replica counts)
//! and the work of epochs that act: the copy-on-write placement clone,
//! the new replica sets and the EQF re-assignment. Before per-instance
//! state and the controller's working buffers were recycled, the same
//! scenario allocated 83.0 times per period.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtds::arm::config::ArmConfig;
use rtds::arm::manager::ResourceManager;
use rtds::experiments::models::quick_predictor;
use rtds::experiments::scenario::PatternSpec;
use rtds::prelude::*;
use rtds::sim::net::JamWindow;
use rtds::workloads::WorkloadRange;

/// Forwards to `System` and counts allocations on the calling thread, so
/// tests running in parallel do not see each other's traffic.
struct PerThreadCounter;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract carries over; the counter is a
// const-initialized thread-local `Cell` that guards no memory and never
// allocates.
unsafe impl GlobalAlloc for PerThreadCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PerThreadCounter = PerThreadCounter;

/// Upper bound on steady-state allocations per period.
const MAX_ALLOCS_PER_PERIOD: f64 = 20.0;

/// Builds the scenario to `periods` one-second periods and returns the
/// allocations made inside `Cluster::run`.
fn allocs_in_run(periods: u64) -> u64 {
    let mut config = ClusterConfig::paper_baseline(42, SimDuration::from_secs(periods));
    config.clock = ClockConfig::lan_default();
    config.bus.drop_prob = 0.10;
    config.bus.dup_prob = 0.02;
    config.bus.retx_timeout_us = 80_000;
    config.bus.jam = Some(JamWindow {
        start_us: 10_000_000,
        duration_us: 2_000_000,
        bandwidth_factor: 0.25,
        repeat_us: 20_000_000,
    });
    let mut cluster = Cluster::new(config);
    let range = WorkloadRange::new(500, 12_000);
    let mut pattern = PatternSpec::Triangular { half_period: 30 }.build(range);
    cluster.add_task(aaw_task(), Box::new(move |period| pattern.tracks_at(period)));
    let mut arm = ArmConfig::paper_predictive();
    arm.online_refinement = true;
    cluster.set_controller(Box::new(ResourceManager::new(arm, quick_predictor())));
    // Crash–restarts as in the degraded grid; a crash past the horizon is
    // left out, so the longer run also covers one in its extra periods.
    for (node, at_s, restart_s) in [(2, 60, 10), (4, 150, 20)] {
        if at_s <= periods {
            let restart = Some(SimDuration::from_secs(restart_s));
            cluster.crash_node_at(NodeId(node), SimTime::from_secs(at_s), restart);
        }
    }
    let before = allocations();
    let outcome = cluster.run();
    let used = allocations() - before;
    assert_eq!(outcome.metrics.periods.len() as u64, periods + 1);
    used
}

#[test]
fn steady_state_period_allocations_are_bounded() {
    let short = allocs_in_run(120);
    let long = allocs_in_run(240);
    let per_period = (long - short) as f64 / 120.0;
    println!("allocations: 120 periods {short}, 240 periods {long}, {per_period:.1} per period");
    assert!(
        per_period <= MAX_ALLOCS_PER_PERIOD,
        "{per_period:.1} allocations per steady-state period (bound {MAX_ALLOCS_PER_PERIOD})"
    );
}
