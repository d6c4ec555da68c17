//! Process-global performance monitoring for `--perf` runs.
//!
//! `run_all` runs many simulations through [`crate::scenario`];
//! threading a perf flag through every call site would ripple the
//! scenario API for a purely diagnostic concern. Instead this module
//! holds one process-global switch plus an aggregate, and one hook that
//! runs a cluster: every simulation of the experiment layer — the
//! scenario runners, the ablations and every extension — goes through
//! it. When enabled, the hook instruments the cluster and folds the
//! resulting [`PerfReport`] into the aggregate, which the binary prints
//! at exit. A run that a policy group
//! ([`crate::scenario::run_policies`]) shares between several policies
//! counts once, and its control-epoch time and allocations include the
//! lockstep calls of the policies still in step with the first one.
//!
//! The profiling campaign (`tables`, `fig2`–`fig4`, `profile`, and the
//! fitted models behind the other figures) builds its clusters inside
//! `rtds-dynbench` and is not counted.
//!
//! The allocation probe is a monotone allocation counter. The library
//! crates forbid `unsafe`, so the `run_all` binary installs its own
//! counting global allocator and registers the reader here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use rtds_sim::cluster::{Cluster, ClusterApi, RunOutcome};
use rtds_sim::perf::PerfReport;

static ENABLED: AtomicBool = AtomicBool::new(false);
static PROBE: OnceLock<fn() -> u64> = OnceLock::new();
static AGG: Mutex<Option<Aggregate>> = Mutex::new(None);

/// Sum of all instrumented runs so far.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Instrumented simulation runs recorded.
    pub runs: u64,
    /// Every run's report, folded with `+=`.
    pub report: PerfReport,
}

/// Turns instrumentation on for all subsequent scenario runs in this
/// process. `alloc_probe` must be a monotone allocation counter
/// (typically backed by a counting global allocator).
pub fn enable(alloc_probe: fn() -> u64) {
    let _ = PROBE.set(alloc_probe);
    ENABLED.store(true, Ordering::Release);
}

/// Runs `cluster` to its horizon: instrumented, with its report folded
/// into the aggregate, when `--perf` is on.
pub(crate) fn run(mut cluster: Cluster) -> RunOutcome {
    if ENABLED.load(Ordering::Acquire) {
        cluster.enable_perf(PROBE.get().copied());
    }
    let outcome = cluster.run();
    if let Some(p) = &outcome.perf {
        record(p);
    }
    outcome
}

/// Clears the aggregate so a new batch of runs starts from zero.
///
/// The aggregate is process-global; without this, consecutive batches in
/// one process (`run_all` invoking several figures, or a binary reused
/// for a second sweep) silently fold into each other and the printed
/// "aggregated over N runs" counts work from the previous batch. The
/// enable switch and the allocation probe are *not* cleared — the probe
/// is a process-lifetime reader and `OnceLock` can't be unset.
pub fn reset() {
    *AGG.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// Folds one run's report into the process aggregate.
fn record(r: &PerfReport) {
    let mut guard = AGG.lock().unwrap_or_else(|e| e.into_inner());
    let agg = guard.get_or_insert_with(Aggregate::default);
    agg.runs += 1;
    agg.report += r;
}

/// A snapshot of the aggregate, if any runs were recorded.
pub fn snapshot() -> Option<Aggregate> {
    AGG.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Renders an aggregate for end-of-run printing.
pub fn summary(agg: &Aggregate) -> String {
    let header = format!("== perf (aggregated over {} simulation runs) ==", agg.runs);
    format!("{header}\n{}", agg.report.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The switch and aggregate are process-global, so the whole
    // lifecycle lives in ONE test: parallel sibling tests calling
    // reset()/record() would race each other on the shared AGG. The
    // test never calls enable() (which would leak instrumentation into
    // every other test sharing the process).

    #[test]
    fn aggregate_lifecycle_accumulates_resets_and_reports_allocs() {
        reset();
        assert!(snapshot().is_none(), "reset leaves no aggregate");

        // Two identical probe-less runs accumulate.
        let mut r = PerfReport::default();
        r.events[1] = 5;
        r.ns[1] = 500;
        r.queue.popped = 5;
        r.queue.heap_high_water = 7;
        r.control_epochs = 2;
        r.wall_ns = 1_000;
        record(&r);
        record(&r);
        let agg = snapshot().expect("aggregate exists");
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.report.events[1], 10);
        assert_eq!(agg.report.queue.popped, 10);
        assert_eq!(agg.report.queue.heap_high_water, 7);
        assert!(summary(&agg).contains("dispatch"));

        // A probed run: render() divides its allocations by its epochs.
        reset();
        let mut probed = r.clone();
        probed.control_epochs = 3;
        probed.epoch_allocs = Some(120);
        record(&probed);
        let s = summary(&snapshot().expect("non-empty"));
        assert!(s.contains("allocs/epoch=40.0"), "{s}");

        // And a batch restart starts the count from zero again.
        reset();
        assert!(snapshot().is_none());
    }
}
