//! Zero-cost-when-disabled performance instrumentation.
//!
//! The simulator's hot loop pops millions of events per experiment; this
//! module lets a run account for where that time goes without taxing
//! normal runs. When disabled (the default) the only cost is one branch
//! per popped event. When enabled, the engine records per-event-kind
//! counts and wall nanoseconds, controller-epoch timing, event-queue
//! operation statistics, and — if the embedder supplies an allocation
//! probe — heap allocations per control epoch.
//!
//! The allocation probe is a plain `fn() -> u64` returning a monotone
//! allocation count. The simulator crate forbids `unsafe`, so it cannot
//! install a counting global allocator itself; binaries that want
//! allocation numbers install their own counting allocator and pass its
//! reader in (see `run_all --perf`).

use std::ops::AddAssign;
use std::time::Instant;

use crate::event::QueueStats;

/// Number of distinct event kinds the engine dispatches on.
pub const N_PHASES: usize = 11;

/// Labels for the per-kind breakdown, in engine dispatch order.
pub const PHASE_NAMES: [&str; N_PHASES] = [
    "period_release",
    "dispatch",
    "bg_poll",
    "tx_complete",
    "deliver",
    "clock_sync",
    "sample",
    "node_fail",
    "node_crash",
    "node_restart",
    "retx_timeout",
];

/// Everything measured by an instrumented run.
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    /// Events handled, by kind (indexed as [`PHASE_NAMES`]).
    pub events: [u64; N_PHASES],
    /// Wall nanoseconds spent handling each kind.
    pub ns: [u64; N_PHASES],
    /// Event-queue operation counters (pops, cancels, compactions, heap
    /// high-water mark).
    pub queue: QueueStats,
    /// Controller invocations (control epochs).
    pub control_epochs: u64,
    /// Wall nanoseconds inside the controller (subset of the
    /// `period_release` phase).
    pub controller_ns: u64,
    /// Intermediate links of the dispatch chains: per-quantum dispatches
    /// of lone jobs, replayed node-locally in closed form, without a
    /// round-trip through the event heap (untimed).
    pub elided_dispatches: u64,
    /// `BgPoll` events fired from the generator lanes of the
    /// background-load fast path instead of the event heap (untimed).
    pub elided_bg_polls: u64,
    /// `Dispatch` events of background-only nodes, replayed node-locally
    /// by the background-load fast path (untimed).
    pub elided_bg_dispatches: u64,
    /// Draws taken from the kernel's RNG stream over the cluster's life
    /// (the clock model at construction included).
    pub rng_draws: u64,
    /// Heap allocations observed across all control epochs, if an
    /// allocation probe was supplied.
    pub epoch_allocs: Option<u64>,
    /// Total wall nanoseconds of the run loop.
    pub wall_ns: u64,
}

impl PerfReport {
    /// Mean heap allocations per control epoch, if probed.
    pub fn allocs_per_epoch(&self) -> Option<f64> {
        let a = self.epoch_allocs?;
        if self.control_epochs == 0 {
            return Some(0.0);
        }
        Some(a as f64 / self.control_epochs as f64)
    }

    /// Renders an aligned, human-readable table. The headline counts
    /// heap events popped plus untimed lane fires (the three `elided_*`
    /// counters), which between them carry nearly all of a run's work.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let lane_fires =
            self.elided_dispatches + self.elided_bg_polls + self.elided_bg_dispatches;
        let total = self.queue.popped + lane_fires;
        let _ = writeln!(
            out,
            "perf: {} events ({} heap + {} lane fires) in {:.1} ms ({:.0} ns/event)",
            total,
            self.queue.popped,
            lane_fires,
            self.wall_ns as f64 / 1e6,
            self.wall_ns as f64 / total.max(1) as f64,
        );
        let _ = writeln!(out, "  {:<16} {:>12} {:>12} {:>10}", "phase", "events", "ms", "ns/event");
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            if self.events[i] == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12.2} {:>10.0}",
                name,
                self.events[i],
                self.ns[i] as f64 / 1e6,
                self.ns[i] as f64 / self.events[i] as f64,
            );
        }
        if self.elided_dispatches > 0 {
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12} {:>10} (chain link, node-local replay)",
                "dispatch-elided", self.elided_dispatches, "-", "-"
            );
        }
        if self.elided_bg_polls > 0 {
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12} {:>10} (bg fast path, no heap round-trip)",
                "bg_poll-elided", self.elided_bg_polls, "-", "-"
            );
        }
        if self.elided_bg_dispatches > 0 {
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12} {:>10} (bg fast path, node-local replay)",
                "bg_disp-elided", self.elided_bg_dispatches, "-", "-"
            );
        }
        let q = &self.queue;
        let _ = writeln!(
            out,
            "  queue: scheduled={} popped={} cancelled={} compactions={} heap_high_water={}",
            q.scheduled, q.popped, q.cancelled, q.compactions, q.heap_high_water
        );
        let _ = writeln!(out, "  rng: draws={}", self.rng_draws);
        let _ = write!(
            out,
            "  control: epochs={} controller_ms={:.2}",
            self.control_epochs,
            self.controller_ns as f64 / 1e6
        );
        if let Some(a) = self.allocs_per_epoch() {
            let _ = write!(out, " allocs/epoch={a:.1}");
        }
        out.push('\n');
        out
    }
}

/// Folds another run's report into this one: every count and time sums,
/// `heap_high_water` takes the max, and `epoch_allocs` sums over the runs
/// that were probed.
impl AddAssign<&PerfReport> for PerfReport {
    fn add_assign(&mut self, r: &PerfReport) {
        for i in 0..N_PHASES {
            self.events[i] += r.events[i];
            self.ns[i] += r.ns[i];
        }
        let (q, rq) = (&mut self.queue, &r.queue);
        q.scheduled += rq.scheduled;
        q.popped += rq.popped;
        q.cancelled += rq.cancelled;
        q.compactions += rq.compactions;
        q.heap_high_water = q.heap_high_water.max(rq.heap_high_water);
        self.control_epochs += r.control_epochs;
        self.controller_ns += r.controller_ns;
        self.elided_dispatches += r.elided_dispatches;
        self.elided_bg_polls += r.elided_bg_polls;
        self.elided_bg_dispatches += r.elided_bg_dispatches;
        self.rng_draws += r.rng_draws;
        if let Some(a) = r.epoch_allocs {
            *self.epoch_allocs.get_or_insert(0) += a;
        }
        self.wall_ns += r.wall_ns;
    }
}

/// Live instrumentation state owned by a running cluster.
pub(crate) struct PerfState {
    pub report: PerfReport,
    /// Monotone allocation counter supplied by the embedder, if any.
    pub alloc_probe: Option<fn() -> u64>,
    pub run_started: Option<Instant>,
}

impl PerfState {
    pub fn new(alloc_probe: Option<fn() -> u64>) -> Self {
        PerfState {
            report: PerfReport::default(),
            alloc_probe,
            run_started: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_only_active_phases() {
        let mut r = PerfReport::default();
        r.events[1] = 10;
        r.ns[1] = 5_000;
        r.wall_ns = 10_000;
        let s = r.render();
        assert!(s.contains("dispatch"));
        assert!(!s.contains("bg_poll"), "inactive phase hidden:\n{s}");
        assert!(s.contains("queue:"));
    }

    #[test]
    fn allocs_per_epoch_requires_probe() {
        let mut r = PerfReport::default();
        assert_eq!(r.allocs_per_epoch(), None);
        r.epoch_allocs = Some(120);
        r.control_epochs = 60;
        assert_eq!(r.allocs_per_epoch(), Some(2.0));
        r.control_epochs = 0;
        assert_eq!(r.allocs_per_epoch(), Some(0.0));
    }

    #[test]
    fn render_shows_elision_counters_when_nonzero() {
        let mut r = PerfReport::default();
        let s = r.render();
        assert!(!s.contains("bg_poll-elided"));
        assert!(!s.contains("bg_disp-elided"));
        assert!(s.starts_with("perf: 0 events (0 heap + 0 lane fires)"), "{s}");
        r.queue.popped = 100;
        r.elided_dispatches = 1_000;
        r.elided_bg_polls = 42;
        r.elided_bg_dispatches = 7;
        r.wall_ns = 1_149_000;
        let s = r.render();
        assert!(s.contains("bg_poll-elided"), "missing bg poll line:\n{s}");
        assert!(s.contains("42"));
        assert!(s.contains("bg_disp-elided"), "missing bg dispatch line:\n{s}");
        // The headline counts heap pops plus lane fires, and divides the
        // wall time by both.
        let headline = "perf: 1149 events (100 heap + 1049 lane fires) in 1.1 ms (1000 ns/event)";
        assert!(s.starts_with(headline), "headline must count lane fires:\n{s}");
    }

    #[test]
    fn add_assign_folds_every_field() {
        // Every field distinct: `base` plus `k` times a per-field constant.
        // The literals name every field, so a new field fails to compile
        // here until the fold above handles it.
        let report = |base: u64, k: u64| PerfReport {
            events: std::array::from_fn(|i| base + k * i as u64),
            ns: std::array::from_fn(|i| base + k * (100 + i as u64)),
            queue: QueueStats {
                scheduled: base + 11 * k,
                popped: base + 12 * k,
                cancelled: base + 13 * k,
                compactions: base + 14 * k,
                heap_high_water: (base + 15 * k) as usize,
            },
            control_epochs: base + 16 * k,
            controller_ns: base + 17 * k,
            elided_dispatches: base + 18 * k,
            elided_bg_polls: base + 19 * k,
            elided_bg_dispatches: base + 20 * k,
            rng_draws: base + 23 * k,
            epoch_allocs: Some(base + 21 * k),
            wall_ns: base + 22 * k,
        };
        let mut acc = report(1_000, 1);
        acc += &report(5_000, 1);
        let mut want = report(6_000, 2);
        want.queue.heap_high_water = 5_015; // the max, not the sum
        assert_eq!(format!("{acc:?}"), format!("{want:?}"));

        // Allocation counts sum over probed runs only.
        let mut acc = PerfReport::default();
        acc += &PerfReport::default();
        assert_eq!(acc.epoch_allocs, None, "no probe, no count");
        acc += &report(0, 1);
        acc += &PerfReport::default();
        assert_eq!(acc.epoch_allocs, Some(21));
    }
}
