//! Processor nodes.
//!
//! A [`Node`] is one homogeneous processor with private memory (paper §3,
//! item 12): a CPU scheduler, at most one running job, and busy-time
//! accounting from which both the run-level average CPU utilization metric
//! and the controller-visible utilization estimate `ut(p, t)` are derived.

use crate::event::EventHandle;
use crate::ids::{JobId, NodeId};
use crate::sched::ReadyQueue;
use crate::time::{SimDuration, SimTime};

/// The job currently holding the CPU and the slice it was granted.
#[derive(Debug, Clone, Copy)]
pub struct Running {
    /// The dispatched job.
    pub job: JobId,
    /// When the slice began.
    pub slice_start: SimTime,
    /// Scheduled end of the slice (quantum boundary or job completion).
    pub slice_end: SimTime,
    /// Handle of the pending dispatch event, for cancellation on reconfig.
    /// `None` while the slice end is carried off the heap, node-locally
    /// (a lone job's quantum chain, whose completion a stage job also
    /// arms on the node's lane, or any boundary of a node running only
    /// background jobs). Neither needs cancellation — disarming the lane
    /// invalidates its heap entry, and a node-local boundary is simply
    /// dropped.
    pub dispatch_handle: Option<EventHandle>,
}

/// One processor.
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Ready queue under the cluster's scheduling policy.
    pub sched: ReadyQueue,
    /// Currently running job, if any.
    pub running: Option<Running>,
    /// False once the node has been killed by fault injection; a dead
    /// node never dispatches again and its jobs are lost.
    pub alive: bool,
    /// Total CPU-busy time accumulated over completed busy intervals.
    busy_accum: SimDuration,
    /// Start of the in-progress busy interval, if the CPU is busy.
    busy_since: Option<SimTime>,
    /// Exponentially-weighted utilization estimate, updated by periodic
    /// sampling; this is what the resource manager observes as `ut(p, t)`.
    util_ewma: f64,
    /// Busy total at the previous utilization sample.
    sampled_busy: SimDuration,
    /// Time of the previous utilization sample.
    sampled_at: SimTime,
    /// Samples still to take before a restarted node's EWMA counts as
    /// warmed up again; 0 for a node that never crashed.
    warmup_left: u32,
}

impl Node {
    /// Smoothing factor for the observed-utilization EWMA. Chosen so that
    /// roughly the last ~3 samples dominate: fast enough to track the
    /// paper's per-period workload changes, slow enough to damp quantum
    /// granularity noise.
    pub const EWMA_ALPHA: f64 = 0.4;

    /// How many utilization samples a restarted node needs before its EWMA
    /// is trusted again. Matches the ~3-sample horizon [`Self::EWMA_ALPHA`]
    /// was tuned for: until then the estimate is dominated by the cold
    /// post-restart zeros, not by real load.
    pub const COLD_SAMPLES: u32 = 3;

    /// Creates an idle node with the given (empty) ready queue.
    pub fn new(id: NodeId, sched: ReadyQueue) -> Self {
        Node {
            id,
            sched,
            running: None,
            alive: true,
            busy_accum: SimDuration::ZERO,
            busy_since: None,
            util_ewma: 0.0,
            sampled_busy: SimDuration::ZERO,
            sampled_at: SimTime::ZERO,
            warmup_left: 0,
        }
    }

    /// Brings a crashed node back online at `now` with cold caches and
    /// empty queues: no running job, nothing in the ready queue, and the
    /// utilization estimate reset. Busy-time *totals* are kept — they feed
    /// the run-level average CPU metric, which spans the whole mission.
    /// Until [`Self::COLD_SAMPLES`] fresh samples arrive the node reports
    /// [`Self::is_cold`] so controllers treat its utilization as missing
    /// rather than zero.
    pub fn restart(&mut self, now: SimTime) {
        debug_assert!(!self.alive, "restarting a node that is alive");
        self.alive = true;
        self.running = None;
        // `FaultEngine::kill_node` drained the queue, failing the lost
        // jobs' instances and freeing their slots.
        debug_assert_eq!(self.sched.ready_len(), 0, "restarting a node with ready jobs");
        self.busy_since = None;
        self.util_ewma = 0.0;
        self.sampled_busy = self.busy_accum;
        self.sampled_at = now;
        self.warmup_left = Self::COLD_SAMPLES;
    }

    /// True while a restarted node's utilization estimate is still warming
    /// up and should be treated as missing.
    pub fn is_cold(&self) -> bool {
        self.warmup_left > 0
    }

    /// Marks the CPU busy starting at `now` (idempotent).
    pub fn begin_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Marks the CPU idle at `now`, folding the interval into the total.
    pub fn end_busy(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.busy_accum += now.since(since);
        }
    }

    /// Total busy time up to `now`, including any in-progress interval.
    pub fn busy_total(&self, now: SimTime) -> SimDuration {
        match self.busy_since {
            Some(since) => self.busy_accum + now.since(since),
            None => self.busy_accum,
        }
    }

    /// Lifetime-average utilization in `[0, 1]` over `[0, now]`.
    pub fn lifetime_utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        self.busy_total(now).as_secs_f64() / now.as_secs_f64()
    }

    /// Takes a utilization sample over the interval since the previous
    /// sample and folds it into the EWMA estimate. Returns the raw
    /// utilization of the sampled interval in `[0, 1]`.
    pub fn sample_utilization(&mut self, now: SimTime) -> f64 {
        let busy = self.busy_total(now);
        let interval = now.saturating_since(self.sampled_at);
        let raw = if interval.is_zero() {
            self.util_ewma
        } else {
            (busy.saturating_sub(self.sampled_busy)).as_secs_f64() / interval.as_secs_f64()
        };
        self.util_ewma = Self::EWMA_ALPHA * raw + (1.0 - Self::EWMA_ALPHA) * self.util_ewma;
        self.sampled_busy = busy;
        self.sampled_at = now;
        self.warmup_left = self.warmup_left.saturating_sub(1);
        raw
    }

    /// The smoothed utilization estimate the controller sees as `ut(p, t)`,
    /// as a **percentage** in `[0, 100]` — the unit Eq. (3) uses.
    pub fn observed_utilization_pct(&self) -> f64 {
        (self.util_ewma * 100.0).clamp(0.0, 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedulerKind;

    fn node() -> Node {
        Node::new(NodeId(0), SchedulerKind::paper_baseline().build())
    }

    #[test]
    fn busy_accounting_accumulates_intervals() {
        let mut n = node();
        n.begin_busy(SimTime::from_millis(10));
        n.end_busy(SimTime::from_millis(15));
        n.begin_busy(SimTime::from_millis(20));
        n.end_busy(SimTime::from_millis(22));
        assert_eq!(n.busy_total(SimTime::from_millis(30)), SimDuration::from_millis(7));
    }

    #[test]
    fn busy_total_includes_open_interval() {
        let mut n = node();
        n.begin_busy(SimTime::from_millis(10));
        assert_eq!(n.busy_total(SimTime::from_millis(14)), SimDuration::from_millis(4));
    }

    #[test]
    fn begin_busy_is_idempotent() {
        let mut n = node();
        n.begin_busy(SimTime::from_millis(10));
        n.begin_busy(SimTime::from_millis(12)); // must not reset the start
        n.end_busy(SimTime::from_millis(20));
        assert_eq!(n.busy_total(SimTime::from_millis(20)), SimDuration::from_millis(10));
    }

    #[test]
    fn end_busy_without_begin_is_a_noop() {
        let mut n = node();
        n.end_busy(SimTime::from_millis(5));
        assert_eq!(n.busy_total(SimTime::from_millis(5)), SimDuration::ZERO);
    }

    #[test]
    fn lifetime_utilization_is_busy_fraction() {
        let mut n = node();
        n.begin_busy(SimTime::ZERO);
        n.end_busy(SimTime::from_millis(25));
        let u = n.lifetime_utilization(SimTime::from_millis(100));
        assert!((u - 0.25).abs() < 1e-9, "{u}");
        assert_eq!(node().lifetime_utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn sampling_converges_to_steady_utilization() {
        let mut n = node();
        // 50% duty cycle: busy 5ms of every 10ms.
        for i in 0..50u64 {
            n.begin_busy(SimTime::from_millis(i * 10));
            n.end_busy(SimTime::from_millis(i * 10 + 5));
            n.sample_utilization(SimTime::from_millis((i + 1) * 10));
        }
        let u = n.observed_utilization_pct();
        assert!((u - 50.0).abs() < 1.0, "EWMA should converge to 50%, got {u}");
    }

    #[test]
    fn sample_with_zero_interval_keeps_estimate() {
        let mut n = node();
        n.begin_busy(SimTime::ZERO);
        n.end_busy(SimTime::from_millis(10));
        n.sample_utilization(SimTime::from_millis(10));
        let before = n.observed_utilization_pct();
        n.sample_utilization(SimTime::from_millis(10));
        // EWMA folds in its own previous value; estimate must not jump.
        assert!((n.observed_utilization_pct() - before).abs() < 1e-9 * 100.0 + 1e-6);
    }

    #[test]
    fn observed_utilization_is_percent_clamped() {
        let n = node();
        assert_eq!(n.observed_utilization_pct(), 0.0);
    }

    #[test]
    fn restart_resets_estimate_and_marks_cold() {
        let mut n = node();
        assert!(!n.is_cold(), "fresh nodes are not cold");
        // Build up a warm estimate, then crash.
        n.begin_busy(SimTime::ZERO);
        n.end_busy(SimTime::from_millis(80));
        n.sample_utilization(SimTime::from_millis(100));
        assert!(n.observed_utilization_pct() > 0.0);
        n.alive = false;
        n.restart(SimTime::from_millis(200));
        assert!(n.alive);
        assert!(n.is_cold());
        assert_eq!(n.observed_utilization_pct(), 0.0, "estimate resets on restart");
        // Busy totals survive the restart (they feed the run-level metric).
        assert_eq!(n.busy_total(SimTime::from_millis(200)), SimDuration::from_millis(80));
        // Cold clears after COLD_SAMPLES fresh samples.
        for i in 1..=Node::COLD_SAMPLES as u64 {
            assert!(n.is_cold());
            n.sample_utilization(SimTime::from_millis(200 + i * 100));
        }
        assert!(!n.is_cold());
    }
}
