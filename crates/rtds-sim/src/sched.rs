//! CPU ready queues.
//!
//! The paper's testbed runs a round-robin scheduler with a 1 ms time slice
//! (Table 1); [`SchedulerKind::paper_baseline`] reproduces it. FIFO
//! (run-to-completion) and static priority are provided for ablation
//! studies — the latency inflation that the Eq. (3) regression captures
//! depends on the policy, and comparing policies shows the regression
//! pipeline adapting to each. Every kind builds the one [`ReadyQueue`],
//! whose [`Entry`]s carry each ready job's remaining demand and priority.

use std::collections::VecDeque;

use crate::ids::JobId;
use crate::time::SimDuration;

/// Which built-in policy to instantiate on each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum SchedulerKind {
    /// Round-robin with the given quantum (the paper's baseline is 1 ms).
    RoundRobin {
        /// Time-slice in microseconds.
        quantum_us: u64,
    },
    /// FIFO, run-to-completion.
    Fifo,
    /// Non-preemptive static priority (lower number served first), with an
    /// optional quantum applied *within* a priority level.
    StaticPriority {
        /// Optional intra-level time-slice in microseconds.
        quantum_us: Option<u64>,
    },
}

impl SchedulerKind {
    /// The paper's baseline: round-robin, 1 ms slice.
    pub fn paper_baseline() -> Self {
        SchedulerKind::RoundRobin { quantum_us: 1_000 }
    }

    /// Builds an empty ready queue for this policy.
    ///
    /// # Panics
    /// Panics if a quantum is zero (a zero slice would live-lock dispatch).
    pub fn build(self) -> ReadyQueue {
        match self {
            SchedulerKind::RoundRobin { quantum_us } => {
                ReadyQueue::new(Some(SimDuration::from_micros(quantum_us)), false)
            }
            SchedulerKind::Fifo => ReadyQueue::new(None, false),
            SchedulerKind::StaticPriority { quantum_us } => {
                ReadyQueue::new(quantum_us.map(SimDuration::from_micros), true)
            }
        }
    }
}

/// One ready job as its node's queue holds it: the job, the service
/// demand it has still to receive, and its priority. A job's demand
/// travels with it through the queue and the node's
/// [`Running`](crate::node::Running) slot, so a slice end that neither
/// completes the job nor kills its node touches no other job state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Service demand not yet received.
    pub remaining: SimDuration,
    /// The job.
    pub job: JobId,
    /// Scheduling priority (lower number = more urgent); only static
    /// priority reads it.
    pub priority: u8,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

impl Entry {
    /// Applies `served` of CPU service.
    ///
    /// # Panics
    /// Panics in debug builds if serving more than remains.
    #[inline]
    pub fn serve(&mut self, served: SimDuration) {
        debug_assert!(served <= self.remaining, "over-serving job {}", self.job);
        self.remaining -= served;
    }

    /// True once the job has received its whole demand.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.remaining.is_zero()
    }
}

/// One node's ready queue: FIFO levels of [`Entry`]s, served lowest level
/// first, and the time slice after which an unfinished job goes back to
/// the tail of its level.
///
/// Round-robin and FIFO keep every job in one level, so new arrivals and
/// rotated jobs alike join the one tail: with `n` ready jobs under
/// round-robin, a job with service demand `s` observes a response time of
/// roughly `n·s` — the contention the paper's Eq. (3) regression captures
/// as a function of CPU utilization. Under FIFO (no quantum) each job runs
/// to completion, so a stage job's latency depends on the queue it lands
/// behind rather than on time-averaged utilization. Static priority keeps
/// one level per job priority: give stages priority 0 and background
/// priority 1 and contention collapses, flattening the fitted `u` terms.
///
/// Each entry carries its job's remaining demand, which the dispatch
/// engine debits at every slice end and which decides a slice's length;
/// the engine's job slab holds only what a completion or a node's death
/// needs. The queue orders entries and drives nothing: the engine
/// dispatches at quantum boundaries. Its decisions are a deterministic
/// function of its call sequence (`enqueue`/`pick` order) and never depend
/// on job-id values beyond equality: the engine elides provably-inert
/// dispatch events (lone-job quantum chains, the background-load fast
/// path) on the guarantee that replaying the same calls reproduces the
/// same decisions.
#[derive(Debug)]
pub struct ReadyQueue {
    /// Level `i` holds the ready entries of priority `i` in arrival order;
    /// a policy without priorities keeps everything in level 0.
    levels: Vec<VecDeque<Entry>>,
    by_priority: bool,
    quantum: Option<SimDuration>,
    len: usize,
}

impl ReadyQueue {
    fn new(quantum: Option<SimDuration>, by_priority: bool) -> Self {
        assert!(quantum.is_none_or(|q| !q.is_zero()), "scheduling quantum must be positive");
        ReadyQueue {
            levels: vec![VecDeque::new()],
            by_priority,
            quantum,
            len: 0,
        }
    }

    /// Appends an entry to the tail of its level: a new arrival, or a job
    /// whose quantum expired unfinished.
    #[inline]
    pub fn enqueue(&mut self, entry: Entry) {
        let level = if self.by_priority { usize::from(entry.priority) } else { 0 };
        if level >= self.levels.len() {
            self.levels.resize_with(level + 1, VecDeque::new);
        }
        self.levels[level].push_back(entry);
        self.len += 1;
    }

    /// Removes and returns the head of the lowest non-empty level, if any.
    #[inline]
    pub fn pick(&mut self) -> Option<Entry> {
        let entry = self.levels.iter_mut().find_map(VecDeque::pop_front)?;
        self.len -= 1;
        Some(entry)
    }

    /// The time slice after which an unfinished job is put back, or `None`
    /// for run-to-completion.
    #[inline]
    pub fn quantum(&self) -> Option<SimDuration> {
        self.quantum
    }

    /// Number of ready (not currently running) entries.
    #[inline]
    pub fn ready_len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [SchedulerKind; 5] = [
        SchedulerKind::RoundRobin { quantum_us: 1_000 },
        SchedulerKind::RoundRobin { quantum_us: 500 },
        SchedulerKind::Fifo,
        SchedulerKind::StaticPriority { quantum_us: None },
        SchedulerKind::StaticPriority { quantum_us: Some(1_000) },
    ];

    /// An entry for job `job` at priority `priority` with 1 ms of demand.
    fn entry(job: u32, priority: u8) -> Entry {
        Entry { remaining: SimDuration::from_millis(1), job: JobId(job), priority }
    }

    /// Enqueues `(job, priority)` entries, then drains the queue.
    fn drain_order(kind: SchedulerKind, jobs: &[(u32, u8)]) -> Vec<u32> {
        let mut q = kind.build();
        for &(j, p) in jobs {
            q.enqueue(entry(j, p));
        }
        std::iter::from_fn(|| q.pick()).map(|e| e.job.0).collect()
    }

    #[test]
    fn each_kind_builds_its_quantum() {
        assert_eq!(SchedulerKind::paper_baseline(), KINDS[0]);
        let ms = SimDuration::from_millis;
        let expected = [Some(ms(1)), Some(SimDuration::from_micros(500)), None, None, Some(ms(1))];
        for (kind, quantum) in KINDS.into_iter().zip(expected) {
            assert_eq!(kind.build().quantum(), quantum, "{kind:?}");
        }
    }

    #[test]
    fn one_level_is_served_in_arrival_order() {
        for kind in KINDS {
            assert_eq!(drain_order(kind, &[(1, 1), (2, 1), (3, 1), (4, 1)]), [1, 2, 3, 4], "{kind:?}");
        }
    }

    #[test]
    fn a_rotated_entry_rejoins_the_tail_of_its_level_with_its_reduced_demand() {
        let ms = SimDuration::from_millis;
        for kind in KINDS {
            let mut q = kind.build();
            q.enqueue(Entry { remaining: ms(3), ..entry(1, 1) });
            q.enqueue(entry(2, 1));
            let mut first = q.pick().unwrap();
            first.serve(ms(1));
            q.enqueue(first);
            assert_eq!(q.pick(), Some(entry(2, 1)), "{kind:?}");
            assert_eq!(q.pick(), Some(Entry { remaining: ms(2), ..entry(1, 1) }), "{kind:?}");
        }
    }

    #[test]
    fn rotation_is_fair_over_many_rounds() {
        for kind in KINDS {
            let mut q = kind.build();
            for i in 0..4 {
                q.enqueue(entry(i, 0));
            }
            let mut counts = [0u32; 4];
            for _ in 0..400 {
                let e = q.pick().unwrap();
                counts[e.job.index()] += 1;
                q.enqueue(e);
            }
            assert!(counts.iter().all(|&c| c == 100), "{kind:?}: {counts:?}");
        }
    }

    #[test]
    fn an_entrys_priority_picks_its_level_only_under_static_priority() {
        for kind in KINDS {
            let by_priority = matches!(kind, SchedulerKind::StaticPriority { .. });
            let expected = if by_priority { [20, 30, 10] } else { [10, 20, 30] };
            assert_eq!(drain_order(kind, &[(10, 2), (20, 0), (30, 1)]), expected, "{kind:?}");
        }
    }

    #[test]
    fn a_late_urgent_arrival_wins_the_next_pick_only_under_static_priority() {
        for kind in KINDS {
            let mut q = kind.build();
            q.enqueue(entry(1, 5));
            q.enqueue(entry(2, 5));
            q.pick();
            q.enqueue(entry(3, 0));
            let urgent = matches!(kind, SchedulerKind::StaticPriority { .. });
            assert_eq!(q.pick().map(|e| e.job), Some(JobId(if urgent { 3 } else { 2 })), "{kind:?}");
        }
    }

    #[test]
    fn ready_len_counts_entries_across_levels() {
        for kind in KINDS {
            let mut q = kind.build();
            assert_eq!(q.ready_len(), 0, "{kind:?}");
            q.enqueue(entry(1, 0));
            q.enqueue(entry(2, 7));
            q.enqueue(entry(3, 7));
            assert_eq!(q.ready_len(), 3, "{kind:?}");
            q.pick();
            assert_eq!(q.ready_len(), 2, "{kind:?}");
            q.pick();
            q.pick();
            assert_eq!(q.ready_len(), 0, "{kind:?}");
            assert_eq!(q.pick(), None, "{kind:?}");
        }
    }

    #[test]
    fn serving_runs_an_entry_to_completion() {
        let mut e = Entry { remaining: SimDuration::from_millis(3), ..entry(0, 0) };
        e.serve(SimDuration::from_millis(1));
        assert_eq!(e.remaining, SimDuration::from_millis(2));
        assert!(!e.is_complete());
        e.serve(SimDuration::from_millis(2));
        assert!(e.is_complete());
    }

    #[test]
    #[should_panic(expected = "over-serving")]
    #[cfg(debug_assertions)]
    fn over_serving_panics() {
        entry(0, 0).serve(SimDuration::from_millis(2));
    }

    #[test]
    fn a_zero_quantum_is_rejected() {
        let zero = [
            SchedulerKind::RoundRobin { quantum_us: 0 },
            SchedulerKind::StaticPriority { quantum_us: Some(0) },
        ];
        for kind in zero {
            let panic = std::panic::catch_unwind(|| kind.build()).expect_err("zero quantum built");
            let msg = panic.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("quantum must be positive"), "{kind:?}: {msg:?}");
        }
    }
}
