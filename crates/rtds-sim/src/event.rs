//! Generic discrete-event queue.
//!
//! A deterministic priority queue of `(time, event)` pairs. Ties in time are
//! broken by insertion order (a monotone sequence number), so two runs with
//! the same inputs pop events in exactly the same order — a prerequisite for
//! reproducible experiments.
//!
//! Allocated sequence numbers are odd (1, 3, 5, …). The even number just
//! below the next one, [`EventQueue::tie_seq`], is a *tie slot*: an event
//! that was never scheduled, recorded with the tie slot current when it
//! would have been, sorts after everything allocated before that point and
//! before everything allocated after it — the order it would have had.
//!
//! The heap is the kernel's shared one (`kheap::KHeap`), keyed by the packed
//! `(time, seq)`; its entries are small `Copy` records naming a slot, and
//! the event payload waits in that slot of a generation-stamped slot
//! table. Cancellation is lazy (O(1)): the slot gives up its payload and
//! the heap entry stays behind as a tombstone, dropped when it surfaces.
//! The schedule/cancel/pop hot path does no hashing and no per-event
//! allocation; when tombstones outnumber live entries the heap is
//! compacted in one pass, bounding both memory and pop-skip work.

use crate::kheap::{pack, KHeap, Keyed};
use crate::time::SimTime;

/// A handle to a scheduled event, usable for cancellation.
///
/// Handles are generation-stamped: once the event is popped or cancelled,
/// the handle goes stale and any further `cancel` through it reports
/// `false`, even if the internal slot has been reused since.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    gen: u32,
}

/// Operation counters, exposed for the perf layer and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events delivered by `pop`.
    pub popped: u64,
    /// Successful cancellations.
    pub cancelled: u64,
    /// Tombstone compaction passes performed.
    pub compactions: u64,
    /// Largest heap population observed (live + tombstones).
    pub heap_high_water: usize,
}

/// A heap entry: the event's key and the slot holding its payload. Ties
/// in time pop lowest sequence number first (FIFO among simultaneous
/// events).
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Keyed for Entry {
    #[inline(always)]
    fn key(&self) -> u128 {
        pack(self.time, self.seq)
    }
}

/// One slot of the table; `gen` advances each time the slot is reused,
/// invalidating handles from its previous life. `event` is `Some` while
/// the event is pending, `None` once cancelled (its heap entry is then a
/// tombstone) or while the slot is vacant.
struct Slot<E> {
    gen: u32,
    event: Option<E>,
}

/// Compaction triggers only on heaps at least this big; tiny heaps are
/// cheaper to skip through than to rebuild.
const COMPACT_MIN_HEAP: usize = 64;

/// Deterministic event queue with cancellation support.
pub struct EventQueue<E> {
    heap: KHeap<Entry>,
    seq: u64,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Cancelled entries still sitting in the heap.
    tombstones: usize,
    /// Time of the most recently popped event; pops are checked to be
    /// monotone so a mis-scheduled past event is caught immediately.
    last_popped: SimTime,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: KHeap::with_capacity(cap),
            seq: 1,
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            tombstones: 0,
            last_popped: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Pre-allocates room for `additional` more scheduled events, so a
    /// burst of `schedule` calls (e.g. seeding a simulation, fanning a
    /// stage out to replicas) does not re-grow the heap midway.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        let needed = (self.heap.len() + additional).saturating_sub(self.slots.capacity());
        self.slots.reserve(needed);
    }

    /// Pushes `event` under `(at, seq)` into a free slot and returns its
    /// handle.
    fn insert(&mut self, at: SimTime, seq: u64, event: E) -> EventHandle {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize].event = Some(event);
                s
            }
            None => {
                self.slots.push(Slot { gen: 0, event: Some(event) });
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Entry { time: at, seq, slot });
        self.stats.scheduled += 1;
        if self.heap.len() > self.stats.heap_high_water {
            self.stats.heap_high_water = self.heap.len();
        }
        EventHandle {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Vacates `slot` (its heap entry has left the heap), returning the
    /// payload if the event was still pending.
    #[inline]
    fn release_slot(slots: &mut [Slot<E>], free: &mut Vec<u32>, slot: u32) -> Option<E> {
        let s = &mut slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        free.push(slot);
        s.event.take()
    }

    /// Schedules `event` at absolute time `at` and returns a cancellable
    /// handle.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the last popped event time: that would
    /// mean the caller is trying to schedule into the simulated past.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.last_popped,
            "scheduling into the past: at={at}, now={}",
            self.last_popped
        );
        let seq = self.alloc_seq();
        self.insert(at, seq, event)
    }

    /// Reserves the next sequence number without scheduling anything.
    ///
    /// Together with [`schedule_at_seq`](Self::schedule_at_seq) this
    /// supports *event elision*: a caller that can prove a future event's
    /// handler is a state no-op may skip enqueueing it, but must still
    /// consume its sequence number at the exact point the event would
    /// have been scheduled, so that tie-breaking among same-time events
    /// is bit-identical to the unelided execution.
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 2;
        seq
    }

    /// The tie slot between the last allocated sequence number and the
    /// next (see the module docs). Allocates nothing; an event keyed with
    /// it may be scheduled through [`schedule_at_seq`](Self::schedule_at_seq).
    #[inline]
    pub fn tie_seq(&self) -> u64 {
        self.seq - 1
    }

    /// Schedules `event` at `at` under a sequence number previously
    /// obtained from [`alloc_seq`](Self::alloc_seq) or
    /// [`tie_seq`](Self::tie_seq), re-materializing an elided event in its
    /// original tie-break position.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the last popped event time.
    pub fn schedule_at_seq(&mut self, at: SimTime, seq: u64, event: E) -> EventHandle {
        assert!(
            at >= self.last_popped,
            "scheduling into the past: at={at}, now={}",
            self.last_popped
        );
        debug_assert!(seq < self.seq, "seq was not allocated by alloc_seq or tie_seq");
        self.insert(at, seq, event)
    }

    /// Advances the queue's notion of "now" to `t` without popping, as if
    /// an event at `t` had just been popped. Callers that fire elided
    /// events (see [`alloc_seq`](Self::alloc_seq)) use this so that
    /// schedule-into-the-past detection stays as strict as in the
    /// unelided execution. Earlier times are ignored.
    pub fn advance_now(&mut self, t: SimTime) {
        if t > self.last_popped {
            self.last_popped = t;
        }
    }

    /// Swaps in a new payload for a pending event, keeping its key.
    pub fn replace(&mut self, handle: EventHandle, event: E) {
        let slot = &mut self.slots[handle.slot as usize];
        debug_assert!(slot.gen == handle.gen && slot.event.is_some(), "replacing a settled event");
        slot.event = Some(event);
    }

    /// Cancels a previously scheduled event. Returns true if the handle was
    /// still pending (i.e. not already popped or cancelled).
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let Some(slot) = self.slots.get_mut(handle.slot as usize) else {
            return false;
        };
        if slot.gen != handle.gen || slot.event.take().is_none() {
            return false;
        }
        self.tombstones += 1;
        self.stats.cancelled += 1;
        self.maybe_compact();
        true
    }

    /// Rebuilds the heap without its tombstones once they outnumber the
    /// live entries. One O(n) pass, in the heap's own buffer, bounds heap
    /// memory and the skip work every subsequent pop would otherwise pay.
    /// Ordering is untouched: relative order is fully determined by each
    /// entry's `(time, seq)` key, which the rebuild preserves.
    fn maybe_compact(&mut self) {
        if self.heap.len() < COMPACT_MIN_HEAP || self.tombstones * 2 <= self.heap.len() {
            return;
        }
        let (slots, free) = (&mut self.slots, &mut self.free);
        self.heap.retain(|e| {
            let live = slots[e.slot as usize].event.is_some();
            if !live {
                Self::release_slot(slots, free, e.slot);
            }
            live
        });
        self.tombstones = 0;
        self.stats.compactions += 1;
    }

    /// Pops the earliest pending event, skipping cancelled entries.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            let Some(event) = Self::release_slot(&mut self.slots, &mut self.free, entry.slot)
            else {
                self.tombstones -= 1;
                continue;
            };
            debug_assert!(entry.time >= self.last_popped);
            self.last_popped = entry.time;
            self.stats.popped += 1;
            return Some((entry.time, event));
        }
        None
    }

    /// `(time, seq)` key of the earliest pending event, if any. The key
    /// totally orders events: lets callers interleave elided virtual
    /// events (see [`alloc_seq`](Self::alloc_seq)) with real pops.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        // Drain cancelled entries off the top so the peek is accurate.
        while let Some(entry) = self.heap.peek() {
            if self.slots[entry.slot as usize].event.is_some() {
                return Some((entry.time, entry.seq));
            }
            self.heap.pop();
            self.tombstones -= 1;
            Self::release_slot(&mut self.slots, &mut self.free, entry.slot);
        }
        None
    }

    /// A monotone counter that advances on every operation that can
    /// change the earliest pending key — schedule, pop, or cancel. A
    /// caller that interleaves many non-queue events (virtual lanes) can
    /// cache [`peek_key`](Self::peek_key)'s result and re-peek only when
    /// the version has moved, skipping a heap access per iteration.
    #[inline]
    pub fn version(&self) -> u64 {
        // The stats counters already tick exactly once per mutating op,
        // so their sum is a free version number.
        self.stats.scheduled + self.stats.popped + self.stats.cancelled
    }

    /// Number of live (pending, non-cancelled) entries.
    pub fn len(&self) -> usize {
        self.heap.len() - self.tombstones
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently popped event (the "current time" of a
    /// simulation driven by this queue).
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Operation counters since construction.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The pending events, in no particular order.
    #[cfg(test)]
    pub(crate) fn pending(&self) -> impl Iterator<Item = &E> + '_ {
        self.slots.iter().filter_map(|s| s.event.as_ref())
    }

    /// The event behind `handle`, while it is pending.
    #[cfg(test)]
    pub(crate) fn get(&self, handle: EventHandle) -> Option<&E> {
        let slot = &self.slots[handle.slot as usize];
        slot.event.as_ref().filter(|_| slot.gen == handle.gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), "c");
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_pending_event() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_micros(10), "dropme");
        q.schedule(SimTime::from_micros(20), "keep");
        assert!(q.cancel(h));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "keep")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn elided_events_rematerialize_in_original_tie_break_position() {
        // Three events at the same time: A scheduled, an elided slot E,
        // then B scheduled. Re-materializing E later must land it between
        // A and B, exactly where a real schedule would have put it.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, "A");
        let seq = q.alloc_seq();
        q.schedule(t, "B");
        q.schedule_at_seq(t, seq, "E");
        assert_eq!(q.peek_key().map(|(_, s)| s), Some(1));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["A", "E", "B"]);
    }

    #[test]
    fn tie_slots_sort_between_the_allocations_around_them() {
        // L0 is keyed before anything was allocated, L1 between A and B;
        // neither allocates, and both land where a schedule would have.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        let before_all = q.tie_seq();
        q.schedule(t, "A");
        let between = q.tie_seq();
        assert_eq!(q.tie_seq(), between, "taking a tie slot allocates nothing");
        q.schedule(t, "B");
        q.schedule_at_seq(t, between, "L1");
        q.schedule_at_seq(t, before_all, "L0");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["L0", "A", "L1", "B"]);
    }

    #[test]
    fn rematerialized_events_are_cancellable() {
        let mut q = EventQueue::new();
        let seq = q.alloc_seq();
        let h = q.schedule_at_seq(SimTime::from_millis(1), seq, 7u32);
        assert!(q.cancel(h));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_is_idempotent_and_rejects_unknown() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_micros(10), ());
        assert!(q.cancel(h));
        assert!(!q.cancel(h), "second cancel must report false");
        let never_issued = EventHandle { slot: 999, gen: 0 };
        assert!(!q.cancel(never_issued), "never-issued handle");
    }

    #[test]
    fn cancel_after_pop_reports_false() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_micros(10), ());
        q.pop();
        // The handle is stale; cancelling must not corrupt the queue.
        assert!(!q.cancel(h));
        q.schedule(SimTime::from_micros(20), ());
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
    }

    #[test]
    fn stale_handle_never_cancels_a_reused_slot() {
        // Pop frees the handle's slot; the next schedule reuses it. The
        // old handle must not be able to cancel the new event (ABA).
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_micros(10), "first");
        q.pop();
        let h2 = q.schedule(SimTime::from_micros(20), "second");
        assert_eq!(h1.slot, h2.slot, "slot is reused");
        assert!(!q.cancel(h1), "stale generation must be rejected");
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), "second")));
        // And cancelling with the fresh handle still works.
        let h3 = q.schedule(SimTime::from_micros(30), "third");
        assert!(q.cancel(h3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_key_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let h = q.schedule(SimTime::from_micros(5), "x");
        q.schedule(SimTime::from_micros(9), "y");
        q.cancel(h);
        assert_eq!(q.peek_key(), Some((SimTime::from_micros(9), 3)));
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), ());
        q.pop();
        q.schedule(SimTime::from_millis(5), ());
    }

    #[test]
    fn zero_delay_self_reschedule_is_allowed() {
        // An event may schedule another event at the *same* instant.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), 0u32);
        let (t, _) = q.pop().unwrap();
        q.schedule(t, 1u32);
        assert_eq!(q.pop(), Some((t, 1u32)));
    }

    #[test]
    fn compaction_reclaims_majority_tombstones() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..200)
            .map(|i| q.schedule(SimTime::from_micros(i), i))
            .collect();
        // Cancel three quarters; the tombstone majority must trigger a
        // rebuild that shrinks the heap to the live population.
        for h in handles.iter().take(150) {
            assert!(q.cancel(*h));
        }
        let s = q.stats();
        assert!(s.compactions >= 1, "compaction must have run: {s:?}");
        assert_eq!(q.len(), 50);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, (150..200).collect::<Vec<_>>());
    }

    #[test]
    fn compaction_preserves_fifo_tie_break() {
        // All events at the same instant; cancel a majority interleaved.
        // Survivors must still pop in insertion order after the rebuild.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(3);
        let handles: Vec<_> = (0..300).map(|i| q.schedule(t, i)).collect();
        for (i, h) in handles.iter().enumerate() {
            if i % 4 != 1 {
                assert!(q.cancel(*h));
            }
        }
        assert!(q.stats().compactions >= 1, "{:?}", q.stats());
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let expect: Vec<_> = (0..300).filter(|i| i % 4 == 1).collect();
        assert_eq!(popped, expect, "FIFO tie-break broken by compaction");
    }

    #[test]
    fn small_heaps_skip_compaction() {
        let mut q = EventQueue::new();
        let hs: Vec<_> = (0..10).map(|i| q.schedule(SimTime::from_micros(i), i)).collect();
        for h in hs {
            q.cancel(h);
        }
        assert_eq!(q.stats().compactions, 0, "below the size floor");
        assert!(q.pop().is_none());
    }

    #[test]
    fn stats_account_for_every_operation() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(SimTime::from_micros(1), 1);
        let h2 = q.schedule(SimTime::from_micros(2), 2);
        q.schedule(SimTime::from_micros(3), 3);
        assert!(q.cancel(h2));
        assert!(!q.cancel(h2));
        q.pop();
        assert!(!q.cancel(h1), "already popped");
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.popped, 1);
        assert_eq!(s.heap_high_water, 3);
    }

    #[test]
    fn model_based_against_reference_implementation() {
        // Drive the queue and a naive reference (sorted Vec) with the same
        // deterministic operation stream; they must agree on every pop.
        let mut q = EventQueue::new();
        let mut reference: Vec<(SimTime, u64, u64)> = Vec::new(); // (t, seq, val)
        let mut handles: Vec<(EventHandle, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rnd = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut now = 0u64;
        for _ in 0..2_000 {
            match rnd() % 4 {
                0 | 1 => {
                    // schedule at now + jitter
                    let t = now + rnd() % 10_000;
                    let v = rnd();
                    let h = q.schedule(SimTime::from_micros(t), v);
                    reference.push((SimTime::from_micros(t), seq, v));
                    handles.push((h, seq));
                    seq += 1;
                }
                2 => {
                    // cancel a random still-known handle
                    if !handles.is_empty() {
                        let i = (rnd() as usize) % handles.len();
                        let (h, s) = handles.swap_remove(i);
                        let was_pending = reference.iter().any(|&(_, rs, _)| rs == s);
                        assert_eq!(q.cancel(h), was_pending, "cancel agreement");
                        reference.retain(|&(_, rs, _)| rs != s);
                    }
                }
                _ => {
                    // pop
                    reference.sort_by_key(|&(t, s, _)| (t, s));
                    let expect = if reference.is_empty() {
                        None
                    } else {
                        let (t, _, v) = reference.remove(0);
                        Some((t, v))
                    };
                    let got = q.pop();
                    assert_eq!(got, expect, "pop agreement");
                    if let Some((t, _)) = got {
                        now = t.as_micros();
                    }
                }
            }
        }
        // Drain and compare the tails.
        reference.sort_by_key(|&(t, s, _)| (t, s));
        for (t, _, v) in reference {
            assert_eq!(q.pop(), Some((t, v)));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        let step = SimDuration::from_micros(10);
        q.schedule(SimTime::ZERO + step, 0u64);
        let mut popped = Vec::new();
        while let Some((t, k)) = q.pop() {
            popped.push(k);
            if k < 50 {
                // schedule two children, one near one far
                q.schedule(t + step, k + 100);
                q.schedule(t + step * 2, k + 1);
            }
            if popped.len() > 1000 {
                break;
            }
        }
        // All we assert is global time-monotonicity, which `pop` itself
        // debug-asserts; plus that the run terminated.
        assert!(popped.len() > 50);
    }
}
