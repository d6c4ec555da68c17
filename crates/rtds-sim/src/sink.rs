//! Event sinks: the one bounded buffer for observed events.
//!
//! [`EventSink`] is anything that accepts `(time, event)` pairs; the
//! resource manager records its decision audit through it, behind an
//! `Arc<Mutex<_>>` shared with the embedder. [`BoundedSink`] is the one
//! buffer type behind both observed streams: the simulator's event trace
//! ([`crate::trace::TraceEvent`]) and the manager's decision records.
//! The two differ only in their retention rule, which the sink owns.
//!
//! Sinks are strictly opt-in and must never influence the simulation:
//! implementations record and step aside. Nothing in this module draws
//! randomness or feeds back into event ordering, so a run with sinks
//! attached is byte-identical to the same run without them.

use crate::time::SimTime;

/// A consumer of timestamped events.
///
/// `record` is called in nondecreasing time order, once per event, and
/// must not fail loudly — a sink that hits an internal limit (e.g. a full
/// buffer) degrades by dropping events and exposing a counter, never by
/// panicking into the simulation.
pub trait EventSink<E> {
    /// Accepts one event observed at simulated time `now`.
    fn record(&mut self, now: SimTime, event: E);
}

/// Every sink behind `Arc<Mutex<_>>` is itself a sink; this is how one
/// sink is shared between the embedder (which drains it after the run)
/// and a producer that is consumed by the simulation (a boxed
/// controller, typically). Lock poisoning is recovered, not propagated:
/// a panic elsewhere must not cascade through telemetry.
impl<E, S: EventSink<E>> EventSink<E> for std::sync::Arc<std::sync::Mutex<S>> {
    fn record(&mut self, now: SimTime, event: E) {
        self.lock().unwrap_or_else(|e| e.into_inner()).record(now, event);
    }
}

/// A bounded in-memory sink for any event type.
///
/// Once `capacity` events are stored, further events are counted in
/// [`BoundedSink::dropped`] and discarded — newest first, since the
/// buffer fills front to back — so a runaway producer cannot OOM the
/// run. A retention rule ([`BoundedSink::retaining`]) exempts the events
/// it accepts from the bound: the event trace keeps failure-class events
/// so a crash at the end of a long run never vanishes because routine
/// events filled the buffer hours earlier.
#[derive(Debug, Clone)]
pub struct BoundedSink<E> {
    events: Vec<(SimTime, E)>,
    capacity: usize,
    keep: fn(&E) -> bool,
    dropped: u64,
}

impl<E> BoundedSink<E> {
    /// Creates a sink holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        Self::retaining(capacity, |_| false)
    }

    /// Creates a sink holding at most `capacity` events, except that
    /// events `keep` accepts are stored even past capacity. The rule must
    /// accept only rare events, or the bound stops meaning anything.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn retaining(capacity: usize, keep: fn(&E) -> bool) -> Self {
        assert!(capacity > 0, "zero-capacity event sink");
        BoundedSink {
            events: Vec::new(),
            capacity,
            keep,
            dropped: 0,
        }
    }

    /// All recorded events in arrival order.
    pub fn events(&self) -> &[(SimTime, E)] {
        &self.events
    }

    /// Consumes the sink, yielding its events.
    pub fn into_events(self) -> Vec<(SimTime, E)> {
        self.events
    }

    /// Number of events dropped after the sink filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<E> EventSink<E> for BoundedSink<E> {
    fn record(&mut self, now: SimTime, event: E) {
        if self.events.len() < self.capacity || (self.keep)(&event) {
            self.events.push((now, event));
        } else {
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn bounded_sink_stores_in_order_and_drops_overflow() {
        let mut s: BoundedSink<u32> = BoundedSink::bounded(2);
        for i in 0..5u32 {
            s.record(SimTime::from_millis(u64::from(i)), i);
        }
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.events()[0].1, 0);
        assert_eq!(s.events()[1].1, 1);
        assert_eq!(s.dropped(), 3);
        assert_eq!(s.into_events().len(), 2);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn bounded_sink_rejects_zero_capacity() {
        let _: BoundedSink<u32> = BoundedSink::bounded(0);
    }

    #[test]
    fn retaining_sink_keeps_accepted_events_past_capacity() {
        // Odd numbers stand in for failure-class events: ones recorded
        // after routine events filled the buffer must still be kept.
        let mut s: BoundedSink<u32> = BoundedSink::retaining(2, |e| e % 2 == 1);
        for e in [0, 2, 4, 6, 1, 3, 8, 5, 10] {
            s.record(SimTime::from_millis(u64::from(e)), e);
        }
        let kept: Vec<u32> = s.events().iter().map(|&(_, e)| e).collect();
        assert_eq!(kept, [0, 2, 1, 3, 5], "2 ordinary + every accepted event, in order");
        assert_eq!(s.dropped(), 4, "the ordinary events past capacity");
    }

    #[test]
    fn shared_sink_records_through_the_mutex() {
        let shared = Arc::new(Mutex::new(BoundedSink::bounded(4)));
        let mut handle = Arc::clone(&shared);
        handle.record(SimTime::from_millis(3), 42u32);
        assert_eq!(shared.lock().unwrap().events(), &[(SimTime::from_millis(3), 42)]);
    }
}
