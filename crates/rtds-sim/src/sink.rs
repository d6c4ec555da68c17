//! Event sinks: the one bounded buffer for observed events.
//!
//! [`BoundedSink`] is the one buffer type behind both observed streams:
//! the simulator's event trace ([`crate::trace::TraceEvent`]), which the
//! kernel owns, and the resource manager's decision records, which the
//! manager records into behind an `Arc<Mutex<_>>` shared with the
//! embedder. The two differ only in their retention rule, which the sink
//! owns.
//!
//! Sinks are strictly opt-in and must never influence the simulation:
//! they record and step aside. Nothing in this module draws randomness
//! or feeds back into event ordering, so a run with sinks attached is
//! byte-identical to the same run without them.

use crate::time::SimTime;

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

    /// Accepts one event observed at simulated time `now`. Producers call
    /// this in nondecreasing time order. A full sink never fails loudly:
    /// it drops the event and counts it in [`Self::dropped`], unless the
    /// retention rule keeps it.
    pub fn record(&mut self, now: SimTime, event: E) {
        if self.events.len() < self.capacity || (self.keep)(&event) {
            self.events.push((now, event));
        } else {
            self.dropped += 1;
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
