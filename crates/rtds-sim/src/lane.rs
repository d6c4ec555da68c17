//! Virtual event lanes: pending events carried off the event queue.
//!
//! A lane stands for one pending event that has no external observer
//! until it fires, so it need not sit in the global [`EventQueue`]. There
//! are two kinds, each named by the event it stands for:
//!
//! - one per background generator: its next `BgPoll`;
//! - one per node running a lone stage job over several quanta: the
//!   `Dispatch` that completes the job's quantum chain.
//!
//! A chain's intermediate links arm no lane, and neither does any slice
//! boundary of a node running only background work: they draw no
//! randomness and no other node sees them, so they stay node-local and
//! are replayed only when something observes the node (see
//! `crate::engine::dispatch`). Polls stay here, in global order, because
//! every poll draws from the kernel's shared RNG stream.
//!
//! [`Lanes`] owns each lane's live `(at, seq)` key and a lazy min-heap
//! over the keys, the kernel's shared [`KHeap`]. A poll's seq is
//! allocated from the event queue at the exact program point where the
//! reference path would `schedule` the event, so same-time tie-breaking
//! is bit-identical to running it as a heap event. A chain completion is
//! keyed by a tie slot instead ([`crate::event::EventQueue::tie_seq`]),
//! which other completions may share.
//! A lane is changed only through [`Lanes::arm`] and [`Lanes::disarm`];
//! either may leave an earlier heap entry behind, and one liveness rule
//! sorts them out on [`Lanes::peek`]: an entry is live iff its key equals
//! its lane's key.
//!
//! The common path fires a lane and re-arms it from the handler: the
//! fired entry is still the heap top, so `arm` rewrites it in place — one
//! sift, no push. Stale entries only arise from rare mode transitions
//! (a chain materialized as a real event or re-keyed exactly, a dead
//! node, a retired generator).
//!
//! [`EventQueue`]: crate::event::EventQueue

use crate::kheap::{pack, KHeap, Keyed};
use crate::time::SimTime;

/// A lane, named by the event it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneRef {
    /// Node `i`'s lone stage job's chain completion.
    Dispatch(u32),
    /// Generator `g`'s next `BgPoll`.
    BgPoll(u32),
}

/// One heap entry. Ordered by `(at, seq)` like the real event queue;
/// `lane` never decides the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneEntry {
    /// When the lane fires.
    pub at: SimTime,
    /// The event-queue sequence number reserved for this firing, or a
    /// tie slot.
    pub seq: u64,
    /// The lane that owns this key.
    pub lane: LaneRef,
}

impl Keyed for LaneEntry {
    #[inline(always)]
    fn key(&self) -> u128 {
        pack(self.at, self.seq)
    }
}

/// A lane's live key: `(at, seq)`.
pub(crate) type LaneKey = (SimTime, u64);

/// Every lane's live key plus a lazy min-heap over them (see module docs).
#[derive(Debug, Default)]
pub(crate) struct Lanes {
    heap: KHeap<LaneEntry>,
    /// Live key of each node's `Dispatch` lane (a chain completion).
    dispatch: Vec<Option<LaneKey>>,
    /// Live key of each generator's `BgPoll` lane.
    bg_poll: Vec<Option<LaneKey>>,
}

impl Lanes {
    /// The live key of `lane`, if armed.
    #[inline(always)]
    pub fn key(&self, lane: LaneRef) -> Option<LaneKey> {
        match lane {
            LaneRef::Dispatch(i) => self.dispatch.get(i as usize),
            LaneRef::BgPoll(g) => self.bg_poll.get(g as usize),
        }
        .copied()
        .flatten()
    }

    #[inline(always)]
    fn slot(&mut self, lane: LaneRef) -> &mut Option<LaneKey> {
        let (keys, i) = match lane {
            LaneRef::Dispatch(i) => (&mut self.dispatch, i as usize),
            LaneRef::BgPoll(g) => (&mut self.bg_poll, g as usize),
        };
        if i >= keys.len() {
            grow(keys, i);
        }
        &mut keys[i]
    }

    /// Arms (or re-arms) `lane` to fire at `at` with the reserved `seq`.
    /// If the heap top belongs to `lane` — the entry just fired, or one
    /// this arm makes stale — it is rewritten in place instead of pushing
    /// a new entry.
    #[inline(always)]
    pub fn arm(&mut self, lane: LaneRef, at: SimTime, seq: u64) {
        *self.slot(lane) = Some((at, seq));
        let entry = LaneEntry { at, seq, lane };
        match self.heap.peek() {
            Some(top) if top.lane == lane => self.heap.replace_top(entry),
            _ => self.heap.push(entry),
        }
    }

    /// Disarms `lane`, returning its key if it was armed. Its heap entry
    /// goes stale.
    #[inline(always)]
    pub fn disarm(&mut self, lane: LaneRef) -> Option<LaneKey> {
        self.slot(lane).take()
    }

    /// The earliest live entry. Stale entries on top are discarded.
    #[inline(always)]
    pub fn peek(&mut self) -> Option<LaneEntry> {
        while let Some(e) = self.heap.peek() {
            if self.key(e.lane) == Some((e.at, e.seq)) {
                return Some(e);
            }
            self.heap.pop();
        }
        None
    }

    /// The smallest key among every entry *except* the top. In a binary
    /// min-heap the runner-up is one of the root's two children, so this
    /// is two slice reads. The result may belong to a stale entry; by the
    /// heap property it is still a lower bound on every other live key,
    /// which is all a same-µs contention check needs.
    #[inline(always)]
    pub fn runner_up(&self) -> Option<LaneKey> {
        let s = self.heap.as_slice();
        match (s.get(1), s.get(2)) {
            (Some(a), Some(b)) => Some((a.at, a.seq).min((b.at, b.seq))),
            (Some(a), None) => Some((a.at, a.seq)),
            _ => None,
        }
    }

    /// Number of heap entries, counting stale ones.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Every armed lane with its live key.
    #[cfg(test)]
    pub fn live(&self) -> Vec<(LaneRef, LaneKey)> {
        let node = |(i, k): (usize, &Option<LaneKey>)| k.map(|k| (LaneRef::Dispatch(i as u32), k));
        let gen = |(g, k): (usize, &Option<LaneKey>)| k.map(|k| (LaneRef::BgPoll(g as u32), k));
        let nodes = self.dispatch.iter().enumerate().filter_map(node);
        nodes.chain(self.bg_poll.iter().enumerate().filter_map(gen)).collect()
    }
}

/// Sizes a key table to hold index `i` — once per node or generator, so
/// kept off the hot path.
#[cold]
#[inline(never)]
fn grow(keys: &mut Vec<Option<LaneKey>>, i: usize) {
    keys.resize(i + 1, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn peeks_live_lanes_by_time_then_seq() {
        let mut l = Lanes::default();
        l.arm(LaneRef::Dispatch(0), t(5), 10);
        l.arm(LaneRef::BgPoll(1), t(3), 99);
        l.arm(LaneRef::Dispatch(2), t(3), 7);
        for want in [LaneRef::Dispatch(2), LaneRef::BgPoll(1), LaneRef::Dispatch(0)] {
            assert_eq!(l.peek().unwrap().lane, want);
            l.disarm(want);
        }
        assert!(l.peek().is_none());
    }

    #[test]
    fn runner_up_is_the_second_smallest_key() {
        let mut l = Lanes::default();
        assert_eq!(l.runner_up(), None);
        l.arm(LaneRef::Dispatch(0), t(5), 3);
        assert_eq!(l.runner_up(), None, "lone entry has no runner-up");
        l.arm(LaneRef::BgPoll(1), t(2), 9);
        assert_eq!(l.runner_up(), Some((t(5), 3)));
        l.arm(LaneRef::Dispatch(2), t(3), 4);
        assert_eq!(l.runner_up(), Some((t(3), 4)));
        l.disarm(LaneRef::BgPoll(1));
        l.peek();
        assert_eq!(l.runner_up(), Some((t(5), 3)));
    }

    #[test]
    fn rearming_a_fired_lane_rewrites_the_top_in_place() {
        let mut l = Lanes::default();
        l.arm(LaneRef::BgPoll(0), t(1), 0);
        l.arm(LaneRef::Dispatch(1), t(5), 1);
        // Poll 0 fires at t=1 (disarmed, entry still on top) and its
        // handler re-arms it at t=8: same heap slot, no stale residue.
        assert_eq!(l.disarm(LaneRef::BgPoll(0)), Some((t(1), 0)));
        l.arm(LaneRef::BgPoll(0), t(8), 2);
        assert_eq!(l.len(), 2);
        assert_eq!(l.peek().unwrap().lane, LaneRef::Dispatch(1));
        l.disarm(LaneRef::Dispatch(1));
        let e = l.peek().unwrap();
        assert_eq!((e.at, e.seq, e.lane), (t(8), 2, LaneRef::BgPoll(0)));
    }

    #[test]
    fn disarmed_or_rearmed_lanes_leave_stale_entries_that_peek_discards() {
        let mut l = Lanes::default();
        l.arm(LaneRef::BgPoll(0), t(4), 1);
        l.arm(LaneRef::Dispatch(3), t(1), 2);
        // Lane BgPoll(0) is not on top, so re-arming it pushes: seq 1 is
        // now stale, seq 3 is live.
        l.arm(LaneRef::BgPoll(0), t(2), 3);
        assert_eq!(l.len(), 3);
        assert_eq!(l.key(LaneRef::BgPoll(0)), Some((t(2), 3)));
        assert_eq!(l.disarm(LaneRef::Dispatch(3)), Some((t(1), 2)));
        assert_eq!(l.key(LaneRef::Dispatch(3)), None);
        let head = l.peek().unwrap();
        assert_eq!((head.at, head.seq), (t(2), 3));
        assert_eq!(l.len(), 2, "the disarmed entry was discarded");
        l.disarm(LaneRef::BgPoll(0));
        assert!(l.peek().is_none());
        assert_eq!(l.len(), 0, "the stale entry was discarded too");
    }

    /// Seeded random arm / disarm / fire streams against a brute-force
    /// minimum over the live keys. Re-arming a lane that is not on top
    /// leaves a stale entry behind, so the heap fills with both kinds.
    #[test]
    fn peek_and_runner_up_agree_with_a_brute_force_minimum() {
        use crate::rng::SimRng;
        let lanes: Vec<LaneRef> =
            (0..6).flat_map(|i| [LaneRef::Dispatch(i), LaneRef::BgPoll(i)]).collect();
        for seed in 0..30 {
            let mut rng = SimRng::from_seed_stream(seed, 0);
            let mut l = Lanes::default();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut stale_seen = false;
            for _ in 0..2_000 {
                let lane = lanes[rng.below(lanes.len() as u64) as usize];
                match rng.below(8) {
                    0..=3 => {
                        l.arm(lane, t(now + rng.below(20)), seq);
                        seq += 1;
                    }
                    4 => {
                        l.disarm(lane);
                    }
                    _ => {
                        // Fire the head: disarm it, and usually re-arm it
                        // from its own handler, as the run loop does.
                        if let Some(e) = l.peek() {
                            now = e.at.as_micros() / 1_000;
                            l.disarm(e.lane);
                            if rng.below(4) != 0 {
                                l.arm(e.lane, t(now + rng.below(20)), seq);
                                seq += 1;
                            }
                        }
                    }
                }
                let mut live: Vec<(LaneKey, LaneRef)> =
                    lanes.iter().filter_map(|&r| l.key(r).map(|k| (k, r))).collect();
                live.sort_by_key(|&(k, _)| k);
                stale_seen |= l.len() > live.len();
                let head = l.peek();
                assert_eq!(head.map(|e| ((e.at, e.seq), e.lane)), live.first().copied());
                match (l.runner_up(), live.get(1)) {
                    (Some(r), Some(&(second, _))) => assert!(r <= second, "{r:?} > {second:?}"),
                    (None, Some(_)) => panic!("two live lanes but no runner-up"),
                    _ => {}
                }
            }
            assert!(stale_seen, "seed {seed} never left a stale entry");
        }
    }
}
