//! The kernel's one priority queue: a binary min-heap over `(time, seq)`
//! keys, under both the [`EventQueue`] and the virtual [`Lanes`].
//!
//! An entry is ordered by one packed key, `(at_us << 64) | seq` (see
//! [`pack`]), which compares exactly as the `(time, seq)` pair does. Seqs
//! are unique for the lifetime of a run, so pops follow one total order
//! whatever the layout: a rebuild may produce any valid heap.
//!
//! Sift-down picks the smaller child without a branch,
//! `m = c + (key[c + 1] < key[c]) as usize`: lane keys are effectively
//! random, so a compare-and-jump there mispredicts about half the time.
//! The moving key is compared with that child only to stop. Entries are
//! `Copy` and move into a hole rather than being swapped, one store per
//! level. The layout stays binary, so the root's runner-up is one of two
//! slice reads ([`KHeap::as_slice`]).
//!
//! [`EventQueue`]: crate::event::EventQueue
//! [`Lanes`]: crate::lane::Lanes

use crate::time::SimTime;

/// The packed heap key of `(at, seq)`: orders exactly as the pair does.
#[inline(always)]
pub(crate) fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.as_micros() as u128) << 64) | seq as u128
}

/// A heap entry: small, `Copy`, and ordered by its packed key.
pub(crate) trait Keyed: Copy {
    /// The entry's [`pack`]ed `(time, seq)` key.
    fn key(&self) -> u128;
}

/// A binary min-heap ordered by [`Keyed::key`] (see module docs).
#[derive(Debug)]
pub(crate) struct KHeap<T> {
    h: Vec<T>,
}

impl<T> Default for KHeap<T> {
    fn default() -> Self {
        KHeap { h: Vec::new() }
    }
}

impl<T: Keyed> KHeap<T> {
    /// An empty heap with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        KHeap { h: Vec::with_capacity(cap) }
    }

    /// Number of entries.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.h.len()
    }

    /// Reserves room for `additional` more entries.
    pub fn reserve(&mut self, additional: usize) {
        self.h.reserve(additional);
    }

    /// The entries in heap order: `[0]` is the minimum, `[1]` and `[2]`
    /// its children.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.h
    }

    /// The minimum entry.
    #[inline(always)]
    pub fn peek(&self) -> Option<T> {
        self.h.first().copied()
    }

    /// Inserts `item`, sifting it up from the bottom.
    #[inline]
    pub fn push(&mut self, item: T) {
        let key = item.key();
        let mut pos = self.h.len();
        self.h.push(item);
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.h[parent].key() <= key {
                break;
            }
            self.h[pos] = self.h[parent];
            pos = parent;
        }
        self.h[pos] = item;
    }

    /// Removes and returns the minimum: the last entry fills the hole at
    /// the root and sifts down.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        let last = self.h.pop()?;
        match self.peek() {
            Some(top) => {
                self.sift_down(0, last);
                Some(top)
            }
            None => Some(last),
        }
    }

    /// Overwrites the minimum with `item` and sifts it into place.
    ///
    /// # Panics
    /// Panics if the heap is empty.
    #[inline(always)]
    pub fn replace_top(&mut self, item: T) {
        self.sift_down(0, item);
    }

    /// Keeps only the entries for which `keep` returns true, then
    /// rebuilds the heap in place, in the same buffer.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.h.retain(keep);
        for i in (0..self.h.len() / 2).rev() {
            let item = self.h[i];
            self.sift_down(i, item);
        }
    }

    /// Places `item` in the hole at `pos`, moving smaller children up.
    #[inline(always)]
    fn sift_down(&mut self, mut pos: usize, item: T) {
        let h = &mut self.h[..];
        let n = h.len();
        let key = item.key();
        let mut c = 2 * pos + 1;
        while c + 1 < n {
            let m = c + (h[c + 1].key() < h[c].key()) as usize;
            if key <= h[m].key() {
                break;
            }
            h[pos] = h[m];
            pos = m;
            c = 2 * pos + 1;
        }
        // A last node with a single child.
        if c + 1 == n && h[c].key() < key {
            h[pos] = h[c];
            pos = c;
        }
        h[pos] = item;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::rng::SimRng;

    #[derive(Debug, Clone, Copy)]
    struct K(u128);

    impl Keyed for K {
        fn key(&self) -> u128 {
            self.0
        }
    }

    fn assert_heap(h: &KHeap<K>) {
        let s = h.as_slice();
        for i in 1..s.len() {
            assert!(s[(i - 1) / 2].0 < s[i].0, "heap property broken at {i}");
        }
    }

    #[test]
    fn packed_key_orders_as_the_time_seq_pair() {
        let t = SimTime::from_micros;
        let pairs = [(t(0), 0), (t(0), u64::MAX), (t(1), 0), (t(1), 7), (t(u64::MAX), 3)];
        for a in pairs {
            for b in pairs {
                assert_eq!(pack(a.0, a.1).cmp(&pack(b.0, b.1)), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    /// Seeded random push / pop / replace_top / retain against a
    /// `BTreeSet` reference: every minimum and every pop must agree.
    #[test]
    fn matches_a_btreeset_reference_on_random_operation_streams() {
        for seed in 0..40 {
            let mut rng = SimRng::from_seed_stream(seed, 0);
            let mut h = KHeap::<K>::default();
            let mut set = BTreeSet::new();
            let mut seq = 0u64;
            // Narrow time ranges force many same-time ties on the seq.
            let span = 1 + rng.below(1_000);
            let mut fresh = |rng: &mut SimRng| {
                seq += 1;
                pack(SimTime::from_micros(rng.below(span)), seq)
            };
            for _ in 0..3_000 {
                match rng.below(10) {
                    0..=3 => {
                        let k = fresh(&mut rng);
                        h.push(K(k));
                        set.insert(k);
                    }
                    4..=6 => {
                        let want = set.pop_first();
                        assert_eq!(h.pop().map(|k| k.0), want);
                    }
                    7 | 8 => {
                        if let Some(min) = set.pop_first() {
                            assert_eq!(h.peek().map(|k| k.0), Some(min));
                            let k = fresh(&mut rng);
                            h.replace_top(K(k));
                            set.insert(k);
                        }
                    }
                    _ => {
                        // Compaction: drop roughly a third, picked by a
                        // salted hash so the survivors are scattered.
                        let salt = rng.next_u64();
                        let keep = |k: u128| !(k as u64 ^ salt).wrapping_mul(0x9E37_79B9).is_multiple_of(3);
                        h.retain(|k| keep(k.0));
                        set.retain(|&k| keep(k));
                    }
                }
                assert_eq!(h.len(), set.len());
                assert_eq!(h.peek().map(|k| k.0), set.first().copied());
            }
            assert_heap(&h);
            while let Some(want) = set.pop_first() {
                assert_eq!(h.pop().map(|k| k.0), Some(want));
            }
            assert!(h.pop().is_none());
        }
    }

    #[test]
    fn retain_rebuilds_a_valid_heap_in_the_same_buffer() {
        let mut h = KHeap::<K>::default();
        for k in (0..499u128).rev() {
            h.push(K(k * 7 % 499));
        }
        let cap = h.h.capacity();
        h.retain(|k| k.0 % 4 == 1);
        assert_eq!(h.h.capacity(), cap, "compaction must not reallocate");
        assert_heap(&h);
        let popped: Vec<u128> = std::iter::from_fn(|| h.pop().map(|k| k.0)).collect();
        let want: Vec<u128> = (0..499).filter(|k| k % 4 == 1).collect();
        assert_eq!(popped, want);
    }
}
