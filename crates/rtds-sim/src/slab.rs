//! Generation-stamped slab: the network's message copies and retransmit
//! records, addressed by [`Slot`] instead of by hash. A freed slot is
//! reused by the next insert, so a slab holds no more slots than its peak
//! live count, and its generation advances, so a handle that outlived its
//! record finds nothing instead of the slot's next occupant.

/// Handle to one record of a slab: slot index and the generation the slot
/// had when the record was inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    index: u32,
    gen: u32,
}

/// Records addressed by [`Slot`], with a free list of vacated slots.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    /// Every slot ever allocated: generation and record (`None`: vacant).
    slots: Vec<(u32, Option<T>)>,
    /// Vacant slot indices, reused last-in first-out.
    free: Vec<u32>,
    /// Largest live count seen, to check that slots are reused.
    #[cfg(test)]
    pub peak: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            #[cfg(test)]
            peak: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Stores the record `make` builds from its own handle.
    pub fn insert_with(&mut self, make: impl FnOnce(Slot) -> T) -> Slot {
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            self.slots.len() as u32 - 1
        });
        let (gen, rec) = &mut self.slots[index as usize];
        let slot = Slot { index, gen: *gen };
        *rec = Some(make(slot));
        #[cfg(test)]
        {
            self.peak = self.peak.max(self.len());
        }
        slot
    }

    /// Stores `rec`.
    pub fn insert(&mut self, rec: T) -> Slot {
        self.insert_with(|_| rec)
    }

    /// The live record behind `slot`, if it has not been removed.
    #[inline]
    pub fn get(&self, slot: Slot) -> Option<&T> {
        match &self.slots[slot.index as usize] {
            (gen, Some(rec)) if *gen == slot.gen => Some(rec),
            _ => None,
        }
    }

    /// Mutable access to the live record behind `slot`.
    #[inline]
    pub fn get_mut(&mut self, slot: Slot) -> Option<&mut T> {
        match &mut self.slots[slot.index as usize] {
            (gen, Some(rec)) if *gen == slot.gen => Some(rec),
            _ => None,
        }
    }

    /// Removes the live record behind `slot` and frees the slot.
    #[inline]
    pub fn remove(&mut self, slot: Slot) -> Option<T> {
        let (gen, rec) = &mut self.slots[slot.index as usize];
        if *gen != slot.gen {
            return None;
        }
        let rec = rec.take()?;
        *gen = gen.wrapping_add(1);
        self.free.push(slot.index);
        Some(rec)
    }

    /// Number of live records.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever allocated: the live count's high-water mark when every
    /// vacated slot is reused before a new one is made.
    #[cfg(test)]
    pub fn high_water(&self) -> usize {
        self.slots.len()
    }

    /// Handles of the live records, in slot order.
    #[cfg(test)]
    pub fn live(&self) -> impl Iterator<Item = Slot> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, (gen, rec))| {
            rec.as_ref().map(|_| Slot { index: i as u32, gen: *gen })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_removed_record_frees_its_slot_for_the_next_insert() {
        let mut s = Slab::default();
        let a = s.insert('a');
        let b = s.insert('b');
        assert_eq!(s.remove(a), Some('a'));
        let c = s.insert('c');
        assert_eq!(s.high_water(), 2, "c reuses a's slot");
        assert_eq!((s.get(b), s.get(c), s.len()), (Some(&'b'), Some(&'c'), 2));
        assert_eq!(s.peak, 2);
    }

    #[test]
    fn a_stale_handle_misses_the_slots_next_occupant() {
        let mut s = Slab::default();
        let a = s.insert(1u32);
        s.remove(a);
        let b = s.insert(2);
        assert_ne!(a, b);
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get_mut(b).copied(), Some(2));
        assert_eq!(s.live().collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn insert_with_hands_the_record_its_own_handle() {
        let mut s = Slab::default();
        s.insert(Slot { index: 9, gen: 9 });
        let h = s.insert_with(|h| h);
        assert_eq!(s.get(h), Some(&h));
    }
}
