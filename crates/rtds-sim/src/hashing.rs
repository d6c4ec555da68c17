//! Deterministic, fast hashing for simulator-internal maps.
//!
//! The standard library's default hasher is SipHash with a per-process
//! random key — robust against adversarial keys, but measurably slow on
//! the small integer keys (job ids, message ids, instance numbers) the
//! hot simulation loop indexes by, and randomly seeded, so map iteration
//! order differs between runs. The simulator never hashes untrusted
//! input, so we use the Fx multiply-xor hash (the rustc-internal scheme):
//! a few cycles per key, and identical across runs, which keeps every
//! map's iteration order reproducible too.

use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hash state: one 64-bit accumulator folded by multiply-xor.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// 64-bit Fx multiplier (golden-ratio derived, as in rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed with the deterministic Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_across_hashers() {
        let h = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn map_iteration_order_is_reproducible() {
        let build = || {
            let mut m = FxHashMap::default();
            for i in 0..1000u64 {
                m.insert(i.wrapping_mul(0x9E37_79B9), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn byte_writes_cover_partial_chunks() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write(&[1, 2, 3]);
        assert_ne!(a.finish(), c.finish());
    }
}
