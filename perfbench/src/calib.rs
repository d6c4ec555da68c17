//! The reference kernel that calibrates host speed.
//!
//! On a shared host, other tenants change how fast this process runs by up
//! to 1.6x, in stretches from seconds to minutes, so raw wall times of the
//! same code spread past any useful bound from run to run. The harness
//! therefore runs this fixed kernel once per round, next to each set-up
//! repetition and sample, and reports times relative to it, scaled to
//! [`REFERENCE_S`]. The kernel mixes unpredictable branches (sorting random
//! keys) with a binary-heap event loop over a table larger than L1, the
//! kinds of work that slowed most with the simulator among those tried. It
//! uses none of the repository's code, so a change to the program cannot
//! move it; a change that claims a gain must not change it either.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds of the kernel's best run on the reference host (2 vCPUs, Intel
/// Xeon model 207, shared with other tenants). Calibrated times read as
/// seconds on that host.
pub const REFERENCE_S: f64 = 0.12;

/// Checksum of one kernel run; a different value means the kernel did not
/// do its work.
pub const CHECKSUM: u64 = 133_921_738_977_946;

/// Sorts of `SORT_LEN` random keys.
const SORTS: usize = 2000;
const SORT_LEN: usize = 2000;
/// Pop-push steps of the heap event loop.
const HEAP_STEPS: usize = 1_500_000;
/// Live events in the heap, as many as nodes × event kinds in a run.
const HEAP_EVENTS: u32 = 64;
/// State table the events update: 256 KiB.
const TABLE_WORDS: usize = 32 * 1024;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn sorts() -> u64 {
    let mut s = 3u64;
    let mut acc = 0u64;
    let mut keys = vec![0u32; SORT_LEN];
    for _ in 0..SORTS {
        for k in keys.iter_mut() {
            *k = xorshift(&mut s) as u32;
        }
        black_box(&mut keys).sort_unstable();
        acc = acc.wrapping_add(u64::from(keys[SORT_LEN / 2]));
    }
    acc
}

fn event_loop() -> u64 {
    let mut s = 1u64;
    let mut table = vec![0u64; TABLE_WORDS];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..HEAP_EVENTS)
        .map(|id| Reverse((xorshift(&mut s) % 1000, id)))
        .collect();
    let mut acc = 0u64;
    for _ in 0..HEAP_STEPS {
        let Some(Reverse((t, id))) = heap.pop() else {
            break;
        };
        let r = xorshift(&mut s);
        let k = (r as usize) & (TABLE_WORDS - 1);
        table[k] = table[k].wrapping_add(t);
        acc = acc.wrapping_add(table[(k * 7 + id as usize) & (TABLE_WORDS - 1)]);
        heap.push(Reverse((t + 1 + r % 1000, id)));
    }
    acc
}

/// Runs the kernel once; returns its host seconds and its checksum.
pub fn reference() -> (f64, u64) {
    let t0 = Instant::now();
    let sum = black_box(sorts()) ^ black_box(event_loop());
    (t0.elapsed().as_secs_f64(), sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_pinned() {
        assert_eq!(reference().1, reference().1);
        assert_eq!(reference().1, CHECKSUM);
    }
}
