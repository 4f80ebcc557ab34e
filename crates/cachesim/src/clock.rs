//! CLOCK (second-chance) replacement — a non-LRU reality check.
//!
//! Section VIII notes the machine model assumes LRU while "the
//! replacement policy may be an approximation or improvement of LRU",
//! citing Sen & Wood for modeling non-LRU policies. CLOCK is *the*
//! canonical LRU approximation (one reference bit, a sweeping hand, no
//! recency list), so this simulator lets the experiments quantify how
//! far an approximation drifts from the fully-associative LRU that the
//! theory models — in practice, very little for these workloads.

use crate::metrics::AccessCounts;
use cps_dstruct::BlockHashMap;
use cps_trace::Block;

/// A CLOCK (second-chance) cache.
#[derive(Clone, Debug)]
pub struct ClockCache {
    capacity: usize,
    /// Frame contents; `None` until the cache fills.
    frames: Vec<Option<Block>>,
    /// Reference bits, parallel to `frames`.
    referenced: Vec<bool>,
    /// Next frame the hand examines.
    hand: usize,
    /// Block → frame index.
    map: BlockHashMap<usize>,
}

impl ClockCache {
    /// Creates a CLOCK cache of `capacity` frames. Zero capacity misses
    /// on every access.
    pub fn new(capacity: usize) -> Self {
        ClockCache {
            capacity,
            frames: vec![None; capacity],
            referenced: vec![false; capacity],
            hand: 0,
            map: BlockHashMap::with_capacity_and_hasher(
                capacity.min(1 << 20) + 1,
                Default::default(),
            ),
        }
    }

    /// Capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Performs one access; returns `true` on a hit.
    pub fn access(&mut self, block: Block) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&frame) = self.map.get(&block) {
            self.referenced[frame] = true;
            return true;
        }
        // Miss: find a victim frame with the clock hand.
        let victim = loop {
            let f = self.hand;
            self.hand = (self.hand + 1) % self.capacity;
            match self.frames[f] {
                None => break f, // free frame (cold cache)
                Some(_) if !self.referenced[f] => break f,
                Some(_) => self.referenced[f] = false, // second chance
            }
        };
        if let Some(evicted) = self.frames[victim] {
            self.map.remove(&evicted);
        }
        self.frames[victim] = Some(block);
        self.referenced[victim] = true;
        self.map.insert(block, victim);
        false
    }

    /// Simulates a whole trace from cold.
    pub fn simulate(&mut self, trace: &[Block]) -> AccessCounts {
        let mut counts = AccessCounts::default();
        for &b in trace {
            counts.record(self.access(b));
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::simulate_solo;

    #[test]
    fn zero_capacity_always_misses() {
        let mut c = ClockCache::new(0);
        assert!(!c.access(1));
        assert!(!c.access(1));
        assert!(c.is_empty());
    }

    #[test]
    fn hit_after_insert() {
        let mut c = ClockCache::new(2);
        assert!(!c.access(7));
        assert!(c.access(7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn second_chance_protects_referenced_blocks() {
        // Build a state with cleared bits first: filling 1,2,3 leaves all
        // referenced; inserting 4 sweeps (clearing everyone), wraps, and
        // evicts 1 → frames [4*, 2, 3], hand at 1, only 4 referenced.
        let mut c = ClockCache::new(3);
        c.access(1);
        c.access(2);
        c.access(3);
        c.access(4);
        // Re-inserting 1 takes frame 1 (2 is unreferenced there):
        // frames [4*, 1*, 3], hand at 2.
        assert!(!c.access(1), "1 was the wrap-around victim");
        assert!(!c.access(2), "2 was evicted for 1's re-insertion");
        // That access(2) sweep: f2(3, unref) is the victim — 4 and 1
        // keep their places *because their bits are set* while 3, the
        // unreferenced one, dies. That is the second chance.
        assert!(c.access(4), "4 was protected by its reference bit");
        assert!(c.access(1), "1 was protected by its reference bit");
        assert!(!c.access(3), "3 was the victim");
    }

    #[test]
    fn capacity_respected() {
        let mut c = ClockCache::new(5);
        for b in 0..200u64 {
            c.access(b % 17);
            assert!(c.len() <= 5);
        }
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn everything_fits_below_capacity() {
        let mut c = ClockCache::new(10);
        let trace: Vec<Block> = (0..500).map(|i| i % 8).collect();
        let counts = c.simulate(&trace);
        assert_eq!(counts.misses, 8, "only cold misses when ws < capacity");
    }

    #[test]
    fn tracks_lru_on_skewed_workloads() {
        // Zipf-like reuse: CLOCK approximates LRU closely.
        let trace: Vec<Block> = (0..30_000u64)
            .map(|i| {
                let x = (i.wrapping_mul(2654435761)) >> 7;
                (x % 64) * (x % 7) % 200
            })
            .collect();
        let mut clock = ClockCache::new(64);
        let clock_mr = clock.simulate(&trace).miss_ratio();
        let lru_mr = simulate_solo(&trace, 64).miss_ratio();
        assert!(
            (clock_mr - lru_mr).abs() < 0.05,
            "clock {clock_mr} vs lru {lru_mr}"
        );
    }

    #[test]
    fn cyclic_scan_differs_from_lru() {
        // The classic divergence: LRU gets zero hits on a loop of
        // ws = capacity + 1; CLOCK behaves similarly badly, but on a
        // loop exactly at capacity both get full hits after warmup.
        let trace: Vec<Block> = (0..5000).map(|i| i % 10).collect();
        let mut clock = ClockCache::new(10);
        assert_eq!(clock.simulate(&trace).misses, 10);
    }
}
