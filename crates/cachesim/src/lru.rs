//! Fully-associative LRU cache — the paper's machine model.
//!
//! The HOTL theory targets fully-associative LRU (Section VIII); this
//! simulator is the exact oracle for it. Accesses are `O(1)`: a hash map
//! gives each resident block a dense id, and [`LruList::access`] — the
//! same recency routine the engine's tenant tables run — keeps the ids
//! in recency order and names the victim of a capacity miss.

use crate::metrics::AccessCounts;
use cps_dstruct::{BlockHashMap, LruList, ReuseDistances, Touch};
use cps_trace::Block;

/// A fully-associative LRU cache over abstract blocks.
///
/// # Examples
///
/// ```
/// use cps_cachesim::LruCache;
/// let mut c = LruCache::new(2);
/// assert!(!c.access(1)); // cold miss
/// assert!(!c.access(2));
/// assert!(c.access(1));  // hit
/// assert!(!c.access(3)); // evicts 2
/// assert!(!c.access(2)); // 2 was evicted
/// ```
#[derive(Clone, Debug)]
pub struct LruCache {
    capacity: usize,
    /// Resident blocks (and, during a miss, the incoming one) to ids.
    map: BlockHashMap<u32>,
    /// Block of each id.
    blocks: Vec<Block>,
    /// Ids no block holds.
    free: Vec<u32>,
    list: LruList,
}

impl LruCache {
    /// Creates a cache holding up to `capacity` blocks. A capacity of 0
    /// is legal and misses on every access.
    pub fn new(capacity: usize) -> Self {
        let reserve = capacity.min(1 << 20) + 1;
        LruCache {
            capacity,
            map: BlockHashMap::with_capacity_and_hasher(reserve, Default::default()),
            blocks: Vec::with_capacity(reserve),
            free: Vec::new(),
            list: LruList::with_capacity(reserve),
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// True if `block` is resident (without touching recency).
    pub fn contains(&self, block: Block) -> bool {
        self.map.contains_key(&block)
    }

    /// Performs one access; returns `true` on a hit.
    ///
    /// On a miss the block is inserted, evicting the LRU block if the
    /// cache is full.
    pub fn access(&mut self, block: Block) -> bool {
        if self.capacity == 0 {
            return false;
        }
        // A miss is inserted through the lookup's own entry, before the
        // victim leaves the map (which has room for one more).
        let id = *self
            .map
            .entry(block)
            .or_insert_with(|| match self.free.pop() {
                Some(id) => {
                    self.blocks[id as usize] = block;
                    id
                }
                None => {
                    let id = u32::try_from(self.blocks.len()).expect("below 2^32 resident blocks");
                    self.blocks.push(block);
                    id
                }
            });
        match self.list.access(id, self.capacity) {
            Touch::Hit => true,
            Touch::Miss { evicted } => {
                if let Some(victim) = evicted {
                    self.evict(victim);
                }
                false
            }
        }
    }

    /// Drops an unlinked id's block from the map and frees the id.
    fn evict(&mut self, id: u32) {
        self.map.remove(&self.blocks[id as usize]);
        self.free.push(id);
    }

    /// Changes the capacity in place — the repartitioning primitive.
    ///
    /// Shrinking evicts LRU blocks immediately (as way-repartitioning
    /// hardware does on reallocation); growing just raises the limit,
    /// letting the tenant fill the new space on demand.
    pub fn resize(&mut self, new_capacity: usize) {
        while self.list.len() > new_capacity {
            let victim = self.list.pop_back().expect("len > 0");
            self.evict(victim);
        }
        self.capacity = new_capacity;
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.map.clear();
        self.blocks.clear();
        self.free.clear();
        self.list.clear();
    }

    /// Resident blocks from MRU to LRU (diagnostic; `O(len)`).
    pub fn resident_mru_order(&self) -> Vec<Block> {
        self.list
            .iter()
            .map(|id| self.blocks[id as usize])
            .collect()
    }
}

/// Simulates one program alone in a cache of `capacity` blocks.
pub fn simulate_solo(trace: &[Block], capacity: usize) -> AccessCounts {
    let mut cache = LruCache::new(capacity);
    let mut counts = AccessCounts::default();
    for &b in trace {
        counts.record(cache.access(b));
    }
    counts
}

/// The exact solo miss-ratio curve for capacities `0..=max_capacity`,
/// computed in one Olken pass (`O(n log n)`), misses counted from a cold
/// cache (compulsory misses included).
pub fn exact_miss_ratio_curve(trace: &[Block], max_capacity: usize) -> Vec<f64> {
    ReuseDistances::from_trace(trace).miss_ratio_curve(max_capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_always_misses() {
        let mut c = LruCache::new(0);
        assert!(!c.access(1));
        assert!(!c.access(1));
        assert!(c.is_empty());
    }

    /// The hash seed picks probe chains, never outcomes.
    #[test]
    fn hit_sequence_does_not_depend_on_the_hash_seed() {
        use cps_dstruct::BlockHashBuilder;
        let trace: Vec<Block> = (0..3_000).map(|i| (i * 31 + i * i / 7) % 97).collect();
        let runs: Vec<(Vec<bool>, Vec<Block>)> = [2u64, 0xC0FF_EE00_0000_0001]
            .into_iter()
            .map(|seed| {
                let mut cache = LruCache {
                    map: BlockHashMap::with_hasher(BlockHashBuilder::with_seed(seed)),
                    ..LruCache::new(24)
                };
                let hits = trace.iter().map(|&b| cache.access(b)).collect();
                (hits, cache.resident_mru_order())
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(runs[0].0.iter().any(|&h| h) && runs[0].0.iter().any(|&h| !h));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = LruCache::new(3);
        c.access(1);
        c.access(2);
        c.access(3);
        c.access(1); // 1 becomes MRU; LRU is 2
        c.access(4); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert!(c.contains(4));
        assert_eq!(c.resident_mru_order(), vec![4, 1, 3]);
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut c = LruCache::new(5);
        for b in 0..100u64 {
            c.access(b % 13);
            assert!(c.len() <= 5);
        }
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn solo_simulation_matches_olken_curve() {
        let trace: Vec<Block> = (0..800).map(|i| (i * 17 + i / 3) % 57).collect();
        let curve = exact_miss_ratio_curve(&trace, 64);
        for cap in [0usize, 1, 3, 8, 20, 57, 64] {
            let counts = simulate_solo(&trace, cap);
            assert!(
                (counts.miss_ratio() - curve[cap]).abs() < 1e-12,
                "cap {cap}: sim {} vs olken {}",
                counts.miss_ratio(),
                curve[cap]
            );
        }
    }

    #[test]
    fn inclusion_property_holds() {
        // LRU is a stack algorithm: a bigger cache never misses more.
        let trace: Vec<Block> = (0..2000).map(|i| (i * 31 + i * i / 11) % 111).collect();
        let mut prev = u64::MAX;
        for cap in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            let m = simulate_solo(&trace, cap).misses;
            assert!(m <= prev, "cap {cap}: {m} > {prev}");
            prev = m;
        }
    }

    #[test]
    fn cyclic_loop_thrashes_below_working_set() {
        let trace: Vec<Block> = (0..1000).map(|i| i % 10).collect();
        assert_eq!(simulate_solo(&trace, 9).misses, 1000);
        assert_eq!(simulate_solo(&trace, 10).misses, 10);
    }

    #[test]
    fn resize_shrink_evicts_lru_first() {
        let mut c = LruCache::new(4);
        for b in [1u64, 2, 3, 4] {
            c.access(b);
        }
        c.access(1); // MRU order: 1 4 3 2
        c.resize(2);
        assert_eq!(c.len(), 2);
        assert!(c.contains(1));
        assert!(c.contains(4));
        assert!(!c.contains(2));
        assert!(!c.contains(3));
        // Behaves like a 2-block cache afterwards.
        c.access(9);
        assert_eq!(c.len(), 2);
        assert!(!c.contains(4));
    }

    #[test]
    fn resize_grow_keeps_contents() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        c.resize(4);
        assert!(c.contains(1) && c.contains(2));
        c.access(3);
        c.access(4);
        assert_eq!(c.len(), 4);
        assert!(c.contains(1), "growth must not evict");
    }

    #[test]
    fn resize_to_zero_empties() {
        let mut c = LruCache::new(3);
        c.access(1);
        c.resize(0);
        assert!(c.is_empty());
        assert!(!c.access(1));
        assert!(c.is_empty());
    }

    #[test]
    fn clear_resets_state() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.access(1), "post-clear access is a miss");
    }
}
