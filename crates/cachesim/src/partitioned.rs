//! Strictly partitioned simulation (the paper's Figure 2, case 3).
//!
//! Each program runs in a private LRU partition; there is no
//! interference, so partitioned co-run performance is exactly the solo
//! performance at the partition size. The function exists so scheme
//! evaluations read uniformly, and to make that equivalence testable.
//!
//! [`PartitionedCache`] is the live form, one [`LruCache`] per tenant.
//! The online engine keeps the same partitions in its per-tenant
//! tables instead, keyed by its profiler's block ids so that one table
//! probe serves both; every partition, here or there, runs the one
//! recency routine `cps_dstruct::LruList::access`.

use crate::lru::{simulate_solo, LruCache};
use crate::metrics::AccessCounts;
use cps_trace::{Block, Trace};

/// A live, resizable partitioned cache: one private LRU partition per
/// tenant, repartitionable between accesses.
///
/// This is the online counterpart of [`simulate_partitioned`]: instead of
/// replaying whole traces at a fixed allocation, it serves one access at
/// a time and lets a controller change the allocation mid-stream.
/// Resizes are *graceful*: growing a partition only raises its limit (the
/// tenant fills the new space on demand), while shrinking evicts exactly
/// the excess blocks from the LRU end of that partition. Hot blocks
/// survive repartitioning.
///
/// # Examples
///
/// ```
/// use cps_cachesim::PartitionedCache;
/// let mut pc = PartitionedCache::new(&[2, 2]);
/// pc.access(0, 10);
/// pc.access(0, 11);
/// pc.access(1, 90);
/// pc.set_allocation(&[3, 1]); // tenant 0 grows, tenant 1 shrinks
/// assert!(pc.access(0, 10)); // survived the resize
/// assert_eq!(pc.allocation(), vec![3, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct PartitionedCache {
    partitions: Vec<LruCache>,
    counts: Vec<AccessCounts>,
}

impl PartitionedCache {
    /// Creates one empty LRU partition of `sizes[i]` blocks per tenant.
    pub fn new(sizes: &[usize]) -> Self {
        PartitionedCache {
            partitions: sizes.iter().map(|&c| LruCache::new(c)).collect(),
            counts: vec![AccessCounts::default(); sizes.len()],
        }
    }

    /// Number of tenants (partitions).
    pub fn tenants(&self) -> usize {
        self.partitions.len()
    }

    /// Current per-tenant capacities in blocks.
    pub fn allocation(&self) -> Vec<usize> {
        self.partitions.iter().map(|p| p.capacity()).collect()
    }

    /// Total capacity across all partitions, in blocks.
    pub fn total_capacity(&self) -> usize {
        self.partitions.iter().map(|p| p.capacity()).sum()
    }

    /// Performs one access by `tenant`; returns `true` on a hit.
    ///
    /// # Panics
    /// Panics if `tenant` is out of range.
    pub fn access(&mut self, tenant: usize, block: Block) -> bool {
        let hit = self.partitions[tenant].access(block);
        self.counts[tenant].record(hit);
        hit
    }

    /// Applies a whole new allocation, shrinking partitions before
    /// growing so total residency never exceeds the larger of the old
    /// and new totals.
    ///
    /// # Panics
    /// Panics if `sizes` does not have one entry per tenant.
    pub fn set_allocation(&mut self, sizes: &[usize]) {
        assert_eq!(sizes.len(), self.partitions.len(), "one size per tenant");
        for (p, &c) in self.partitions.iter_mut().zip(sizes) {
            if c < p.capacity() {
                p.resize(c);
            }
        }
        for (p, &c) in self.partitions.iter_mut().zip(sizes) {
            if c > p.capacity() {
                p.resize(c);
            }
        }
    }

    /// Lifetime hit/miss counts for one tenant.
    ///
    /// # Panics
    /// Panics if `tenant` is out of range.
    pub fn counts(&self, tenant: usize) -> AccessCounts {
        self.counts[tenant]
    }

    /// Resets the hit/miss counters without disturbing cache contents —
    /// used by epoch-driven controllers to measure per-epoch miss ratios.
    pub fn reset_counts(&mut self) {
        for c in &mut self.counts {
            *c = AccessCounts::default();
        }
    }

    /// Returns the per-tenant counts accumulated since the last reset
    /// and clears them, leaving cache contents warm — the accounting
    /// step of an epoch boundary: the one cache hands the epoch's counts
    /// to the solver in one call, however many threads served its
    /// tenants.
    pub fn take_counts(&mut self) -> Vec<AccessCounts> {
        std::mem::replace(
            &mut self.counts,
            vec![AccessCounts::default(); self.partitions.len()],
        )
    }

    /// Resident blocks of one partition from MRU to LRU (diagnostic).
    ///
    /// # Panics
    /// Panics if `tenant` is out of range.
    pub fn resident_mru_order(&self, tenant: usize) -> Vec<Block> {
        self.partitions[tenant].resident_mru_order()
    }
}

/// Simulates each program in its own partition of `sizes[i]` blocks.
///
/// # Panics
/// Panics if `traces` and `sizes` lengths differ.
pub fn simulate_partitioned(traces: &[&Trace], sizes: &[usize]) -> Vec<AccessCounts> {
    assert_eq!(traces.len(), sizes.len(), "one size per program");
    traces
        .iter()
        .zip(sizes)
        .map(|(t, &c)| simulate_solo(&t.blocks, c))
        .collect()
}

/// Access-weighted group miss ratio of a partitioned run.
pub fn group_miss_ratio(results: &[AccessCounts]) -> f64 {
    let acc: u64 = results.iter().map(|c| c.accesses).sum();
    let mis: u64 = results.iter().map(|c| c.misses).sum();
    if acc == 0 {
        0.0
    } else {
        mis as f64 / acc as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_trace::WorkloadSpec;

    #[test]
    fn partitioned_equals_solo() {
        let a = WorkloadSpec::SequentialLoop { working_set: 30 }.generate(2_000, 1);
        let b = WorkloadSpec::UniformRandom { region: 100 }.generate(2_000, 2);
        let parts = simulate_partitioned(&[&a, &b], &[40, 60]);
        assert_eq!(parts[0], simulate_solo(&a.blocks, 40));
        assert_eq!(parts[1], simulate_solo(&b.blocks, 60));
    }

    #[test]
    fn group_ratio_weights_by_accesses() {
        let r = vec![
            AccessCounts {
                accesses: 100,
                misses: 50,
            },
            AccessCounts {
                accesses: 300,
                misses: 30,
            },
        ];
        assert!((group_miss_ratio(&r) - 0.2).abs() < 1e-12);
        assert_eq!(group_miss_ratio(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "one size per program")]
    fn mismatched_sizes_panic() {
        let a = WorkloadSpec::SequentialLoop { working_set: 5 }.generate(10, 0);
        let _ = simulate_partitioned(&[&a], &[1, 2]);
    }

    #[test]
    fn live_cache_matches_batch_partitioned_at_fixed_allocation() {
        let a = WorkloadSpec::SequentialLoop { working_set: 30 }.generate(2_000, 1);
        let b = WorkloadSpec::UniformRandom { region: 100 }.generate(2_000, 2);
        let batch = simulate_partitioned(&[&a, &b], &[40, 60]);
        let mut pc = PartitionedCache::new(&[40, 60]);
        // Interleave arbitrarily: isolation means order across tenants
        // cannot matter.
        for (&x, &y) in a.blocks.iter().zip(&b.blocks) {
            pc.access(1, y);
            pc.access(0, x);
        }
        assert_eq!(pc.counts(0), batch[0]);
        assert_eq!(pc.counts(1), batch[1]);
    }

    #[test]
    fn grow_preserves_lru_order_and_contents() {
        let mut pc = PartitionedCache::new(&[4, 4]);
        for b in [1u64, 2, 3, 4, 2] {
            pc.access(0, b);
        }
        let before = pc.resident_mru_order(0);
        assert_eq!(before, vec![2, 4, 3, 1]);
        pc.set_allocation(&[9, 4]);
        assert_eq!(
            pc.resident_mru_order(0),
            before,
            "growth must keep contents and recency order"
        );
        // New space is usable without evicting old residents.
        for b in 10u64..15 {
            pc.access(0, b);
        }
        assert_eq!(pc.resident_mru_order(0).len(), 9);
        assert!(pc.resident_mru_order(0).ends_with(&[2, 4, 3, 1]));
    }

    #[test]
    fn shrink_evicts_exactly_excess_from_lru_end() {
        let mut pc = PartitionedCache::new(&[8, 4]);
        for b in 1u64..=8 {
            pc.access(0, b);
        }
        pc.access(0, 3); // MRU order: 3 8 7 6 5 4 2 1
        let before = pc.resident_mru_order(0);
        pc.set_allocation(&[5, 4]);
        let after = pc.resident_mru_order(0);
        assert_eq!(after.len(), 5, "exactly old - new = 3 blocks evicted");
        assert_eq!(
            after,
            before[..5].to_vec(),
            "survivors are the 5 MRU blocks, order intact"
        );
        assert_eq!(after, vec![3, 8, 7, 6, 5]);
    }

    #[test]
    fn set_allocation_shrinks_then_grows_independently() {
        let mut pc = PartitionedCache::new(&[3, 3, 3]);
        for t in 0..3 {
            for b in 0u64..3 {
                pc.access(t, 100 * t as u64 + b);
            }
        }
        pc.set_allocation(&[1, 3, 5]);
        assert_eq!(pc.allocation(), vec![1, 3, 5]);
        assert_eq!(pc.total_capacity(), 9);
        // Tenant 0 keeps only its MRU block; tenants 1 and 2 keep all.
        assert_eq!(pc.resident_mru_order(0), vec![2]);
        assert_eq!(pc.resident_mru_order(1).len(), 3);
        assert_eq!(pc.resident_mru_order(2).len(), 3);
    }

    #[test]
    fn reset_counts_keeps_contents_warm() {
        let mut pc = PartitionedCache::new(&[2]);
        pc.access(0, 7);
        pc.access(0, 7);
        assert_eq!(pc.counts(0).accesses, 2);
        pc.reset_counts();
        assert_eq!(pc.counts(0).accesses, 0);
        assert!(pc.access(0, 7), "contents survive a counter reset");
    }

    #[test]
    fn take_counts_returns_and_resets() {
        let mut pc = PartitionedCache::new(&[2, 2]);
        pc.access(0, 1);
        pc.access(0, 1);
        pc.access(1, 9);
        let taken = pc.take_counts();
        assert_eq!(taken[0].accesses, 2);
        assert_eq!(taken[0].misses, 1);
        assert_eq!(taken[1].accesses, 1);
        assert_eq!(pc.counts(0).accesses, 0);
        assert_eq!(pc.counts(1).accesses, 0);
        assert!(pc.access(0, 1), "contents stay warm across take_counts");
    }

    #[test]
    #[should_panic(expected = "one size per tenant")]
    fn set_allocation_length_mismatch_panics() {
        let mut pc = PartitionedCache::new(&[1, 1]);
        pc.set_allocation(&[1]);
    }
}
