//! The one serving routine: a stream segment, one tenant table at a
//! time.
//!
//! Inside an epoch tenants share nothing — each has its own profile
//! window and its own cache partition, and the allocation only changes
//! at the boundary — so a tenant that sees *its own* records in stream
//! order has seen the same run whatever the other tenants' records did
//! in between. [`serve_segment`] uses that: it buckets a segment of the
//! interleaved stream into per-tenant lanes and walks each lane once
//! through its [`TenantTable`], which keeps one tenant's table hot for
//! the whole lane and adds its counts once. It touches no metric: the
//! engine books every instrument at the epoch boundary. It serves the
//! tenants it is handed and skips the rest, so the inline engine (every
//! tenant) and each [`shard`](crate::shard) worker (its own tenants,
//! over the whole buffered epoch) run the same code. Every ingest path
//! — [`Engine::push_batch`], `run`, `record_access`, each worker — ends
//! here.
//!
//! A tenant's profiler window and its LRU partition share one block
//! table: the profiler's map gives each block a dense id (see
//! `cps_hotl::online`), and the partition is an [`LruList`] of those
//! ids. A record is one table probe: the id's last-access stamp decides
//! reuse vs. first touch in the window, its links decide hit vs. miss,
//! and an eviction only unlinks the victim's id. The window close keeps
//! the resident ids and reclaims the rest once they outnumber the live
//! ones.
//!
//! [`Engine::push_batch`]: crate::Engine::push_batch

use crate::TenantId;
use cps_cachesim::AccessCounts;
use cps_dstruct::{LruList, Touch};
use cps_hotl::windowed::WindowedProfiler;
use cps_hotl::MissRatioCurve;
use cps_trace::Block;

/// Records bucketed at a time: enough to amortise the per-tenant
/// switch, few enough that the lanes stay cache-resident (and a
/// worker's pass over a whole buffered epoch does not grow them to the
/// epoch's size).
const LANE_CHUNK: usize = 4096;

/// One tenant's live state: its windowed profiler and its LRU partition
/// of `capacity` blocks over the profiler's block ids, and the
/// partition's hit/miss counts since the last take.
#[derive(Clone, Debug)]
pub(crate) struct TenantTable {
    profiler: WindowedProfiler,
    lru: LruList,
    capacity: usize,
    counts: AccessCounts,
}

impl TenantTable {
    /// An empty table with a partition of `capacity` blocks.
    pub(crate) fn new(profiler: WindowedProfiler, capacity: usize) -> Self {
        TenantTable {
            profiler,
            lru: LruList::with_capacity(capacity.min(1 << 20)),
            capacity,
            counts: AccessCounts::default(),
        }
    }

    /// Profiles and serves `lane` in order.
    fn serve(&mut self, lane: &[Block]) {
        let mut hits = 0;
        for &block in lane {
            let id = self.profiler.observe_indexed(block);
            hits += u64::from(self.lru.access(id, self.capacity) == Touch::Hit);
        }
        self.counts.accesses += lane.len() as u64;
        self.counts.misses += lane.len() as u64 - hits;
    }

    /// The tenant's profiler.
    pub(crate) fn profiler(&self) -> &WindowedProfiler {
        &self.profiler
    }

    /// Partition capacity in blocks.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resizes the partition gracefully: growing only raises the limit;
    /// shrinking unlinks exactly the excess from the LRU end.
    pub(crate) fn resize(&mut self, capacity: usize) {
        while self.lru.len() > capacity {
            self.lru.pop_back();
        }
        self.capacity = capacity;
    }

    /// Ends the profile window (see [`WindowedProfiler::end_window`]),
    /// keeping the resident blocks' ids.
    pub(crate) fn end_window(&mut self) -> Option<MissRatioCurve> {
        let lru = &self.lru;
        self.profiler
            .end_window_keeping(lru.len(), |id| lru.contains(id))
    }

    /// The counts since the last take, reset.
    pub(crate) fn take_counts(&mut self) -> AccessCounts {
        std::mem::take(&mut self.counts)
    }
}

/// Profiles and serves the records of `segment` whose tenant has a
/// slot in `tenants` (indexed by tenant id; `None` is another worker's
/// tenant, skipped). `segment` holds records of **one** epoch whose
/// tenants the caller has checked against `tenants.len()`. `lanes` is
/// scratch, one (empty) lane per tenant, handed back empty with its
/// storage kept.
pub(crate) fn serve_segment(
    segment: &[(TenantId, Block)],
    lanes: &mut [Vec<Block>],
    tenants: &mut [Option<&mut TenantTable>],
) {
    for piece in segment.chunks(LANE_CHUNK) {
        // Every record is bucketed, skipped tenants' too: a branch on
        // ownership would mispredict on every interleaved record.
        for &(tenant, block) in piece {
            lanes[tenant].push(block);
        }
        for (lane, slot) in lanes.iter_mut().zip(&mut *tenants) {
            if let Some(table) = slot {
                table.serve(lane);
            }
            lane.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuate::HysteresisActuator;
    use crate::EngineConfig;
    use cps_core::CacheConfig;
    use cps_hotl::ReuseProfile;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A move-to-front LRU on a `Vec`, MRU first: the reference the
    /// tables' partitions are held to.
    #[derive(Default)]
    struct MtfLru {
        capacity: usize,
        blocks: Vec<Block>,
    }

    impl MtfLru {
        fn access(&mut self, block: Block) -> bool {
            let hit = match self.blocks.iter().position(|&b| b == block) {
                Some(at) => {
                    self.blocks.remove(at);
                    true
                }
                None => false,
            };
            if hit || self.capacity > 0 {
                self.blocks.insert(0, block);
                self.blocks.truncate(self.capacity);
            }
            hit
        }
    }

    /// A table's resident blocks, MRU first.
    fn resident(table: &TenantTable) -> Vec<Block> {
        let block: HashMap<u32, Block> =
            table.profiler.block_ids().map(|(b, id)| (id, b)).collect();
        table.lru.iter().map(|id| block[&id]).collect()
    }

    /// What happens after a segment is served: whether the windows
    /// close, and the allocation (units per tenant) applied next.
    type Step = (bool, [usize; 3]);

    /// Serves `segments` through [`serve_segment`], each split between
    /// two workers by `mine`, and checks every table after every step
    /// against a reference that shares no code with it: the batch
    /// `ReuseProfile` of each open window's own records and a `Vec`
    /// LRU. Returns the largest block table any tenant held.
    fn check_against_references(
        segments: &[Vec<(TenantId, Block)>],
        steps: &[Step],
        mine: &[bool],
    ) -> usize {
        let config = EngineConfig::new(3, CacheConfig::new(12, 2), 1_000);
        let mut actuator = HysteresisActuator::new(&config);
        let mut lanes = vec![Vec::new(); 3];
        let mut lrus: Vec<MtfLru> = actuator
            .capacities()
            .into_iter()
            .map(|capacity| MtfLru {
                capacity,
                ..MtfLru::default()
            })
            .collect();
        let mut windows = vec![Vec::new(); 3];
        let mut largest = 0;
        for (segment, &(close, target)) in segments.iter().zip(steps.iter().cycle()) {
            for worker in [true, false] {
                let mut slots: Vec<Option<&mut TenantTable>> = actuator
                    .tables_mut()
                    .iter_mut()
                    .zip(mine)
                    .map(|(table, &m)| (m == worker).then_some(table))
                    .collect();
                serve_segment(segment, &mut lanes, &mut slots);
            }
            assert!(lanes.iter().all(|lane| lane.is_empty()));
            let mut expected = vec![AccessCounts::default(); 3];
            for &(t, b) in segment {
                expected[t].accesses += 1;
                expected[t].misses += u64::from(!lrus[t].access(b));
                windows[t].push(b);
            }
            assert_eq!(actuator.take_counts(), expected);
            for (t, table) in actuator.tables().iter().enumerate() {
                let (a, b) = (
                    table.profiler.window_reuse(),
                    ReuseProfile::from_trace(&windows[t]),
                );
                assert_eq!((a.accesses, a.distinct), (b.accesses, b.distinct));
                assert_eq!(a.gaps.buckets(), b.gaps.buckets());
                assert_eq!(a.first_times.buckets(), b.first_times.buckets());
                assert_eq!(a.last_times_rev.buckets(), b.last_times_rev.buckets());
            }
            if close {
                for (table, window) in actuator.tables_mut().iter_mut().zip(&mut windows) {
                    table.end_window();
                    window.clear();
                }
            }
            actuator.apply(&target);
            for ((t, table), lru) in actuator.tables().iter().enumerate().zip(&mut lrus) {
                lru.capacity = config.cache.to_blocks(target[t]);
                lru.blocks.truncate(lru.capacity);
                assert_eq!(resident(table), lru.blocks, "tenant {t}");
                largest = largest.max(table.profiler.block_ids().count());
            }
        }
        largest
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Several segments (some longer than one lane chunk), each
        /// served by two disjoint tenant subsets in turn, with windows
        /// closing mid-stream and repartitions — shrinks to 0 units and
        /// regrowth among them — between segments.
        #[test]
        fn lanes_equal_the_independent_references(
            segments in prop::collection::vec(
                prop::collection::vec((0usize..3, 0u64..40), 0..2 * LANE_CHUNK),
                1..6,
            ),
            steps in prop::collection::vec((any::<bool>(), 0usize..5), 1..6),
            mine in prop::collection::vec(any::<bool>(), 3),
        ) {
            const TARGETS: [[usize; 3]; 5] =
                [[4, 4, 4], [2, 4, 6], [0, 6, 6], [12, 0, 0], [6, 0, 6]];
            let steps: Vec<Step> = steps.iter().map(|&(c, i)| (c, TARGETS[i])).collect();
            check_against_references(&segments, &steps, &mine);
        }
    }

    /// Rounds of a never-reused scan, a pause that touches one fresh
    /// block, then a revisit of the scan's tail: each close after a
    /// scan or a pause finds more stale ids than touched and resident
    /// ones and reclaims them, the resident ids (untouched in the
    /// pause) survive it, and the table stays bounded while the
    /// references still agree.
    #[test]
    fn a_never_reused_stream_reclaims_only_stale_ids() {
        let mut segments: Vec<Vec<(TenantId, Block)>> = Vec::new();
        for round in 0..40u64 {
            let base = round * 10_000;
            segments.push((0..300).map(|i| (i as usize % 3, base + i)).collect());
            segments.push((0..3).map(|t| (t, base + 5_000 + t as u64)).collect());
            segments.push((0..30).map(|i| (i as usize % 3, base + 299 - i)).collect());
        }
        let steps = [
            (true, [4, 4, 4]),
            (true, [2, 4, 6]),
            (true, [0, 6, 6]),
            (true, [6, 0, 6]),
        ];
        let largest = check_against_references(&segments, &steps, &[true, false, true]);
        // At most 100 ids touched per tenant per window, 12 resident.
        assert!(largest <= 2 * (100 + 12), "{largest} ids");
    }
}
