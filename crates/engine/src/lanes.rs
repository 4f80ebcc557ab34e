//! The one serving routine: a stream segment, one tenant lane at a time.
//!
//! Inside an epoch tenants share nothing — each has its own profiler
//! and its own cache partition, and the allocation only changes at the
//! boundary — so a tenant that sees *its own* records in stream order
//! has seen the same run whatever the other tenants' records did in
//! between. [`serve_segment`] uses that: it buckets a segment of the
//! interleaved stream into per-tenant lanes and walks each lane once,
//! profiling then serving each block, which keeps one tenant's tables
//! hot for the whole lane, lets the profiler's and the partition's
//! lookups overlap, and touches the access counter once. It serves the
//! tenants it is handed and skips the rest, so the inline engine
//! (every tenant) and each [`shard`](crate::shard) worker (its own
//! tenants, over the whole buffered epoch) run the same code. Every
//! ingest path — [`Engine::push_batch`], `run`, `record_access`, each
//! worker — ends here.
//!
//! [`Engine::push_batch`]: crate::Engine::push_batch

use crate::actuate::HysteresisActuator;
use crate::obs::EngineMetrics;
use crate::TenantId;
use cps_cachesim::TenantPartition;
use cps_hotl::windowed::WindowedProfiler;
use cps_trace::Block;

/// Records bucketed at a time: enough to amortise the per-tenant
/// switch, few enough that the lanes stay cache-resident (and a
/// worker's pass over a whole buffered epoch does not grow them to the
/// epoch's size).
const LANE_CHUNK: usize = 4096;

/// One tenant's live state, borrowed apart from every other tenant's:
/// its profiler and its cache partition.
pub(crate) struct Tenant<'a> {
    profiler: &'a mut WindowedProfiler,
    partition: TenantPartition<'a>,
}

/// Every tenant's live state, in tenant order.
pub(crate) fn tenants<'a>(
    profilers: &'a mut [WindowedProfiler],
    actuator: &'a mut HysteresisActuator,
) -> impl Iterator<Item = Tenant<'a>> {
    profilers
        .iter_mut()
        .zip(actuator.tenants_mut())
        .map(|(profiler, partition)| Tenant {
            profiler,
            partition,
        })
}

/// Profiles and serves the records of `segment` whose tenant has a
/// slot in `tenants` (indexed by tenant id; `None` is another worker's
/// tenant, skipped). `segment` holds records of **one** epoch whose
/// tenants the caller has checked against `tenants.len()`. `lanes` is
/// scratch, one (empty) lane per tenant, handed back empty with its
/// storage kept. `counter` names the metrics bundle and the hot-path
/// slot to credit the served records to.
pub(crate) fn serve_segment(
    segment: &[(TenantId, Block)],
    lanes: &mut [Vec<Block>],
    tenants: &mut [Option<Tenant<'_>>],
    counter: Option<(&EngineMetrics, usize)>,
) {
    let mut served = 0;
    for piece in segment.chunks(LANE_CHUNK) {
        // Every record is bucketed, skipped tenants' too: a branch on
        // ownership would mispredict on every interleaved record.
        for &(tenant, block) in piece {
            lanes[tenant].push(block);
        }
        for (lane, slot) in lanes.iter_mut().zip(&mut *tenants) {
            if let Some(tenant) = slot {
                let profiler = &mut *tenant.profiler;
                tenant
                    .partition
                    .access_all_with(lane, |block| profiler.observe(block));
                served += lane.len();
            }
            lane.clear();
        }
    }
    if let Some((metrics, slot)) = counter {
        metrics.accesses.add(slot, served as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use cps_cachesim::PartitionedCache;
    use cps_core::CacheConfig;
    use cps_hotl::online::OnlineProfiler;
    use cps_hotl::windowed::ProfilerMode;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Lanes against the per-record loop, over several segments
        /// (some longer than one lane chunk) with a repartition between
        /// them, each segment served by two disjoint tenant subsets in
        /// turn: same profiles, counts and caches.
        #[test]
        fn lanes_equal_the_per_record_loop(
            segments in prop::collection::vec(
                prop::collection::vec((0usize..3, 0u64..40), 0..2 * LANE_CHUNK),
                1..5,
            ),
            mine in prop::collection::vec(any::<bool>(), 3),
        ) {
            let config = EngineConfig::new(3, CacheConfig::new(12, 2), 1_000);
            let mut actuator = HysteresisActuator::new(&config);
            let mut lanes = vec![Vec::new(); 3];
            let mode = ProfilerMode::Windowed { decay: 0.5 };
            let mut lane_profs = vec![WindowedProfiler::new(24, mode); 3];
            let mut cache = PartitionedCache::new(&actuator.cache().allocation());
            let mut profs = vec![OnlineProfiler::new(); 3];
            for (i, segment) in segments.iter().enumerate() {
                for worker in [true, false] {
                    let mut slots: Vec<Option<Tenant<'_>>> =
                        tenants(&mut lane_profs, &mut actuator)
                            .zip(&mine)
                            .map(|(tenant, &m)| (m == worker).then_some(tenant))
                            .collect();
                    serve_segment(segment, &mut lanes, &mut slots, None);
                }
                for &(t, b) in segment {
                    profs[t].observe(b);
                    cache.access(t, b);
                }
                prop_assert!(lanes.iter().all(|lane| lane.is_empty()));
                prop_assert_eq!(actuator.take_counts(), cache.take_counts());
                for t in 0..3 {
                    let (a, b) = (lane_profs[t].window_reuse(), profs[t].snapshot_reuse());
                    prop_assert_eq!((a.accesses, a.distinct), (b.accesses, b.distinct));
                    prop_assert_eq!(a.gaps.buckets(), b.gaps.buckets());
                    prop_assert_eq!(a.first_times.buckets(), b.first_times.buckets());
                    prop_assert_eq!(a.last_times_rev.buckets(), b.last_times_rev.buckets());
                }
                let target = [[2usize, 4, 6], [6, 2, 4]][i % 2];
                actuator.apply(&target);
                cache.set_allocation(&target.map(|u| config.cache.to_blocks(u)));
                for t in 0..3 {
                    prop_assert_eq!(
                        actuator.cache().resident_mru_order(t),
                        cache.resident_mru_order(t)
                    );
                }
            }
        }
    }
}
