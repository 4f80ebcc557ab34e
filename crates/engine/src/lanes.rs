//! The one serving routine: a stream segment, one tenant lane at a time.
//!
//! Inside an epoch tenants share nothing — each has its own profiler
//! and its own cache partition, and the allocation only changes at the
//! boundary — so a tenant that sees *its own* records in stream order
//! has seen the same run whatever the other tenants' records did in
//! between. [`serve_segment`] uses that: it buckets a segment of the
//! interleaved stream into per-tenant lanes and hands each lane to the
//! tenant's profiler and partition in one call, which keeps one
//! tenant's tables hot for the whole lane and touches the access
//! counter once. Every ingest path — [`Engine::push_batch`], `run`,
//! `record_access`, each [`shard`](crate::shard) worker — ends here.
//!
//! [`Engine::push_batch`]: crate::Engine::push_batch

use crate::actuate::HysteresisActuator;
use crate::obs::EngineMetrics;
use crate::TenantId;
use cps_trace::Block;

/// Records bucketed at a time: enough to amortise the per-tenant
/// switch, few enough that the lanes stay cache-resident (and a shard
/// worker's 50 k-record chunk does not grow them to its own size).
const LANE_CHUNK: usize = 4096;

/// Profiles and serves `segment`: records of **one** epoch whose
/// tenants the caller has checked against `lanes.len()`. `lanes` is
/// scratch, one (empty) lane per tenant, handed back empty with its
/// storage kept. `observe_all` feeds a lane to that tenant's profiler;
/// `counter` names the metrics bundle and the hot-path slot to credit
/// the segment's accesses to.
pub(crate) fn serve_segment<P>(
    segment: &[(TenantId, Block)],
    lanes: &mut [Vec<Block>],
    profilers: &mut [P],
    observe_all: impl Fn(&mut P, &[Block]),
    actuator: &mut HysteresisActuator,
    counter: Option<(&EngineMetrics, usize)>,
) {
    for piece in segment.chunks(LANE_CHUNK) {
        for &(tenant, block) in piece {
            lanes[tenant].push(block);
        }
        for (tenant, (lane, profiler)) in lanes.iter_mut().zip(&mut *profilers).enumerate() {
            if !lane.is_empty() {
                observe_all(profiler, lane);
                actuator.access_all(tenant, lane);
                lane.clear();
            }
        }
    }
    if let Some((metrics, slot)) = counter {
        metrics.accesses.add(slot, segment.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use cps_cachesim::PartitionedCache;
    use cps_core::CacheConfig;
    use cps_hotl::online::OnlineProfiler;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Lanes against the per-record loop, over several segments
        /// (some longer than one lane chunk) with a repartition between
        /// them: same profiles, counts and caches.
        #[test]
        fn lanes_equal_the_per_record_loop(
            segments in prop::collection::vec(
                prop::collection::vec((0usize..3, 0u64..40), 0..2 * LANE_CHUNK),
                1..5,
            ),
        ) {
            let config = EngineConfig::new(3, CacheConfig::new(12, 2), 1_000);
            let mut actuator = HysteresisActuator::new(&config);
            let mut lanes = vec![Vec::new(); 3];
            let mut lane_profs = vec![OnlineProfiler::new(); 3];
            let mut cache = PartitionedCache::new(&actuator.cache().allocation());
            let mut profs = vec![OnlineProfiler::new(); 3];
            for (i, segment) in segments.iter().enumerate() {
                serve_segment(
                    segment,
                    &mut lanes,
                    &mut lane_profs,
                    OnlineProfiler::observe_all,
                    &mut actuator,
                    None,
                );
                for &(t, b) in segment {
                    profs[t].observe(b);
                    cache.access(t, b);
                }
                prop_assert!(lanes.iter().all(|lane| lane.is_empty()));
                prop_assert_eq!(actuator.take_counts(), cache.take_counts());
                let target = [[2usize, 4, 6], [6, 2, 4]][i % 2];
                actuator.apply(&target);
                cache.set_allocation(&target.map(|u| config.cache.to_blocks(u)));
                for t in 0..3 {
                    prop_assert_eq!(
                        actuator.cache().resident_mru_order(t),
                        cache.resident_mru_order(t)
                    );
                    let (a, b) = (lane_profs[t].snapshot_reuse(), profs[t].snapshot_reuse());
                    prop_assert_eq!((a.accesses, a.distinct), (b.accesses, b.distinct));
                    prop_assert_eq!(a.gaps.buckets(), b.gaps.buckets());
                    prop_assert_eq!(a.first_times.buckets(), b.first_times.buckets());
                    prop_assert_eq!(a.last_times_rev.buckets(), b.last_times_rev.buckets());
                }
            }
        }
    }
}
