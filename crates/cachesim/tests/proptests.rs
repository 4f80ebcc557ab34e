//! Property-based tests for the cache simulators.

use cps_cachesim::{
    exact_miss_ratio_curve, simulate_partition_sharing, simulate_shared, simulate_solo, LruCache,
    PartitionSharingScheme, SetAssocCache,
};
use cps_trace::{interleave_proportional, Trace};
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..40, 1..500)
}

proptest! {
    #[test]
    fn lru_inclusion_property(trace in trace_strategy(), cap in 1usize..50) {
        // A bigger LRU cache never misses more (stack property).
        let small = simulate_solo(&trace, cap).misses;
        let big = simulate_solo(&trace, cap + 1).misses;
        prop_assert!(big <= small);
    }

    #[test]
    fn olken_curve_matches_simulation(trace in trace_strategy(), cap in 0usize..50) {
        let curve = exact_miss_ratio_curve(&trace, 50);
        let sim = simulate_solo(&trace, cap);
        prop_assert!((curve[cap] - sim.miss_ratio()).abs() < 1e-12);
    }

    #[test]
    fn cache_never_exceeds_capacity(trace in trace_strategy(), cap in 0usize..30) {
        let mut cache = LruCache::new(cap);
        for &b in &trace {
            cache.access(b);
            prop_assert!(cache.len() <= cap);
        }
    }

    #[test]
    fn single_set_equals_fully_associative(trace in trace_strategy(), ways in 1usize..30) {
        let mut sa = SetAssocCache::new(1, ways);
        let sa_counts = sa.simulate(&Trace::new(trace.clone()));
        let fa_counts = simulate_solo(&trace, ways);
        prop_assert_eq!(sa_counts, fa_counts);
    }

    #[test]
    fn shared_counts_partition_by_program(
        ta in trace_strategy(),
        tb in trace_strategy(),
        cap in 1usize..60,
    ) {
        let a = Trace::new(ta);
        let b = Trace::new(tb);
        let co = interleave_proportional(&[&a, &b], &[1.0, 1.0], a.len() + b.len());
        let res = simulate_shared(&co, cap, 2);
        prop_assert_eq!(res.per_program[0].accesses, a.len() as u64);
        prop_assert_eq!(res.per_program[1].accesses, b.len() as u64);
        let total: u64 = res.per_program.iter().map(|c| c.misses).sum();
        prop_assert_eq!(total, res.total.misses);
    }

    #[test]
    fn partition_sharing_free_for_all_edge(
        ta in trace_strategy(),
        tb in trace_strategy(),
        cap in 1usize..60,
    ) {
        // One group with the whole cache == the plain shared simulator.
        let a = Trace::new(ta);
        let b = Trace::new(tb);
        let co = interleave_proportional(&[&a, &b], &[1.0, 1.0], a.len() + b.len());
        let scheme = PartitionSharingScheme::free_for_all(2, cap);
        let ps = simulate_partition_sharing(&co, &scheme, 2, 0);
        let sh = simulate_shared(&co, cap, 2);
        prop_assert_eq!(ps.total, sh.total);
        prop_assert_eq!(ps.per_program, sh.per_program);
    }

    #[test]
    fn partition_sharing_partitioning_edge(
        ta in trace_strategy(),
        tb in trace_strategy(),
        ca in 1usize..30,
        cb in 1usize..30,
    ) {
        // Singleton groups == independent solo simulations.
        let a = Trace::new(ta);
        let b = Trace::new(tb);
        let co = interleave_proportional(&[&a, &b], &[1.0, 1.0], a.len() + b.len());
        let scheme = PartitionSharingScheme::partitioning(vec![ca, cb]);
        let ps = simulate_partition_sharing(&co, &scheme, 2, 0);
        prop_assert_eq!(ps.per_program[0].misses, simulate_solo(&a.blocks, ca).misses);
        prop_assert_eq!(ps.per_program[1].misses, simulate_solo(&b.blocks, cb).misses);
    }

    #[test]
    fn sharing_a_partition_is_no_better_than_private_sum(
        ta in prop::collection::vec(0u64..20, 50..300),
        tb in prop::collection::vec(0u64..20, 50..300),
        cap in 2usize..40,
    ) {
        // For LRU, giving two programs one shared partition of size C
        // can beat or lose to private halves — but it can never beat
        // giving EACH program the full C (monotonicity sanity bound).
        let a = Trace::new(ta);
        let b = Trace::new(tb);
        let co = interleave_proportional(&[&a, &b], &[1.0, 1.0], a.len() + b.len());
        let shared = simulate_shared(&co, cap, 2);
        let solo_a = simulate_solo(&a.blocks, cap);
        let solo_b = simulate_solo(&b.blocks, cap);
        prop_assert!(shared.total.misses >= solo_a.misses + solo_b.misses,
            "sharing cannot beat private full-size caches");
    }
}
