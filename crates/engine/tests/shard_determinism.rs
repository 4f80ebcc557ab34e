//! Property tests for the engine's determinism guarantee: on any
//! seeded multi-tenant stream, [`Engine`] with 1 shard (served inline),
//! 2, and 8 shards (buffered and fanned out) produces byte-identical
//! per-epoch allocation decisions.
//!
//! The streams here are adversarially shaped by the strategy: random
//! tenant mixes, epoch lengths that do and don't divide the stream
//! (exercising the partial final epoch), and random hysteresis.

use cps_core::CacheConfig;
use cps_engine::{Engine, EngineConfig, Policy};
use proptest::prelude::*;

/// A randomized two/three-tenant interleaved stream: per-access tenant
/// pick and a small per-tenant address region so reuse actually occurs.
fn stream_strategy() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0usize..3, 0u64..60), 50..2_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allocations_are_invariant_in_shard_count(
        accesses in stream_strategy(),
        units in 6usize..48,
        epoch in 40usize..400,
        hysteresis in 1usize..6,
    ) {
        let cfg = EngineConfig::new(3, CacheConfig::new(units, 1), epoch)
            .hysteresis(hysteresis);
        let mut reports = Vec::new();
        for shards in [1usize, 2, 8] {
            let mut e = Engine::new(cfg.clone().shards(shards));
            e.run(accesses.iter().copied());
            reports.push((shards, e.finish()));
        }
        let (_, baseline) = &reports[0];
        for (shards, r) in &reports[1..] {
            prop_assert_eq!(r.epochs.len(), baseline.epochs.len());
            for (ea, eb) in baseline.epochs.iter().zip(&r.epochs) {
                prop_assert_eq!(
                    &ea.allocation, &eb.allocation,
                    "epoch {} with {} shards", ea.epoch, shards
                );
                prop_assert_eq!(
                    ea.predicted_cost, eb.predicted_cost,
                    "epoch {} with {} shards", ea.epoch, shards
                );
                prop_assert_eq!(ea.repartitioned, eb.repartitioned);
                prop_assert_eq!(ea.units_moved, eb.units_moved);
            }
        }
    }

    #[test]
    fn baseline_policies_are_also_shard_invariant(
        accesses in stream_strategy(),
        units in 6usize..48,
        epoch in 40usize..400,
    ) {
        for policy in [Policy::EqualBaseline, Policy::NaturalBaseline] {
            let cfg = EngineConfig::new(3, CacheConfig::new(units, 1), epoch).policy(policy);
            let mut a = Engine::new(cfg.clone());
            a.run(accesses.iter().copied());
            let mut b = Engine::new(cfg.clone().shards(4));
            b.run(accesses.iter().copied());
            let (ra, rb) = (a.finish(), b.finish());
            for (ea, eb) in ra.epochs.iter().zip(&rb.epochs) {
                prop_assert_eq!(
                    &ea.allocation, &eb.allocation,
                    "{:?} epoch {}", policy, ea.epoch
                );
            }
        }
    }
}
