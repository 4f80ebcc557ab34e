//! Property tests for the engine's determinism guarantee: on any
//! seeded multi-tenant stream, [`Engine`] with 1 shard (served inline)
//! and 2, 3 and 8 shards (buffered, tenants spread over workers) books
//! the same journal — every epoch field but the wall clock, realized
//! misses included, and the summary.
//!
//! The streams here are adversarially shaped by the strategy: random
//! tenant mixes, epoch lengths that do and don't divide the stream
//! (exercising the partial final epoch), and random hysteresis.

use cps_core::CacheConfig;
use cps_engine::{Engine, EngineConfig, MemorySink, Policy};
use proptest::prelude::*;

/// The canonical lines after the run header (which names the engine
/// and its shard count) of `accesses` run through the engine `cfg`
/// builds.
fn body(cfg: EngineConfig, accesses: &[(usize, u64)]) -> Vec<String> {
    let sink = MemorySink::default();
    let mut e = Engine::new(cfg);
    e.set_journal(sink.clone());
    e.run(accesses.iter().copied());
    e.finish().expect("a memory sink never fails");
    let canonical = sink.journal().expect("the journal validates").canonical();
    canonical.lines().skip(1).map(String::from).collect()
}

/// A randomized two/three-tenant interleaved stream: per-access tenant
/// pick and a small per-tenant address region so reuse actually occurs.
fn stream_strategy() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0usize..3, 0u64..60), 50..2_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn journals_are_invariant_in_shard_count(
        accesses in stream_strategy(),
        units in 6usize..48,
        epoch in 40usize..400,
        hysteresis in 1usize..6,
    ) {
        let cfg = EngineConfig::new(3, CacheConfig::new(units, 1), epoch)
            .hysteresis(hysteresis);
        let run = |shards| body(cfg.clone().shards(shards), &accesses);
        let baseline = run(1);
        for shards in [2usize, 3, 8] {
            prop_assert_eq!(&run(shards), &baseline, "{} shards", shards);
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
            prop_assert_eq!(
                body(cfg.clone(), &accesses),
                body(cfg.shards(4), &accesses),
                "{:?}", policy
            );
        }
    }
}
