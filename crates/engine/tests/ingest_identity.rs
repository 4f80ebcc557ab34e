//! Property tests for the engine's one serving routine: however a
//! stream is handed over — as one slice, in batches of 1, 7 or 777,
//! through `run(iter)`, or one `record_access` at a time — the journal
//! is the same, at every shard count and under every policy.
//!
//! Fed one record at a time a tenant lane never holds more than one
//! record, so that run performs exactly the per-record operation order
//! (observe, then access, record by record) and is the reference the
//! batched feeds are held to. Every engine here also draws its own
//! hash seeds, so equal journals are seed-independence too.

use cps_core::CacheConfig;
use cps_engine::{Engine, EngineConfig, MemorySink, Policy};
use proptest::prelude::*;

type Access = (usize, u64);

/// One way of handing a stream to an engine.
type Feed = fn(&mut Engine, &[Access]);

/// One epoch's stable fields: allocation, per-tenant accesses and
/// misses, cost bits, hysteresis verdict, units moved.
type StableEpoch = (Vec<usize>, Vec<u64>, Vec<u64>, Option<u64>, bool, usize);

/// Everything in a journal but its wall clock; costs by bit pattern.
type Stable = (Vec<StableEpoch>, (u64, u64));

/// Finishes an engine [`recorded`] journals and reads back its stable
/// fields.
fn stable((engine, sink): (Engine, MemorySink)) -> Stable {
    engine.finish().expect("a memory sink never fails");
    let journal = sink.journal().expect("the journal validates");
    let epochs = journal
        .epochs
        .into_iter()
        .map(|e| {
            (
                e.allocation,
                e.accesses,
                e.misses,
                e.predicted_cost.map(f64::to_bits),
                e.repartitioned,
                e.units_moved,
            )
        })
        .collect();
    (epochs, (journal.summary.accesses, journal.summary.misses))
}

/// A fresh engine journaling into memory, and the sink to read.
fn recorded(cfg: EngineConfig) -> (Engine, MemorySink) {
    let sink = MemorySink::default();
    let mut engine = Engine::new(cfg);
    engine.set_journal(sink.clone());
    (engine, sink)
}

fn batched(engine: &mut Engine, accesses: &[Access], size: usize) {
    for batch in accesses.chunks(size) {
        engine.push_batch(batch).expect("tenants in range");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_feed_gives_the_per_record_report(
        accesses in prop::collection::vec((0usize..3, 0u64..60), 50..3_000),
        units in 6usize..40,
        epoch in 40usize..500,
        hysteresis in 1usize..4,
    ) {
        prop_assume!(accesses.len() % epoch != 0); // end mid-epoch
        let feeds: [(&str, Feed); 5] = [
            ("one slice", |e, a| batched(e, a, usize::MAX)),
            ("batches of 1", |e, a| batched(e, a, 1)),
            ("batches of 7", |e, a| batched(e, a, 7)),
            ("batches of 777", |e, a| batched(e, a, 777)),
            ("run(iter)", |e, a| e.run(a.iter().copied())),
        ];
        for policy in [Policy::Optimal, Policy::EqualBaseline, Policy::NaturalBaseline] {
            let cfg = EngineConfig::new(3, CacheConfig::new(units, 1), epoch)
                .policy(policy)
                .hysteresis(hysteresis);
            for shards in [1usize, 2, 3] {
                let mut reference = recorded(cfg.clone().shards(shards));
                for &(tenant, block) in &accesses {
                    reference.0.record_access(tenant, block);
                }
                let reference = stable(reference);
                prop_assert_eq!(reference.0.len(), accesses.len() / epoch + 1);
                for (name, feed) in feeds {
                    let mut engine = recorded(cfg.clone().shards(shards));
                    feed(&mut engine.0, &accesses);
                    prop_assert_eq!(
                        &stable(engine), &reference,
                        "{} at {} shards under {:?}", name, shards, policy
                    );
                }
            }
        }
    }
}
