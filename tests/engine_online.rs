//! Acceptance test for the online repartitioning engine (ISSUE tentpole).
//!
//! Runs `cps replay-online`'s core loop in-process: four tenants with
//! heterogeneous locality (including a streaming scanner that thrashes a
//! shared LRU) are interleaved into one access stream; the epoch-driven
//! engine must complete at least 20 epochs and end with a cumulative
//! miss ratio no worse than a free-for-all shared cache of the same
//! total capacity.

use cache_partition_sharing::obs::MemorySink;
use cache_partition_sharing::prelude::*;

const UNITS: usize = 128;
const LEN: usize = 120_000;
const EPOCH: usize = 5_000;

fn four_tenant_cotrace() -> cache_partition_sharing::trace::CoTrace {
    let specs = [
        // Small loop: near-zero misses once it owns its working set.
        WorkloadSpec::SequentialLoop { working_set: 24 },
        // Skewed heap: concave-ish MRC, benefits from a mid-size share.
        WorkloadSpec::Zipfian {
            region: 150,
            alpha: 0.8,
        },
        // Phase-changing working set: the reason re-solving online helps.
        WorkloadSpec::WorkingSetWalk {
            region: 300,
            window: 30,
            dwell: 500,
        },
        // Streaming scanner: thrashes any shared LRU it touches.
        WorkloadSpec::SequentialLoop { working_set: 2_000 },
    ];
    let traces: Vec<Trace> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.generate(LEN, 1 + i as u64))
        .collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    interleave_proportional(&refs, &[1.0, 1.0, 1.0, 1.0], LEN)
}

/// The co-run through a fresh engine `config` builds, read back from
/// the journal it streamed.
fn journal_of(config: EngineConfig, co: &cache_partition_sharing::trace::CoTrace) -> Journal {
    let sink = MemorySink::default();
    let mut engine = Engine::new(config);
    engine.set_journal(sink.clone());
    engine.run(co.tenant_accesses());
    engine.finish().expect("a memory sink never fails");
    sink.journal().expect("the journal validates")
}

#[test]
fn online_optimal_beats_free_for_all_over_twenty_epochs() {
    let co = four_tenant_cotrace();
    let config = CacheConfig::new(UNITS, 1);

    let report = journal_of(
        EngineConfig::new(4, config, EPOCH).policy(Policy::Optimal),
        &co,
    );

    // The ISSUE acceptance floor: at least 20 completed epochs.
    assert!(
        report.epochs.len() >= 20,
        "only {} epochs completed",
        report.epochs.len()
    );

    // Free-for-all: every tenant contends in one shared LRU of the same
    // total capacity.
    let mut shared = LruCache::new(config.blocks());
    let mut misses = 0u64;
    for (_, block) in co.tenant_accesses() {
        if !shared.access(block) {
            misses += 1;
        }
    }
    let shared_mr = misses as f64 / co.len() as f64;

    let online_mr = report.cumulative_miss_ratio();
    assert!(
        online_mr <= shared_mr,
        "online {online_mr:.4} worse than free-for-all {shared_mr:.4}"
    );
}

#[test]
fn engine_report_is_internally_consistent() {
    let co = four_tenant_cotrace();
    let config = CacheConfig::new(UNITS, 1);

    let report = journal_of(EngineConfig::new(4, config, EPOCH), &co);

    // Every epoch's allocation is a full partition of the cache.
    for e in &report.epochs {
        assert_eq!(e.allocation.iter().sum::<usize>(), UNITS);
        assert_eq!(e.allocation.len(), 4);
    }

    // Epoch events account for the whole stream.
    let recorded: u64 = report.epochs.iter().flat_map(|e| &e.accesses).sum();
    assert_eq!(recorded, co.len() as u64);
    assert_eq!(report.summary.accesses, co.len() as u64);

    // With four heterogeneous tenants the solver should move off the
    // equal split at least once, and every boundary solve is timed.
    assert!(
        report.summary.repartitions >= 1,
        "engine never repartitioned"
    );
    assert!(report.summary.timings.solve_nanos > 0);

    // Per-tenant counts aggregate to the whole stream.
    let total_acc: u64 = (0..4)
        .map(|t| report.epochs.iter().map(|e| e.accesses[t]).sum::<u64>())
        .sum();
    assert_eq!(total_acc, co.len() as u64);
}

#[test]
fn baseline_policies_also_complete_and_stay_competitive() {
    let co = four_tenant_cotrace();
    let config = CacheConfig::new(UNITS, 1);

    for policy in [Policy::EqualBaseline, Policy::NaturalBaseline] {
        let report = journal_of(EngineConfig::new(4, config, EPOCH).policy(policy), &co);
        assert!(report.epochs.len() >= 20, "{policy:?} stalled");
        // Baseline caps restrict the solution set but never break the
        // run; cumulative miss ratio stays a valid probability.
        let mr = report.cumulative_miss_ratio();
        assert!((0.0..=1.0).contains(&mr), "{policy:?} miss ratio {mr}");
    }
}
