//! The cluster identity property: a coordinator driving one
//! single-tenant node per tenant (each node as big as the logical
//! cache) walks **exactly** the flat engine's trajectory — epoch by
//! epoch, the same allocation, the same per-tenant realized counts,
//! the same predicted cost to the f64 bit, the same hysteresis verdict
//! and units moved — on adversarially shaped streams.
//!
//! This is the cluster analogue of the engine's shard-count
//! invariance: it pins every layer of the decomposition at once (stream
//! routing, externally clocked node epochs, export/merge, global
//! shares, the two-level DP, the logical hysteresis decision, and the
//! partial-epoch finish).

use cps_cluster::{ClusterConfig, ClusterNode, ClusterReport, Coordinator};
use cps_core::CacheConfig;
use cps_engine::{Engine, EngineConfig, Journal, MemorySink};
use cps_trace::{interleave_proportional, Trace, WorkloadSpec};
use proptest::prelude::*;

fn stream_strategy() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0usize..3, 0u64..60), 50..1_200)
}

/// Builds the T-singleton-node coordinator twin of a flat config.
fn singleton_cluster(units: usize, epoch: usize, hysteresis: usize, tenants: usize) -> Coordinator {
    let nodes: Vec<ClusterNode> = (0..tenants)
        .map(|_| {
            ClusterNode::local(EngineConfig::new(
                tenants,
                CacheConfig::new(units, 1),
                epoch,
            ))
        })
        .collect();
    let placement: Vec<usize> = (0..tenants).collect();
    let config = ClusterConfig::new(units, 1, epoch).hysteresis(hysteresis);
    Coordinator::new(config, nodes, placement).expect("valid topology")
}

/// `accesses` through a fresh flat engine, read back from the journal
/// it streamed.
fn flat_journal(config: EngineConfig, accesses: &[(usize, u64)]) -> Journal {
    let sink = MemorySink::default();
    let mut flat = Engine::new(config);
    flat.set_journal(sink.clone());
    flat.run(accesses.iter().copied());
    flat.finish().expect("a memory sink never fails");
    sink.journal().expect("the flat journal validates")
}

/// `accesses` through `cluster`, and the journal it streamed (whose
/// digest the report carries).
fn cluster_journal(
    mut cluster: Coordinator,
    accesses: &[(usize, u64)],
) -> (ClusterReport, Journal) {
    let sink = MemorySink::default();
    cluster.set_journal(sink.clone());
    cluster.run(accesses.iter().copied());
    let report = cluster.finish().expect("a memory sink never fails");
    let journal = sink.journal().expect("the cluster journal validates");
    assert_eq!(report.run.digest, journal.digest());
    (report, journal)
}

fn assert_trajectory_identical(flat: &Journal, cluster: &Journal) -> Result<(), TestCaseError> {
    prop_assert_eq!(flat.epochs.len(), cluster.epochs.len(), "epoch count");
    for (fe, ce) in flat.epochs.iter().zip(&cluster.epochs) {
        prop_assert_eq!(fe.epoch, ce.epoch);
        prop_assert_eq!(&fe.allocation, &ce.allocation, "epoch {}", fe.epoch);
        prop_assert_eq!(&fe.accesses, &ce.accesses, "epoch {}", fe.epoch);
        prop_assert_eq!(&fe.misses, &ce.misses, "epoch {}", fe.epoch);
        prop_assert_eq!(
            fe.predicted_cost.map(f64::to_bits),
            ce.predicted_cost.map(f64::to_bits),
            "predicted cost bits, epoch {}",
            fe.epoch
        );
        prop_assert_eq!(fe.repartitioned, ce.repartitioned, "epoch {}", fe.epoch);
        prop_assert_eq!(fe.units_moved, ce.units_moved, "epoch {}", fe.epoch);
    }
    prop_assert_eq!(flat.summary.accesses, cluster.summary.accesses, "totals");
    prop_assert_eq!(flat.summary.misses, cluster.summary.misses, "totals");
    prop_assert_eq!(
        flat.cumulative_miss_ratio().to_bits(),
        cluster.cumulative_miss_ratio().to_bits()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn singleton_node_cluster_walks_the_flat_trajectory(
        accesses in stream_strategy(),
        units in 6usize..40,
        epoch in 40usize..400,
        hysteresis in 1usize..6,
    ) {
        let flat_cfg =
            EngineConfig::new(3, CacheConfig::new(units, 1), epoch).hysteresis(hysteresis);
        let flat = flat_journal(flat_cfg, &accesses);

        let cluster = singleton_cluster(units, epoch, hysteresis, 3);
        let (report, cluster) = cluster_journal(cluster, &accesses);

        assert_trajectory_identical(&flat, &cluster)?;
        prop_assert!(report.failures.is_empty());
        prop_assert_eq!(report.dropped_records, 0);
        prop_assert!(cluster.migrations.is_empty(), "no migration pass configured");
    }
}

/// The structured 4-tenant mix the serve e2e suite uses, at a longer
/// horizon than the proptest cases: a deterministic smoke of the same
/// identity, including the trailing partial epoch.
#[test]
fn standard_mix_identity_with_partial_final_epoch() {
    let specs = [
        WorkloadSpec::SequentialLoop { working_set: 24 },
        WorkloadSpec::Zipfian {
            region: 150,
            alpha: 0.8,
        },
        WorkloadSpec::WorkingSetWalk {
            region: 300,
            window: 30,
            dwell: 500,
        },
        WorkloadSpec::UniformRandom { region: 400 },
    ];
    let rates = [1.0, 2.0, 1.0, 1.5];
    let len = 20_500; // not a multiple of the epoch: partial finish
    let traces: Vec<Trace> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.generate(len, 7 + i as u64 + 1))
        .collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    let stream: Vec<(usize, u64)> = interleave_proportional(&refs, &rates, len)
        .tenant_accesses()
        .collect();

    let flat_cfg = EngineConfig::new(4, CacheConfig::new(32, 4), 2_000).hysteresis(2);
    let flat = flat_journal(flat_cfg, &stream);

    let nodes: Vec<ClusterNode> = (0..4)
        .map(|_| ClusterNode::local(EngineConfig::new(4, CacheConfig::new(32, 4), 2_000)))
        .collect();
    let config = ClusterConfig::new(32, 4, 2_000).hysteresis(2);
    let cluster = Coordinator::new(config, nodes, vec![0, 1, 2, 3]).expect("topology");
    let (_, cluster) = cluster_journal(cluster, &stream);

    assert_eq!(flat.epochs.len(), cluster.epochs.len());
    assert_eq!(flat.epochs.len(), 11, "10 full epochs + partial");
    for (fe, ce) in flat.epochs.iter().zip(&cluster.epochs) {
        assert_eq!(fe.allocation, ce.allocation, "epoch {}", fe.epoch);
        assert_eq!(fe.accesses, ce.accesses, "epoch {}", fe.epoch);
        assert_eq!(fe.misses, ce.misses, "epoch {}", fe.epoch);
        assert_eq!(
            fe.predicted_cost.map(f64::to_bits),
            ce.predicted_cost.map(f64::to_bits),
            "epoch {}",
            fe.epoch
        );
        assert_eq!(fe.repartitioned, ce.repartitioned, "epoch {}", fe.epoch);
        assert_eq!(fe.units_moved, ce.units_moved, "epoch {}", fe.epoch);
    }
    assert_eq!(flat.summary.accesses, cluster.summary.accesses);
    assert_eq!(flat.summary.misses, cluster.summary.misses);

    // The cluster journal validates under the flat schema.
    cluster.validate().expect("validates");
    assert_eq!(cluster.header.engine, "cluster");
    assert_eq!(cluster.header.shards, 4);
}
