//! Served ≡ journaled: on local nodes with binding caps and the
//! placement step on, each tenant's home node serves exactly the
//! allocation the cluster journal records for it — the epoch right
//! after a re-homing included, when the tenant has just changed nodes.
//! Until the first boundary that applies a solve or moves a tenant
//! (boundary 0 in practice) every node runs its own equal split, so
//! those epochs are out of scope.

use cps_cluster::{ClusterConfig, ClusterNode, Coordinator};
use cps_core::CacheConfig;
use cps_engine::{EngineConfig, MemorySink};
use cps_obs::{parse_journal_line, JournalLine};
use proptest::prelude::*;

/// The allocation of every epoch a node journaled, in order. Budgeted
/// node allocations need not partition the node, so the lines are read
/// one by one rather than as a validated journal.
fn served_allocations(journal: &MemorySink) -> Vec<Vec<usize>> {
    journal
        .text()
        .lines()
        .filter_map(
            |line| match parse_journal_line(line).expect("node line parses") {
                JournalLine::Epoch(e) => Some(e.allocation),
                _ => None,
            },
        )
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn home_nodes_serve_the_journaled_allocation(
        raw in prop::collection::vec((0usize..4, 0u64..64), 400..2_000),
        placement in prop::collection::vec(0usize..2, 4),
        units in 8usize..32,
        epoch in 60usize..300,
        threshold in 0.0f64..0.05,
        hysteresis in 1usize..64,
    ) {
        // Tenant t cycles over 4 + 10·t blocks; neither node can hold
        // the whole cache, both together can.
        let stream = raw.iter().map(|&(t, b)| (t, b % (4 + 10 * t as u64)));
        let cap = (units * 3).div_ceil(4);
        let journals = [MemorySink::default(), MemorySink::default()];
        let node = |journal: &MemorySink| {
            let config = EngineConfig::new(4, CacheConfig::new(cap, 1), epoch);
            ClusterNode::local_journaled(config, journal.clone())
        };
        let config = ClusterConfig::new(units, 1, epoch).migrate(threshold).hysteresis(hysteresis);
        let nodes = journals.iter().map(node).collect();
        let mut cluster = Coordinator::new(config, nodes, placement.clone()).expect("topology");
        let sink = MemorySink::default();
        cluster.set_journal(sink.clone());
        cluster.run(stream);
        let report = cluster.finish().expect("a memory sink never fails");
        let journal = sink.journal().expect("the cluster journal validates");
        let allocations = journals.each_ref().map(served_allocations);
        for (n, finish) in report.node_finishes.iter().enumerate() {
            let finish = finish.as_ref().expect("local nodes finish");
            prop_assert_eq!(finish.summary.epochs, allocations[n].len(), "node {}", n);
            prop_assert_eq!(finish.summary.epochs, journal.epochs.len(), "node {}", n);
        }
        let served = |n: usize, e: usize, t: usize| allocations[n][e][t];
        let (mut home, mut changed) = (placement, false);
        for (e, event) in journal.epochs.iter().enumerate() {
            for (t, &n) in home.iter().enumerate().filter(|_| changed) {
                prop_assert_eq!(served(n, e, t), event.allocation[t], "epoch {} tenant {}", e, t);
            }
            changed |= event.repartitioned;
            for m in journal.migrations.iter().filter(|m| m.epoch == e) {
                home[m.tenant] = m.to;
                changed = true;
            }
        }
    }
}
