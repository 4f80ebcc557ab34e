//! Served ≡ journaled: on local nodes with binding caps and the
//! placement step on, each tenant's home node serves exactly the
//! allocation the cluster journal records for it — the epoch right
//! after a re-homing included, when the tenant has just changed nodes.
//! Until the first boundary that applies a solve or moves a tenant
//! (boundary 0 in practice) every node runs its own equal split, so
//! those epochs are out of scope.

use cps_cluster::{ClusterConfig, ClusterNode, Coordinator, NodeFinish};
use cps_core::CacheConfig;
use cps_engine::EngineConfig;
use proptest::prelude::*;

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
        let node = || ClusterNode::local(EngineConfig::new(4, CacheConfig::new(cap, 1), epoch));
        let config = ClusterConfig::new(units, 1, epoch).migrate(threshold).hysteresis(hysteresis);
        let mut cluster =
            Coordinator::new(config, vec![node(), node()], placement.clone()).expect("topology");
        cluster.run(stream);
        let report = cluster.finish();
        let served = |n: usize, e: usize, t: usize| match &report.node_finishes[n] {
            Some(NodeFinish::Local(j)) => j.epochs[e].allocation[t],
            other => panic!("local node expected, got {other:?}"),
        };
        let (mut home, mut changed) = (placement, false);
        for (e, event) in report.journal.epochs.iter().enumerate() {
            for (t, &n) in home.iter().enumerate().filter(|_| changed) {
                prop_assert_eq!(served(n, e, t), event.allocation[t], "epoch {} tenant {}", e, t);
            }
            changed |= event.repartitioned;
            for m in report.journal.migrations.iter().filter(|m| m.epoch == e) {
                home[m.tenant] = m.to;
                changed = true;
            }
        }
    }
}
