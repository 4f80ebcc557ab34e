//! One text for every producer's journal: what flat engines at one and
//! two shards and a migrating local cluster stream parse back to
//! journals that render the same text and end on the digest the
//! producer reported, and the canonical form keeps the migration lines
//! — where a tenant went is part of what a run decided, not wall clock.

use cps_cluster::{ClusterConfig, ClusterNode, Coordinator};
use cps_core::CacheConfig;
use cps_engine::{Engine, EngineConfig, Journal, MemorySink};
use proptest::prelude::*;

fn node(capacity: usize, epoch: usize, tenants: usize) -> ClusterNode {
    ClusterNode::local(EngineConfig::new(
        tenants,
        CacheConfig::new(capacity, 1),
        epoch,
    ))
}

/// The journal's migration lines with their line numbers.
fn migration_lines(text: &str) -> Vec<(usize, &str)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| line.contains("\"kind\":\"migration\""))
        .collect()
}

/// `accesses` through `cluster`: the journal text it streamed, checked
/// against the digest and migrations its report carries.
fn cluster_text(mut cluster: Coordinator, accesses: impl Iterator<Item = (usize, u64)>) -> String {
    let sink = MemorySink::default();
    cluster.set_journal(sink.clone());
    cluster.run(accesses);
    let report = cluster.finish().expect("a memory sink never fails");
    let journal = sink.journal().expect("the cluster journal validates");
    assert_eq!(report.run.digest, journal.digest());
    assert_eq!(report.migrations, journal.migrations);
    sink.text()
}

/// Both tenants start on a node too small for the 24-unit cache, so
/// the first boundary must re-home one of them to a roomy node.
fn migrating_run() -> Journal {
    let config = ClusterConfig::new(24, 1, 500).migrate(0.01);
    let nodes = vec![node(8, 500, 2), node(24, 500, 2), node(24, 500, 2)];
    let cluster = Coordinator::new(config, nodes, vec![0, 0]).expect("topology");
    let block = |i: u64| if i.is_multiple_of(2) { i % 20 } else { i % 5 };
    let text = cluster_text(cluster, (0..4_000u64).map(|i| ((i % 2) as usize, block(i))));
    Journal::parse(&text).expect("parses")
}

#[test]
fn a_migrating_run_canonicalizes_with_its_migration_lines() {
    let journal = migrating_run();
    assert!(
        !journal.migrations.is_empty(),
        "the rescue must move a tenant"
    );
    let raw = journal.render();
    let canonical = journal.canonical();
    assert_eq!(migration_lines(&raw).len(), journal.migrations.len());
    assert_eq!(
        migration_lines(&canonical),
        migration_lines(&raw),
        "every migration line, at its raw position"
    );

    // The same journal with the first move sent to the other roomy
    // node: still valid, and a different run.
    let m = journal.migrations[0];
    let other = 3 - m.to; // nodes 1 and 2 are the roomy ones
    let elsewhere = raw.replacen(&format!("\"to\":{}", m.to), &format!("\"to\":{other}"), 1);
    let elsewhere = Journal::parse(&elsewhere).expect("still a valid journal");
    assert_eq!(elsewhere.migrations[0].to, other);
    assert_ne!(elsewhere.canonical(), canonical);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_producer_journal_round_trips_through_its_text(
        accesses in prop::collection::vec((0usize..3, 0u64..60), 50..1_500),
        units in 6usize..40,
        epoch in 40usize..400,
        threshold in 0.0f64..0.05,
    ) {
        let mut texts = Vec::new();
        for shards in [1usize, 2] {
            let cfg = EngineConfig::new(3, CacheConfig::new(units, 1), epoch).shards(shards);
            let sink = MemorySink::default();
            let mut engine = Engine::new(cfg);
            engine.set_journal(sink.clone());
            engine.run(accesses.iter().copied());
            let end = engine.finish().expect("a memory sink never fails");
            let parsed = sink.journal();
            prop_assert!(parsed.is_ok(), "{} shards: {:?}", shards, parsed);
            prop_assert_eq!(end.digest, parsed.unwrap().digest());
            texts.push(sink.text());
        }
        // Two nodes of three quarters of the cache each, migration on.
        let cap = (units * 3).div_ceil(4);
        let config = ClusterConfig::new(units, 1, epoch).migrate(threshold);
        let nodes = vec![node(cap, epoch, 3), node(cap, epoch, 3)];
        let cluster = Coordinator::new(config, nodes, vec![0, 0, 1]).expect("topology");
        texts.push(cluster_text(cluster, accesses.iter().copied()));

        for text in &texts {
            let parsed = Journal::parse(text);
            prop_assert!(parsed.is_ok(), "{:?}", parsed);
            prop_assert_eq!(&parsed.unwrap().render(), text);
        }
    }
}
