//! The cluster over real sockets: a coordinator driving live
//! `cps serve` daemons through the wire protocol's external-clocking
//! verbs — and surviving one of them dying mid-run.
//!
//! The failure injection is the protocol's own shutdown semantics: an
//! out-of-band client sending `Shutdown` to a daemon closes every
//! other session's socket, so the coordinator's next exchange with
//! that node fails with a typed error. Its loopback twin breaks an
//! in-process node's transport at a chosen byte instead, with no
//! socket and no thread. The required behaviour: no panic, no hang,
//! the node is marked failed, records routed to it are counted as
//! dropped, and the surviving nodes keep solving epochs.

use cps_cluster::{ClusterConfig, ClusterNode, ClusterReport, Coordinator};
use cps_core::CacheConfig;
use cps_engine::EngineConfig;
use cps_obs::{Journal, MemorySink, MetricsRegistry};
use cps_serve::{Client, Loopback, ServeConfig, ServeOutcome, Server};
use proptest::prelude::*;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The engine a node hosts for external epoch clocking: the single
/// engine with an epoch length its stream can never reach (the
/// coordinator is the clock).
fn node_engine(units: usize, tenants: usize) -> EngineConfig {
    EngineConfig::new(tenants, CacheConfig::new(units, 1), usize::MAX)
}

/// Starts an in-process daemon hosting [`node_engine`].
fn start_node(units: usize, tenants: usize) -> (String, JoinHandle<Result<ServeOutcome, String>>) {
    let config = ServeConfig {
        engine: node_engine(units, tenants),
        max_conns: 8,
        idle_timeout: Duration::from_secs(10),
        window_cap: 1 << 16,
        resume_grace: Duration::from_secs(5),
        telemetry_addr: None,
    };
    let server = Server::bind("127.0.0.1:0", config, Arc::new(MetricsRegistry::new()))
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    (addr, std::thread::spawn(move || server.run()))
}

/// Finishes `cluster`, whose journal streamed into `sink`, and reads
/// the journal back; it must parse and validate under the flat schema.
fn finish(cluster: Coordinator, sink: &MemorySink) -> (ClusterReport, Journal) {
    let report = cluster.finish().expect("a memory sink never fails");
    let journal = sink.journal().expect("parses and validates");
    assert_eq!(report.run.digest, journal.digest());
    (report, journal)
}

/// Two tenants with distinct locality: a tight loop and a wide scan.
fn two_tenant_stream(len: u64) -> Vec<(usize, u64)> {
    (0..len)
        .map(|i| ((i % 2) as usize, if i % 2 == 0 { i % 6 } else { i % 48 }))
        .collect()
}

#[test]
fn remote_cluster_runs_end_to_end() {
    let (addr0, server0) = start_node(16, 2);
    let (addr1, server1) = start_node(16, 2);

    let nodes = vec![
        ClusterNode::connect(&addr0).expect("connect node 0"),
        ClusterNode::connect(&addr1).expect("connect node 1"),
    ];
    assert_eq!(nodes[0].capacity(), 16);
    assert_eq!(nodes[0].tenants(), 2);
    assert_eq!(nodes[0].addr(), Some(addr0.as_str()));

    let config = ClusterConfig::new(16, 1, 500);
    let mut cluster = Coordinator::new(config, nodes, vec![0, 1]).expect("topology");
    let sink = MemorySink::default();
    cluster.set_journal(sink.clone());
    cluster.run(two_tenant_stream(3_000));
    let (report, journal) = finish(cluster, &sink);

    assert_eq!(journal.epochs.len(), 6);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.dropped_records, 0);
    for epoch in &journal.epochs {
        assert_eq!(epoch.allocation.iter().sum::<usize>(), 16);
    }
    assert!(
        journal.epochs.last().unwrap().predicted_cost.is_some(),
        "solves must run once curves exist"
    );
    // Remote finishes carry each daemon's summary: one epoch per
    // boundary, and every record the coordinator routed to it.
    let routed: u64 = report
        .node_finishes
        .iter()
        .map(|finish| {
            let summary = &finish.as_ref().expect("both daemons finish").summary;
            assert_eq!(summary.epochs, 6, "daemon epochs");
            summary.accesses
        })
        .sum();
    assert_eq!(routed, 3_000, "every record reached one daemon");
    assert_eq!(journal.header.engine, "cluster");

    server0.join().unwrap().expect("daemon 0 clean exit");
    server1.join().unwrap().expect("daemon 1 clean exit");
}

#[test]
fn node_death_mid_run_is_survivable() {
    let (addr0, server0) = start_node(16, 2);
    let (addr1, _server1) = start_node(16, 2);

    let nodes = vec![
        ClusterNode::connect(&addr0).expect("connect node 0"),
        ClusterNode::connect(&addr1).expect("connect node 1"),
    ];
    let config = ClusterConfig::new(16, 1, 500);
    let mut cluster = Coordinator::new(config, nodes, vec![0, 1]).expect("topology");
    let sink = MemorySink::default();
    cluster.set_journal(sink.clone());

    let stream = two_tenant_stream(4_000);
    // Two clean epochs first, so both tenants have cached curves.
    cluster.run(stream[..1_000].iter().copied());
    assert_eq!(cluster.epochs_completed(), 2);
    assert_eq!(cluster.nodes_alive(), 2);

    // Kill node 1 out-of-band: the daemon's shutdown closes the
    // coordinator's session socket mid-epoch.
    let killer = Client::connect(&addr1, None).expect("second session");
    let _ = killer.shutdown().expect("daemon shuts down");

    // The rest of the stream must flow without panic or hang.
    cluster.run(stream[1_000..].iter().copied());
    assert_eq!(cluster.nodes_alive(), 1);
    // The journal still parses and validates under the flat schema.
    let (report, journal) = finish(cluster, &sink);

    // The failure is typed and attributed to node 1.
    assert!(!report.failures.is_empty());
    assert!(
        report.failures.iter().all(|f| f.node == 1),
        "{:?}",
        report.failures
    );
    // Tenant 1's records after the kill were dropped, not lost silently.
    assert!(report.dropped_records > 0);
    // The coordinator re-solved over the survivor: post-failure epochs
    // still carry predictions (tenant 0 alone on a 16-unit node).
    assert_eq!(journal.epochs.len(), 8);
    assert!(
        journal.epochs.last().unwrap().predicted_cost.is_some(),
        "survivor epochs must keep solving"
    );
    // Node 1 has no finish artifact; node 0 shut down cleanly.
    assert!(report.node_finishes[1].is_none());
    assert!(report.node_finishes[0].is_some());

    server0.join().unwrap().expect("daemon 0 clean exit");
}

/// A loopback node's transport that breaks for good once it has carried
/// `budget` more bytes, either way: a daemon dying mid-exchange at a
/// chosen byte. The budget starts unlimited; the test arms it.
struct Breaking {
    inner: Loopback,
    budget: Arc<AtomicUsize>,
}

impl Breaking {
    /// How many of `want` bytes may still cross; none is a dead node.
    fn allowance(&self, want: usize) -> io::Result<usize> {
        match self.budget.load(Ordering::Relaxed) {
            0 => Err(io::ErrorKind::BrokenPipe.into()),
            left => Ok(want.min(left)),
        }
    }

    fn spend(&self, n: usize) -> usize {
        self.budget.fetch_sub(n, Ordering::Relaxed);
        n
    }
}

impl Write for Breaking {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let n = self.allowance(bytes.len())?;
        self.inner.write(&bytes[..n]).map(|n| self.spend(n))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Read for Breaking {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.allowance(buf.len())?;
        self.inner.read(&mut buf[..n]).map(|n| self.spend(n))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// [`node_death_mid_run_is_survivable`] on loopback nodes: node 1's
    /// transport breaks `offset` bytes after the first two epochs, in
    /// whichever push, export or apply that lands.
    #[test]
    fn loopback_node_death_mid_run_is_survivable(offset in 0usize..2_000) {
        let budget = Arc::new(AtomicUsize::new(usize::MAX));
        let breaking = Breaking {
            inner: Loopback::new(node_engine(16, 2)),
            budget: Arc::clone(&budget),
        };
        let nodes = vec![
            ClusterNode::local(node_engine(16, 2)),
            ClusterNode::over(breaking, None).expect("loopback node 1"),
        ];
        let config = ClusterConfig::new(16, 1, 500);
        let mut cluster = Coordinator::new(config, nodes, vec![0, 1]).expect("topology");
        let sink = MemorySink::default();
        cluster.set_journal(sink.clone());

        let stream = two_tenant_stream(4_000);
        cluster.run(stream[..1_000].iter().copied());
        prop_assert_eq!(cluster.epochs_completed(), 2);
        prop_assert_eq!(cluster.nodes_alive(), 2);

        budget.store(offset, Ordering::Relaxed);
        cluster.run(stream[1_000..].iter().copied());
        prop_assert_eq!(cluster.nodes_alive(), 1);
        let (report, journal) = finish(cluster, &sink);

        prop_assert!(!report.failures.is_empty());
        prop_assert!(report.failures.iter().all(|f| f.node == 1), "{:?}", report.failures);
        prop_assert!(report.dropped_records > 0);
        prop_assert_eq!(journal.epochs.len(), 8);
        prop_assert!(
            journal.epochs.last().unwrap().predicted_cost.is_some(),
            "survivor epochs must keep solving"
        );
        prop_assert!(report.node_finishes[1].is_none());
        prop_assert!(report.node_finishes[0].is_some());
    }
}
