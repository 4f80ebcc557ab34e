//! One engine node as the coordinator sees it: a wire-protocol session
//! with a serving core, driven through the protocol's external-clocking
//! verbs.
//!
//! The core is a `cps serve` daemon behind a TCP stream
//! ([`ClusterNode::connect`]) or one in process behind a [`Loopback`]
//! ([`ClusterNode::local`]); either way every record, curve and
//! allocation crosses the wire codec, so local and remote nodes are one
//! code path. Each epoch is the same four beats: records stream in
//! (`push`), the boundary opens with an export of per-tenant cost
//! curves, the coordinator solves, and the boundary closes with an
//! applied budget. A node's engine runs with an epoch length its stream
//! never reaches, so only the coordinator's clock fires.
//!
//! Every failure is a typed [`NodeError`] — a dead daemon mid-epoch
//! surfaces as `Wire`, never as a panic or a hang, which is what lets
//! the coordinator mark the node failed and re-solve over the
//! survivors.

use cps_cachesim::AccessCounts;
use cps_core::Objective;
use cps_engine::{Actuation, Block, EngineConfig, RunDigest, TenantCurve, TenantId};
use cps_hotl::MissRatioCurve;
use cps_serve::{Client, Loopback, ServeError, WireCurve};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Why a node operation failed.
#[derive(Debug)]
pub enum NodeError {
    /// The session with the node's serving core failed, or the core
    /// refused the request (a journal it could not write among them).
    Wire(ServeError),
    /// The node answered with something that is not a valid node
    /// response (e.g. curve samples outside `[0, 1]`).
    Protocol(String),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Wire(e) => write!(f, "{e}"),
            NodeError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<ServeError> for NodeError {
    fn from(e: ServeError) -> Self {
        NodeError::Wire(e)
    }
}

/// A node's byte transport.
trait Transport: Read + Write + Send {}

impl<T: Read + Write + Send> Transport for T {}

/// One node of the cluster: a session with a serving core.
pub struct ClusterNode {
    client: Client<Box<dyn Transport>>,
    addr: Option<String>,
    /// The records being pushed, in wire shape; reused from push to push.
    batch: Vec<(u64, u64)>,
}

impl ClusterNode {
    /// Builds an in-process node: a serving core on a [`Loopback`],
    /// hosting a one-shard engine under external clocking. The
    /// configured `epoch_length` is overridden to `usize::MAX` (the
    /// coordinator is the clock) and hysteresis is disabled locally
    /// (the coordinator decides globally; the node applies whatever
    /// comes down).
    ///
    /// # Panics
    /// Panics if `config` fails [`EngineConfig::validate`].
    pub fn local(config: EngineConfig) -> ClusterNode {
        Self::on_loopback(Loopback::new(externally_clocked(config)))
    }

    /// [`local`](Self::local), streaming the node's journal into
    /// `sink` as its epochs close (see [`Loopback::set_journal`]). Node
    /// journals are node-local diagnostics: budgeted allocations need
    /// not partition the node's physical capacity, so they are not held
    /// to the flat journal's partition invariant (the cluster journal
    /// is the validated artifact).
    pub fn local_journaled(config: EngineConfig, sink: impl Write + Send + 'static) -> ClusterNode {
        let mut loopback = Loopback::new(externally_clocked(config));
        loopback.set_journal(sink);
        Self::on_loopback(loopback)
    }

    fn on_loopback(loopback: Loopback) -> ClusterNode {
        Self::over(loopback, None).expect("an in-process core admits its one session")
    }

    /// Connects to a `cps serve` daemon as the mux pseudo-tenant (the
    /// coordinator pushes every tenant's records). The daemon must host
    /// a one-shard engine — only that can be externally clocked — and
    /// should be started with an epoch length its stream can never
    /// reach.
    pub fn connect(addr: &str) -> Result<ClusterNode, NodeError> {
        let stream = TcpStream::connect(addr).map_err(ServeError::from)?;
        let _ = stream.set_nodelay(true);
        Self::over(stream, Some(addr.to_string()))
    }

    /// Opens a node's session over `transport`, a byte stream to a
    /// serving core that hosts a one-shard engine; `addr` names the
    /// core if it is remote. [`connect`](Self::connect) and
    /// [`local`](Self::local) are this over a TCP stream and over a
    /// [`Loopback`].
    pub fn over(
        transport: impl Read + Write + Send + 'static,
        addr: Option<String>,
    ) -> Result<ClusterNode, NodeError> {
        let client = Client::hello(Box::new(transport) as Box<dyn Transport>, None)?;
        let shards = client.config().shards;
        if shards != 1 {
            return Err(NodeError::Protocol(format!(
                "node {} hosts a {} engine; external epoch clocking needs engine=single",
                addr.as_deref().unwrap_or("in process"),
                cps_engine::engine_name(shards)
            )));
        }
        Ok(ClusterNode {
            client,
            addr,
            batch: Vec::new(),
        })
    }

    /// The node's engine config, as its HELLO_ACK announced it.
    fn config(&self) -> &EngineConfig {
        self.client.config()
    }

    /// Physical capacity in units.
    pub fn capacity(&self) -> usize {
        self.config().cache.units
    }

    /// Blocks per unit of the node's cache geometry.
    pub fn bpu(&self) -> usize {
        self.config().cache.blocks_per_unit
    }

    /// Tenant-slot count (every node carries the full global slot set;
    /// placement decides which slots actually see traffic).
    pub fn tenants(&self) -> usize {
        self.config().tenants
    }

    /// Remote address, `None` for in-process nodes.
    pub fn addr(&self) -> Option<&str> {
        self.addr.as_deref()
    }

    /// The objective spec the node's engine optimizes, as its
    /// HELLO_ACK announced it. The coordinator refuses at construction
    /// any node whose objective differs from the cluster's — a cluster
    /// where nodes optimize different things is silently wrong
    /// everywhere.
    pub fn objective(&self) -> &Objective {
        &self.config().objective
    }

    /// Streams a batch of records into the node.
    pub fn push(&mut self, records: &[(TenantId, Block)]) -> Result<(), NodeError> {
        self.batch.clear();
        self.batch
            .extend(records.iter().map(|&(t, b)| (t as u64, b)));
        Ok(self.client.push_batch(&self.batch)?)
    }

    /// Opens an epoch boundary: closes the node's profile window and
    /// exports one [`TenantCurve`] per slot. The coordinator names the
    /// objective it solves under; a node optimizing anything else
    /// refuses the export with a typed wire error. `trace` correlates
    /// the boundary across nodes. The second return value is the node's
    /// profile wall clock in nanoseconds — the child span of the
    /// coordinator's epoch, carried back in the reply.
    pub fn export(
        &mut self,
        objective: &str,
        trace: Option<u64>,
    ) -> Result<(Vec<TenantCurve>, u64), NodeError> {
        let (curves, profile_nanos) = self.client.cost_curves(objective, trace.unwrap_or(0))?;
        let curves: Result<Vec<TenantCurve>, NodeError> =
            curves.into_iter().map(tenant_curve_of_wire).collect();
        Ok((curves?, profile_nanos))
    }

    /// Closes the boundary opened by [`export`](Self::export): pushes
    /// the budgeted allocation down and books the node's epoch,
    /// stamped with `trace`. The second return value is the node's
    /// actuate wall clock in nanoseconds.
    pub fn apply(
        &mut self,
        units: &[usize],
        predicted_cost: Option<f64>,
        trace: Option<u64>,
    ) -> Result<(Actuation, u64), NodeError> {
        let wire: Vec<u64> = units.iter().map(|&u| u as u64).collect();
        let (repartitioned, units_moved, actuate_nanos) =
            self.client
                .apply(&wire, predicted_cost, trace.unwrap_or(0))?;
        let actuation = Actuation {
            repartitioned,
            units_moved: units_moved as usize,
        };
        Ok((actuation, actuate_nanos))
    }

    /// Finishes the node — its serving core shuts down — and returns
    /// how its journal ended: the node's summary and canonical digest.
    pub fn finish(self) -> Result<RunDigest, NodeError> {
        Ok(self.client.shutdown()?)
    }
}

/// `config` as a node hosts it: one shard, an epoch its stream never
/// reaches, and no local hysteresis.
fn externally_clocked(config: EngineConfig) -> EngineConfig {
    EngineConfig {
        epoch_length: usize::MAX,
        shards: 1,
        min_repartition_units: 1,
        ..config
    }
}

/// Decodes a wire curve into the engine's export shape, refusing
/// payloads that are not miss-ratio curves (the constructor would
/// panic on them; a malicious or broken daemon must not panic the
/// coordinator).
fn tenant_curve_of_wire(wire: WireCurve) -> Result<TenantCurve, NodeError> {
    let counts = AccessCounts {
        accesses: wire.accesses,
        misses: wire.misses,
    };
    if wire.samples_bits.is_empty() {
        return Ok(TenantCurve {
            counts,
            curve: None,
        });
    }
    let samples: Vec<f64> = wire
        .samples_bits
        .iter()
        .map(|&b| f64::from_bits(b))
        .collect();
    if !samples.iter().all(|s| (0.0..=1.0).contains(s)) {
        return Err(NodeError::Protocol(
            "exported curve has samples outside [0, 1]".to_string(),
        ));
    }
    Ok(TenantCurve {
        counts,
        curve: Some(MissRatioCurve::from_samples(samples)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::CacheConfig;

    #[test]
    fn local_nodes_run_the_external_clock_protocol() {
        let journal = cps_engine::MemorySink::default();
        let config = EngineConfig::new(2, CacheConfig::new(8, 1), 1_000);
        let mut node = ClusterNode::local_journaled(config, journal.clone());
        assert_eq!(node.capacity(), 8);
        assert_eq!(node.tenants(), 2);
        assert_eq!(node.addr(), None);
        let records: Vec<(usize, u64)> = (0..100).map(|i| ((i % 2) as usize, i % 10)).collect();
        node.push(&records).expect("push");
        let (curves, _profile_nanos) = node.export("miss-ratio", Some(42)).expect("export");
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].counts.accesses, 50);
        let (actuation, _actuate_nanos) = node.apply(&[6, 2], Some(0.5), Some(42)).expect("apply");
        assert!(actuation.repartitioned);
        let finish = node.finish().expect("finish");
        assert_eq!(finish.summary.epochs, 1);
        let journal = journal
            .journal()
            .expect("an 8-unit budget partitions the node");
        assert_eq!(journal.epochs.len(), 1);
        assert_eq!(journal.epochs[0].predicted_cost, Some(0.5));
        assert_eq!(journal.epochs[0].trace, Some(42));
        assert_eq!(finish.digest, journal.digest());
    }

    #[test]
    fn bad_wire_curves_are_typed_errors_not_panics() {
        let bad = WireCurve {
            accesses: 10,
            misses: 5,
            samples_bits: vec![2.0f64.to_bits()],
        };
        let err = tenant_curve_of_wire(bad).expect_err("out of range");
        assert!(matches!(err, NodeError::Protocol(_)), "{err:?}");
        assert!(err.to_string().contains("outside [0, 1]"));

        let nan = WireCurve {
            accesses: 1,
            misses: 0,
            samples_bits: vec![f64::NAN.to_bits()],
        };
        assert!(tenant_curve_of_wire(nan).is_err(), "NaN is not a ratio");

        let empty = WireCurve {
            accesses: 0,
            misses: 0,
            samples_bits: vec![],
        };
        let curve = tenant_curve_of_wire(empty).expect("empty = never observed");
        assert!(curve.curve.is_none());
    }
}
