//! One engine node as the coordinator sees it: a uniform facade over
//! an in-process [`Engine`] and a live `cps serve` daemon driven
//! through the wire protocol's external-clocking verbs.
//!
//! Both shapes speak the same four-beat protocol per epoch: records
//! stream in (`push`), the boundary opens with an export of per-tenant
//! cost curves, the coordinator solves, and the boundary closes with
//! an applied budget. A node is always built with an effectively
//! infinite internal epoch length so only the coordinator's clock
//! fires.
//!
//! Every failure is a typed [`NodeError`] — a dead daemon mid-epoch
//! surfaces as `Remote`, never as a panic or a hang, which is what
//! lets the coordinator mark the node failed and re-solve over the
//! survivors.

use cps_cachesim::AccessCounts;
use cps_core::Objective;
use cps_engine::{
    Actuation, Block, Engine, EngineConfig, EngineError, RunDigest, TenantCurve, TenantId,
};
use cps_hotl::MissRatioCurve;
use cps_serve::{Client, ServeError, WireCurve};
use std::io::Write;

/// Why a node operation failed.
#[derive(Debug)]
pub enum NodeError {
    /// A local engine refused the operation.
    Engine(EngineError),
    /// The wire to a remote daemon failed or the daemon refused.
    Remote(ServeError),
    /// A remote daemon answered with something that is not a valid
    /// node response (e.g. curve samples outside `[0, 1]`).
    Protocol(String),
    /// A local node's journal sink failed.
    Journal(std::io::Error),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Engine(e) => write!(f, "{e}"),
            NodeError::Remote(e) => write!(f, "{e}"),
            NodeError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NodeError::Journal(e) => write!(f, "node journal: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<EngineError> for NodeError {
    fn from(e: EngineError) -> Self {
        NodeError::Engine(e)
    }
}

impl From<ServeError> for NodeError {
    fn from(e: ServeError) -> Self {
        NodeError::Remote(e)
    }
}

enum Inner {
    Local(Box<Engine>),
    Remote(Client),
}

/// One node of the cluster: an in-process engine or a live daemon.
pub struct ClusterNode {
    inner: Inner,
    addr: Option<String>,
}

impl ClusterNode {
    /// Builds an in-process node hosting a one-shard engine under
    /// external clocking: the configured `epoch_length` is
    /// overridden to `usize::MAX` (the coordinator is the clock) and
    /// hysteresis is disabled locally (the coordinator decides
    /// globally; the node applies whatever comes down).
    ///
    /// # Panics
    /// Panics if `config` fails [`EngineConfig::validate`].
    pub fn local(config: EngineConfig) -> ClusterNode {
        let config = EngineConfig {
            epoch_length: usize::MAX,
            shards: 1,
            min_repartition_units: 1,
            ..config
        };
        ClusterNode {
            inner: Inner::Local(Box::new(Engine::new(config))),
            addr: None,
        }
    }

    /// [`local`](Self::local), streaming the node's journal into
    /// `sink` as its epochs close (see [`Engine::set_journal`]). Node
    /// journals are node-local diagnostics: budgeted allocations need
    /// not partition the node's physical capacity, so they are not held
    /// to the flat journal's partition invariant (the cluster journal
    /// is the validated artifact).
    pub fn local_journaled(config: EngineConfig, sink: impl Write + Send + 'static) -> ClusterNode {
        let mut node = Self::local(config);
        if let Inner::Local(engine) = &mut node.inner {
            engine.set_journal(sink);
        }
        node
    }

    /// Connects to a `cps serve` daemon as the mux pseudo-tenant (the
    /// coordinator pushes every tenant's records). The daemon must host
    /// a one-shard engine — only that can be externally clocked — and
    /// should be started with an epoch length its stream can never
    /// reach.
    pub fn connect(addr: &str) -> Result<ClusterNode, NodeError> {
        let client = Client::connect(addr, None)?;
        let shards = client.config().shards;
        if shards != 1 {
            return Err(NodeError::Protocol(format!(
                "node {addr} hosts a {} engine; external epoch clocking needs engine=single",
                cps_engine::engine_name(shards)
            )));
        }
        Ok(ClusterNode {
            inner: Inner::Remote(client),
            addr: Some(addr.to_string()),
        })
    }

    /// The node's engine config (remote: as its HELLO_ACK announced it).
    fn config(&self) -> &EngineConfig {
        match &self.inner {
            Inner::Local(engine) => engine.config(),
            Inner::Remote(client) => client.config(),
        }
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

    /// The objective spec the node's engine optimizes (local: from its
    /// [`EngineConfig`]; remote: announced in the wire HELLO_ACK). The
    /// coordinator refuses at construction any node whose objective
    /// differs from the cluster's — a cluster where nodes optimize
    /// different things is silently wrong everywhere.
    pub fn objective(&self) -> &Objective {
        &self.config().objective
    }

    /// Streams a batch of records into the node.
    pub fn push(&mut self, records: &[(TenantId, Block)]) -> Result<(), NodeError> {
        match &mut self.inner {
            Inner::Local(engine) => Ok(engine.push_batch(records)?),
            Inner::Remote(client) => {
                let wire: Vec<(u64, u64)> = records.iter().map(|&(t, b)| (t as u64, b)).collect();
                client.push_batch(&wire)?;
                Ok(())
            }
        }
    }

    /// Opens an epoch boundary: closes the node's profile window and
    /// exports one [`TenantCurve`] per slot. The coordinator names the
    /// objective it solves under; a remote daemon optimizing anything
    /// else refuses the export with a typed wire error. `trace`
    /// correlates the boundary across nodes. The second return value
    /// is the node's profile wall clock in nanoseconds — the child
    /// span of the coordinator's epoch (local: measured around the
    /// engine call; remote: carried back in the reply).
    pub fn export(
        &mut self,
        objective: &str,
        trace: Option<u64>,
    ) -> Result<(Vec<TenantCurve>, u64), NodeError> {
        match &mut self.inner {
            Inner::Local(engine) => {
                let started = std::time::Instant::now();
                let curves = engine.export_cost_curves()?;
                Ok((curves, started.elapsed().as_nanos() as u64))
            }
            Inner::Remote(client) => {
                let (curves, profile_nanos) = client.cost_curves(objective, trace.unwrap_or(0))?;
                let curves: Result<Vec<TenantCurve>, NodeError> =
                    curves.into_iter().map(tenant_curve_of_wire).collect();
                Ok((curves?, profile_nanos))
            }
        }
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
        match &mut self.inner {
            Inner::Local(engine) => {
                let started = std::time::Instant::now();
                let actuation = engine.apply_allocation(units, predicted_cost, trace)?;
                Ok((actuation, started.elapsed().as_nanos() as u64))
            }
            Inner::Remote(client) => {
                let wire: Vec<u64> = units.iter().map(|&u| u as u64).collect();
                let (repartitioned, units_moved, actuate_nanos) =
                    client.apply(&wire, predicted_cost, trace.unwrap_or(0))?;
                Ok((
                    Actuation {
                        repartitioned,
                        units_moved: units_moved as usize,
                    },
                    actuate_nanos,
                ))
            }
        }
    }

    /// Finishes the node — a local engine, or a remote daemon, which
    /// shuts down — and returns how its journal ended: the node's
    /// summary and canonical digest.
    pub fn finish(self) -> Result<RunDigest, NodeError> {
        match self.inner {
            Inner::Local(engine) => engine.finish().map_err(NodeError::Journal),
            Inner::Remote(client) => Ok(client.shutdown()?),
        }
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
