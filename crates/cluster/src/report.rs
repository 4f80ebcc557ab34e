//! The two-level cluster report: the coordinator's epoch record plus
//! per-node finishes, rendered onto the same stable journal schema the
//! flat engines use.
//!
//! The cluster journal is the *logical* view: its header claims the
//! cluster's total capacity and one "shard" per node, and every epoch
//! line's allocation is the coordinator's logical partition of that
//! capacity — so `Journal::parse(...).validate()` holds under the flat
//! schema unchanged, with migration lines interleaved after the epoch
//! at which each move took effect. Node-local journals (what a remote
//! daemon renders on shutdown) are diagnostics riding along in
//! [`node_finishes`](ClusterReport::node_finishes); budgeted node
//! allocations need not partition a node's physical capacity, so those
//! are deliberately *not* held to the partition invariant.

use cps_cachesim::AccessCounts;
use cps_core::Objective;
use cps_engine::{weighted_miss_ratio, EpochRecord, StageTimings};
use cps_obs::{MigrationEvent, RunHeader, RunSummary};

use crate::node::NodeFinish;

/// One node marked dead during the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeFailure {
    /// Which node failed.
    pub node: usize,
    /// Coordinator epoch index at which the failure surfaced (equals
    /// the number of epochs already recorded at that moment).
    pub epoch: usize,
    /// The operation that failed and the typed error it returned.
    pub error: String,
}

/// Everything a finished cluster run knows about itself.
#[derive(Debug)]
pub struct ClusterReport {
    /// Number of nodes the cluster was built with (dead or alive).
    pub nodes: usize,
    /// Number of tenants.
    pub tenants: usize,
    /// Logical capacity the coordinator partitioned.
    pub total_units: usize,
    /// Blocks per unit.
    pub bpu: usize,
    /// Configured accesses per coordinator epoch.
    pub epoch_length: usize,
    /// Partitioning objective.
    pub objective: Objective,
    /// One record per coordinator epoch, in order.
    pub epochs: Vec<EpochRecord>,
    /// Whole-run per-tenant realized counts.
    pub totals: Vec<AccessCounts>,
    /// Tenant re-homings, in the order they were applied.
    pub migrations: Vec<MigrationEvent>,
    /// Nodes marked dead, in the order they failed.
    pub failures: Vec<NodeFailure>,
    /// Records dropped because their home node had failed.
    pub dropped_records: u64,
    /// Per-node finish artifacts, indexed by node; `None` for nodes
    /// that died (including a failure during finish itself).
    pub node_finishes: Vec<Option<NodeFinish>>,
}

impl ClusterReport {
    /// The journal run header for this cluster: engine `cluster`, one
    /// shard per node, and the objective names the flat engines use.
    pub fn run_header(&self) -> RunHeader {
        RunHeader {
            engine: "cluster".to_string(),
            tenants: self.tenants,
            units: self.total_units,
            bpu: self.bpu,
            epoch_length: self.epoch_length,
            shards: self.nodes,
            policy: "cluster".to_string(),
            objective: self.objective.name(),
        }
    }

    /// The journal summary line; by construction it validates against
    /// the epoch events (same totals the journal consumer recomputes).
    pub fn run_summary(&self) -> RunSummary {
        let mut timings = StageTimings::default();
        for e in &self.epochs {
            timings.merge(&e.timings);
        }
        RunSummary {
            epochs: self.epochs.len(),
            accesses: self.totals.iter().map(|c| c.accesses).sum(),
            misses: self.totals.iter().map(|c| c.misses).sum(),
            repartitions: self.epochs.iter().filter(|e| e.repartitioned).count(),
            units_moved: self
                .epochs
                .iter()
                .filter(|e| e.repartitioned)
                .map(|e| e.units_moved as u64)
                .sum(),
            timings,
        }
    }

    /// Renders the full cluster journal: header, epoch lines with each
    /// epoch's migrations interleaved right after it, summary. The
    /// output round-trips through [`cps_obs::Journal::parse`] and
    /// passes `validate()`.
    pub fn journal(&self) -> String {
        let mut text = String::new();
        text.push_str(&self.run_header().to_json_line());
        text.push('\n');
        let objective = self.objective.name();
        for e in &self.epochs {
            text.push_str(&e.journal_event(&objective).to_json_line());
            text.push('\n');
            for m in self.migrations.iter().filter(|m| m.epoch == e.epoch) {
                text.push_str(&m.to_json_line());
                text.push('\n');
            }
        }
        text.push_str(&self.run_summary().to_json_line());
        text.push('\n');
        text
    }

    /// Whole-run access-weighted group miss ratio (0.0 when nothing
    /// was accessed).
    pub fn cumulative_miss_ratio(&self) -> f64 {
        weighted_miss_ratio(&self.totals)
    }

    /// Coordinator epochs that applied a repartition.
    pub fn repartition_count(&self) -> usize {
        self.epochs.iter().filter(|e| e.repartitioned).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_obs::Journal;

    fn record(epoch: usize, allocation: Vec<usize>, accesses: u64, misses: u64) -> EpochRecord {
        let per_tenant = (0..allocation.len())
            .map(|_| AccessCounts { accesses, misses })
            .collect();
        EpochRecord {
            epoch,
            allocation,
            per_tenant,
            predicted_cost: Some(0.25),
            timings: StageTimings::default(),
            repartitioned: epoch > 0,
            units_moved: usize::from(epoch > 0) * 2,
            start_nanos: epoch as u64 * 1_000,
            trace: Some(0x7702 + epoch as u64),
            node_spans: Vec::new(),
        }
    }

    fn report() -> ClusterReport {
        let epochs = vec![record(0, vec![4, 4], 50, 10), record(1, vec![6, 2], 50, 5)];
        let totals = vec![
            AccessCounts {
                accesses: 100,
                misses: 15,
            },
            AccessCounts {
                accesses: 100,
                misses: 15,
            },
        ];
        ClusterReport {
            nodes: 2,
            tenants: 2,
            total_units: 8,
            bpu: 1,
            epoch_length: 100,
            objective: Objective::MissRatioSum,
            epochs,
            totals,
            migrations: vec![MigrationEvent {
                epoch: 1,
                tenant: 1,
                from: 0,
                to: 1,
                gain: Some(0.2),
            }],
            failures: vec![],
            dropped_records: 0,
            node_finishes: vec![None, None],
        }
    }

    #[test]
    fn journal_round_trips_and_validates() {
        let r = report();
        let journal = Journal::parse(&r.journal()).expect("parses");
        journal.validate().expect("validates");
        assert_eq!(journal.header.engine, "cluster");
        assert_eq!(journal.header.shards, 2);
        assert_eq!(journal.epochs.len(), 2);
        assert_eq!(journal.migrations, r.migrations);
        assert_eq!(journal.summary, r.run_summary());
    }

    #[test]
    fn summary_counts_only_applied_repartitions() {
        let s = report().run_summary();
        assert_eq!(s.repartitions, 1);
        assert_eq!(s.units_moved, 2);
        assert_eq!(s.accesses, 200);
        assert_eq!(s.misses, 30);
    }

    #[test]
    fn cumulative_miss_ratio_weighs_totals() {
        assert!((report().cumulative_miss_ratio() - 30.0 / 200.0).abs() < 1e-12);
    }
}
