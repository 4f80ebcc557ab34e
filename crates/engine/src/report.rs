//! Epoch records and run reports — the pipeline's observable output.
//!
//! Every epoch the engine closes produces an [`EpochRecord`]: the
//! allocation that was actually in force, the realized per-tenant
//! hit/miss counts under it, what the re-solve decided at the boundary,
//! and a uniform [`StageTimings`] block attributing the epoch's wall
//! clock to pipeline stages. A finished run rolls them up into an
//! [`EngineReport`], making controller behaviour auditable after the
//! fact — and exportable: [`EngineReport::journal_events`] and
//! [`EngineReport::run_summary`] map a report onto the stable
//! [`cps_obs::journal`] schema that `cps replay-online --journal`
//! writes and `cps inspect` round-trips.

use crate::TenantId;
use cps_cachesim::AccessCounts;
use cps_core::CacheConfig;
use cps_obs::{EpochEvent, NodeSpan, RunSummary, StageTimings};

/// What happened in one epoch.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Epoch index, from 0.
    pub epoch: usize,
    /// Monotonic nanoseconds from run start to the moment this epoch
    /// began serving (journal v3 `start`) — wall clock, excluded from
    /// determinism and identity guarantees.
    pub start_nanos: u64,
    /// Trace id correlating this epoch across nodes (`None` for
    /// untraced flat-engine runs; the cluster coordinator stamps one
    /// per boundary and propagates it over the wire).
    pub trace: Option<u64>,
    /// Per-node child spans of this epoch's boundary work — empty for
    /// flat engines, one entry per node for a cluster run.
    pub node_spans: Vec<NodeSpan>,
    /// Allocation (units) in force *during* this epoch.
    pub allocation: Vec<usize>,
    /// Realized per-tenant counts under that allocation.
    pub per_tenant: Vec<AccessCounts>,
    /// DP-predicted cost of the allocation chosen *at the end* of this
    /// epoch; `None` if the solve was skipped or infeasible.
    pub predicted_cost: Option<f64>,
    /// Wall-clock nanoseconds the epoch spent in each pipeline stage.
    /// Excluded (like all wall clock) from the engine's determinism
    /// guarantees.
    pub timings: StageTimings,
    /// Whether a new allocation was applied at this epoch's boundary.
    pub repartitioned: bool,
    /// Units that moved between tenants at the boundary (half the L1
    /// distance between old and new allocations).
    pub units_moved: usize,
}

impl EpochRecord {
    /// Realized access-weighted group miss ratio of this epoch
    /// (**defined as 0.0 for an epoch that served no accesses** — a
    /// zero-access epoch is a well-formed record, not a NaN).
    pub fn miss_ratio(&self) -> f64 {
        weighted_miss_ratio(&self.per_tenant)
    }

    /// Total accesses served this epoch.
    pub fn accesses(&self) -> u64 {
        self.per_tenant.iter().map(|c| c.accesses).sum()
    }

    /// Wall-clock nanoseconds of this epoch's DP re-solve (0 if the
    /// solve was skipped) — shorthand for `timings.solve_nanos`.
    pub fn solve_nanos(&self) -> u64 {
        self.timings.solve_nanos
    }

    /// This record as a journal line payload, tagged with the
    /// objective spec the run solved under (journal schema v2 requires
    /// every epoch line to name it).
    pub fn journal_event(&self, objective: &str) -> EpochEvent {
        EpochEvent {
            epoch: self.epoch,
            start_nanos: self.start_nanos,
            trace: self.trace,
            spans: self.node_spans.clone(),
            objective: objective.to_string(),
            allocation: self.allocation.clone(),
            accesses: self.per_tenant.iter().map(|c| c.accesses).collect(),
            misses: self.per_tenant.iter().map(|c| c.misses).collect(),
            predicted_cost: self.predicted_cost,
            repartitioned: self.repartitioned,
            units_moved: self.units_moved,
            timings: self.timings,
            // Journal v3 keeps the field for old queued-ingest
            // journals; no engine fills it any more.
            backpressure: None,
        }
    }
}

/// The engine's structured run record.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Number of tenants.
    pub tenants: usize,
    /// Cache geometry the run used.
    pub cache: CacheConfig,
    /// Spec of the objective every boundary solved under (from
    /// [`EngineConfig::objective`](crate::EngineConfig)).
    pub objective: String,
    /// Per-epoch records, in order (including a final partial epoch if
    /// the stream ended mid-epoch — profiled and solved like any other,
    /// but never actuated, since no further accesses would be served).
    pub epochs: Vec<EpochRecord>,
    /// Lifetime per-tenant counts.
    pub totals: Vec<AccessCounts>,
}

impl EngineReport {
    /// Cumulative access-weighted group miss ratio over the whole run
    /// (0.0 if the run served no accesses).
    pub fn cumulative_miss_ratio(&self) -> f64 {
        weighted_miss_ratio(&self.totals)
    }

    /// Cumulative miss ratio of one tenant; `None` if `tenant` is out
    /// of range. (An in-range tenant that served nothing reports
    /// `Some(0.0)`, consistent with the group ratios.)
    pub fn tenant_miss_ratio(&self, tenant: TenantId) -> Option<f64> {
        self.totals.get(tenant).map(|c| c.miss_ratio())
    }

    /// Number of epoch boundaries at which the allocation changed.
    pub fn repartition_count(&self) -> usize {
        self.epochs.iter().filter(|e| e.repartitioned).count()
    }

    /// Total nanoseconds spent in DP solves.
    pub fn total_solve_nanos(&self) -> u64 {
        self.epochs.iter().map(|e| e.solve_nanos()).sum()
    }

    /// Mean nanoseconds per performed DP solve (`None` if none ran).
    pub fn mean_solve_nanos(&self) -> Option<u64> {
        let solved: Vec<u64> = self
            .epochs
            .iter()
            .filter(|e| e.solve_nanos() > 0)
            .map(|e| e.solve_nanos())
            .collect();
        if solved.is_empty() {
            None
        } else {
            Some(solved.iter().sum::<u64>() / solved.len() as u64)
        }
    }

    /// Stage-wise sum of every epoch's timings — where the run's wall
    /// clock went.
    pub fn stage_totals(&self) -> StageTimings {
        let mut total = StageTimings::default();
        for e in &self.epochs {
            total.merge(&e.timings);
        }
        total
    }

    /// The per-epoch allocation decisions, in order — the byte-exact
    /// control trajectory. Two runs are *control-equivalent* (same
    /// profile → solve → actuate decisions) iff these match, regardless
    /// of how realized hit counts differ; this is what the sharded
    /// engine's determinism guarantee is stated over.
    pub fn allocation_trajectory(&self) -> Vec<&[usize]> {
        self.epochs
            .iter()
            .map(|e| e.allocation.as_slice())
            .collect()
    }

    /// Every epoch as a journal event, in order, each tagged with the
    /// run's objective spec.
    pub fn journal_events(&self) -> Vec<EpochEvent> {
        self.epochs
            .iter()
            .map(|e| e.journal_event(&self.objective))
            .collect()
    }

    /// The journal summary line for this run; by construction it
    /// validates against [`journal_events`](Self::journal_events) (same
    /// totals the journal consumer recomputes).
    pub fn run_summary(&self) -> RunSummary {
        RunSummary {
            epochs: self.epochs.len(),
            accesses: self.totals.iter().map(|c| c.accesses).sum(),
            misses: self.totals.iter().map(|c| c.misses).sum(),
            repartitions: self.repartition_count(),
            units_moved: self
                .epochs
                .iter()
                .filter(|e| e.repartitioned)
                .map(|e| e.units_moved as u64)
                .sum(),
            timings: self.stage_totals(),
        }
    }
}

/// Access-weighted group miss ratio of a set of per-tenant counts
/// (**0.0 when nothing was accessed** — never NaN).
pub fn weighted_miss_ratio(counts: &[AccessCounts]) -> f64 {
    let acc: u64 = counts.iter().map(|c| c.accesses).sum();
    let mis: u64 = counts.iter().map(|c| c.misses).sum();
    if acc == 0 {
        0.0
    } else {
        mis as f64 / acc as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(accesses: u64, misses: u64) -> AccessCounts {
        AccessCounts { accesses, misses }
    }

    fn record(epoch: usize, alloc: Vec<usize>, per_tenant: Vec<AccessCounts>) -> EpochRecord {
        EpochRecord {
            epoch,
            start_nanos: 0,
            trace: None,
            node_spans: Vec::new(),
            allocation: alloc,
            per_tenant,
            predicted_cost: None,
            timings: StageTimings::default(),
            repartitioned: false,
            units_moved: 0,
        }
    }

    #[test]
    fn weighted_ratio_handles_empty_and_mixes() {
        assert_eq!(weighted_miss_ratio(&[]), 0.0);
        assert_eq!(weighted_miss_ratio(&[counts(0, 0)]), 0.0);
        let r = weighted_miss_ratio(&[counts(100, 50), counts(300, 30)]);
        assert!((r - 0.2).abs() < 1e-12);
    }

    /// A zero-access epoch (all tenants idle) must report ratio 0.0 —
    /// the defined value — not NaN from 0/0.
    #[test]
    fn zero_access_epoch_miss_ratio_is_zero_not_nan() {
        let idle = record(0, vec![4, 4], vec![counts(0, 0), counts(0, 0)]);
        assert_eq!(idle.miss_ratio(), 0.0);
        assert!(!idle.miss_ratio().is_nan());
        let report = EngineReport {
            tenants: 2,
            cache: CacheConfig::new(8, 1),
            objective: "miss-ratio".to_string(),
            epochs: vec![idle],
            totals: vec![counts(0, 0), counts(0, 0)],
        };
        assert_eq!(report.cumulative_miss_ratio(), 0.0);
        assert_eq!(report.tenant_miss_ratio(0), Some(0.0));
    }

    #[test]
    fn tenant_miss_ratio_is_none_out_of_range() {
        let report = EngineReport {
            tenants: 2,
            cache: CacheConfig::new(8, 1),
            objective: "miss-ratio".to_string(),
            epochs: vec![],
            totals: vec![counts(10, 5), counts(40, 4)],
        };
        assert_eq!(report.tenant_miss_ratio(0), Some(0.5));
        assert_eq!(report.tenant_miss_ratio(1), Some(0.1));
        assert_eq!(report.tenant_miss_ratio(2), None);
    }

    #[test]
    fn trajectory_lists_epoch_allocations_in_order() {
        let report = EngineReport {
            tenants: 1,
            cache: CacheConfig::new(8, 1),
            objective: "miss-ratio".to_string(),
            epochs: vec![
                record(0, vec![4, 4], vec![counts(10, 1)]),
                record(1, vec![6, 2], vec![counts(10, 1)]),
            ],
            totals: vec![counts(20, 2)],
        };
        assert_eq!(
            report.allocation_trajectory(),
            vec![&[4usize, 4][..], &[6, 2][..]]
        );
    }

    #[test]
    fn journal_mapping_preserves_counts_and_validates() {
        let mut e0 = record(0, vec![6, 2], vec![counts(60, 6), counts(40, 4)]);
        e0.repartitioned = true;
        e0.units_moved = 2;
        e0.timings.solve_nanos = 500;
        let e1 = record(1, vec![6, 2], vec![counts(50, 5), counts(50, 1)]);
        let report = EngineReport {
            tenants: 2,
            cache: CacheConfig::new(8, 1),
            objective: "miss-ratio".to_string(),
            epochs: vec![e0, e1],
            totals: vec![counts(110, 11), counts(90, 5)],
        };
        let events = report.journal_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].accesses, vec![60, 40]);
        assert_eq!(events[0].misses, vec![6, 4]);
        assert!(events.iter().all(|e| e.backpressure.is_none()));
        let summary = report.run_summary();
        assert_eq!(summary.epochs, 2);
        assert_eq!(summary.accesses, 200);
        assert_eq!(summary.misses, 16);
        assert_eq!(summary.repartitions, 1);
        assert_eq!(summary.units_moved, 2);
        assert_eq!(summary.timings.solve_nanos, 500);
    }
}
