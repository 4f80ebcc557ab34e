//! The engine's metric set: the instruments it registers when
//! observability is attached via `with_metrics`.
//!
//! One [`EngineMetrics`] bundle per engine, all handles into the
//! caller's [`MetricsRegistry`]. Every instrument is booked at the
//! epoch boundary from what the boundary already tallied — accesses
//! and hits from the event's per-tenant counts, the DP cell counts from
//! its solve, the rest from its verdict and stage timings — so the
//! serving routine touches no metric, and a live scrape sees the counts
//! move once per epoch (and at `finish`'s partial one). Names are
//! stable — `cps inspect`/CI grep for them.

use cps_core::DpCells;
use cps_obs::{Counter, EpochEvent, Gauge, Histogram, MetricsRegistry, Stage};

/// The engine's registered instruments (see module docs).
pub(crate) struct EngineMetrics {
    accesses: Counter,
    hits: Counter,
    epochs: Counter,
    repartitions: Counter,
    units_moved: Counter,
    solve_nanos: Histogram,
    dp_cells_visited: Counter,
    dp_cells_dense: Counter,
    epoch_accesses: Histogram,
    stage_nanos: [Counter; 5],
    tenant_units: Vec<Gauge>,
}

fn stage_index(stage: Stage) -> usize {
    Stage::ALL.iter().position(|&s| s == stage).expect("in ALL")
}

impl EngineMetrics {
    /// Registers the engine instrument set.
    pub(crate) fn register(registry: &MetricsRegistry, tenants: usize) -> EngineMetrics {
        let stage_nanos = Stage::ALL.map(|s| {
            registry.counter(
                &format!("cps_engine_stage_{}_nanos_total", s.name()),
                &format!("Wall-clock nanoseconds attributed to the {s} stage"),
            )
        });
        let tenant_units = (0..tenants)
            .map(|t| {
                registry.gauge(
                    &format!("cps_engine_tenant_{t}_units"),
                    "Cache units allocated to the tenant (last served epoch)",
                )
            })
            .collect();
        EngineMetrics {
            accesses: registry.counter(
                "cps_engine_accesses_total",
                "Accesses served across all tenants",
            ),
            hits: registry.counter("cps_engine_hits_total", "Cache hits across all tenants"),
            epochs: registry.counter("cps_engine_epochs_total", "Epoch boundaries closed"),
            repartitions: registry.counter(
                "cps_engine_repartitions_total",
                "Epoch boundaries that applied a new allocation",
            ),
            units_moved: registry.counter(
                "cps_engine_units_moved_total",
                "Cache units moved by applied repartitions",
            ),
            solve_nanos: registry.histogram(
                "cps_engine_solve_nanos",
                "Per-epoch DP re-solve latency in nanoseconds",
            ),
            dp_cells_visited: registry.counter(
                "cps_engine_dp_cells_visited_total",
                "DP candidates the range-clipped kernel evaluated",
            ),
            dp_cells_dense: registry.counter(
                "cps_engine_dp_cells_dense_total",
                "DP candidates a dense O(P*C^2) fold would have evaluated",
            ),
            epoch_accesses: registry
                .histogram("cps_engine_epoch_accesses", "Accesses served per epoch"),
            stage_nanos,
            tenant_units,
        }
    }

    /// Solve-stage update: one epoch's DP candidate counts.
    pub(crate) fn observe_dp_cells(&self, cells: DpCells) {
        self.dp_cells_visited.add(cells.visited);
        self.dp_cells_dense.add(cells.dense);
    }

    /// Epoch-boundary update: rolls one booked epoch into the
    /// registered instruments. Accesses, hits and the epoch-size
    /// histogram come from the event's counts — the ones the boundary
    /// already tallied.
    pub(crate) fn observe_epoch(&self, e: &EpochEvent) {
        let epoch_accesses: u64 = e.accesses.iter().sum();
        let epoch_misses: u64 = e.misses.iter().sum();
        self.epochs.inc();
        self.accesses.add(epoch_accesses);
        self.hits.add(epoch_accesses - epoch_misses);
        self.epoch_accesses.observe(epoch_accesses);
        if e.timings.solve_nanos > 0 {
            self.solve_nanos.observe(e.timings.solve_nanos);
        }
        for (stage, nanos) in e.timings.iter() {
            self.stage_nanos[stage_index(stage)].add(nanos);
        }
        if e.repartitioned {
            self.repartitions.inc();
            self.units_moved.add(e.units_moved as u64);
        }
        for (gauge, &units) in self.tenant_units.iter().zip(&e.allocation) {
            gauge.set(units as i64);
        }
    }
}
