//! The cluster coordinator: one control loop over many engine nodes.
//!
//! The coordinator owns the epoch clock. Nodes are built with an
//! effectively infinite internal epoch length, so every boundary is
//! driven from here as an export → solve → apply beat:
//!
//! 1. **Route** — each record goes to its tenant's home node
//!    (placement is routing: every node carries the full tenant-slot
//!    set, so a move never changes any node's schema).
//! 2. **Export** — at the boundary every live node closes its profile
//!    window and ships per-tenant cost curves and realized counts up.
//! 3. **Solve** — the coordinator weighs curves by *global* access
//!    shares (exactly as the flat engine's solve stage would) and runs
//!    the two-level DP of [`crate::hierarchy`]: node frontiers, then a
//!    top-level split of total capacity into per-node budgets. With
//!    migration on, the stage ends with the **placement step**: the
//!    single best tenant re-homing, taken when its two-level gain
//!    clears the threshold (or as a feasibility rescue). A move makes
//!    the moved grouping's solve the epoch's solve.
//! 4. **Apply** — the global hysteresis decision is all-or-nothing
//!    across nodes, taken against the coordinator's *logical*
//!    allocation (which therefore always partitions total capacity,
//!    keeping the cluster journal valid under the flat schema); a
//!    re-homing forces the apply, so the moved tenant's budget lands on
//!    its new node at the boundary that moves it. Nodes run with local
//!    hysteresis disabled and book whatever comes down.
//!
//! With one tenant per node and full-capacity nodes this loop is
//! **trajectory-identical** to the flat single engine — same
//! allocations, predictions, hysteresis verdicts, and counts, epoch by
//! epoch, bit for bit (`tests/identity.rs`). From the first applied
//! boundary on, every tenant's home node serves exactly the journaled
//! allocation (`tests/served.rs`); epoch 0 runs under each node's own
//! equal split. Node-failure handling marks a dead node, re-solves over
//! the survivors, and keeps serving.
//!
//! The coordinator streams one `cps_obs` [`EpochEvent`] per boundary,
//! then any migration line, through the engine's [`JournalStream`], and
//! keeps no epoch list. The journal is the *logical* view: its header
//! claims the cluster's total capacity and one "shard" per node, and
//! every epoch's allocation is the coordinator's logical partition of
//! that capacity — so it validates under the flat schema unchanged.

use cps_cachesim::AccessCounts;
use cps_core::{access_shares, build_cost_curves, CacheConfig, CostCurve, DpSolver, Objective};
use cps_engine::{units_moved, Actuation, Block, TenantId};
use cps_hotl::MissRatioCurve;
use cps_obs::{
    Counter, EpochEvent, Gauge, JournalStream, MetricsRegistry, MigrationEvent, NodeSpan,
    RunDigest, RunHeader, Stage, StageTimings, Stopwatch,
};

use crate::hierarchy::{solve_two_level, TwoLevelResult};
use crate::node::ClusterNode;

/// Records buffered per node before a mid-epoch flush.
const FLUSH_BATCH: usize = 1_024;

/// One node marked dead during the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeFailure {
    /// Which node failed.
    pub node: usize,
    /// Coordinator epoch index at which the failure surfaced (equals
    /// the number of epochs already booked at that moment).
    pub epoch: usize,
    /// The operation that failed and the typed error it returned.
    pub error: String,
}

/// Everything a finished cluster run knows about itself.
#[derive(Debug)]
pub struct ClusterReport {
    /// How the cluster journal ended: its summary and canonical digest.
    pub run: RunDigest,
    /// Every tenant re-homing, in epoch order.
    pub migrations: Vec<MigrationEvent>,
    /// Nodes marked dead, in the order they failed.
    pub failures: Vec<NodeFailure>,
    /// Records dropped because their home node had failed.
    pub dropped_records: u64,
    /// How each node's own journal ended (summary and canonical
    /// digest), indexed by node; `None` for nodes that died (including
    /// a failure during finish itself). These are node-local
    /// diagnostics: budgeted node allocations need not partition a
    /// node's physical capacity.
    pub node_finishes: Vec<Option<RunDigest>>,
}

/// The coordinator's knobs.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Total logical capacity split across nodes (the top-level DP's
    /// `C`).
    pub total_units: usize,
    /// Blocks per unit; must match every node's geometry.
    pub bpu: usize,
    /// Accesses per coordinator epoch.
    pub epoch_length: usize,
    /// Partitioning objective for both DP levels.
    pub objective: Objective,
    /// Global hysteresis: a proposed reallocation is applied (on every
    /// node at once) only when it moves at least this many units of
    /// the logical allocation.
    pub hysteresis: usize,
    /// Relative cost gain a single-tenant re-homing must clear to
    /// trigger a migration; `None` disables the placement step.
    pub migrate_threshold: Option<f64>,
}

impl ClusterConfig {
    /// A throughput-objective cluster with no migration and the same
    /// no-hysteresis default as the flat engine.
    ///
    /// # Panics
    /// Panics if any argument is zero.
    pub fn new(total_units: usize, bpu: usize, epoch_length: usize) -> Self {
        assert!(total_units > 0, "need at least one unit");
        assert!(bpu > 0, "unit must hold at least one block");
        assert!(epoch_length > 0, "epochs need at least one access");
        ClusterConfig {
            total_units,
            bpu,
            epoch_length,
            objective: Objective::MissRatioSum,
            hysteresis: 1,
            migrate_threshold: None,
        }
    }

    /// Sets the partitioning objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the global minimum units-moved threshold.
    pub fn hysteresis(mut self, min_units: usize) -> Self {
        self.hysteresis = min_units;
        self
    }

    /// Enables the placement step with a relative-gain threshold.
    ///
    /// # Panics
    /// Panics if `threshold` is negative or not finite.
    pub fn migrate(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "migration threshold must be a finite non-negative ratio"
        );
        self.migrate_threshold = Some(threshold);
        self
    }

    /// The logical cache geometry the top-level DP partitions.
    pub fn cache(&self) -> CacheConfig {
        CacheConfig::new(self.total_units, self.bpu)
    }
}

/// Registered `cps_cluster_*` instruments.
struct ClusterMetrics {
    epochs: Counter,
    records: Counter,
    dropped: Counter,
    repartitions: Counter,
    units_moved: Counter,
    migrations: Counter,
    node_failures: Counter,
    solve_nanos: Counter,
    nodes_alive: Gauge,
}

impl ClusterMetrics {
    fn register(registry: &MetricsRegistry, nodes: usize) -> ClusterMetrics {
        let m = ClusterMetrics {
            epochs: registry.counter("cps_cluster_epochs_total", "Coordinator epochs completed"),
            records: registry.counter("cps_cluster_records_total", "Records routed to nodes"),
            dropped: registry.counter(
                "cps_cluster_dropped_records_total",
                "Records dropped because their home node had failed",
            ),
            repartitions: registry.counter(
                "cps_cluster_repartitions_total",
                "Boundaries that applied the solve (a logical change or a re-homing)",
            ),
            units_moved: registry.counter(
                "cps_cluster_units_moved_total",
                "Logical units moved by applied repartitions",
            ),
            migrations: registry.counter(
                "cps_cluster_migrations_total",
                "Tenants re-homed by the placement step",
            ),
            node_failures: registry.counter(
                "cps_cluster_node_failures_total",
                "Nodes marked dead after a typed node error",
            ),
            solve_nanos: registry.counter(
                "cps_cluster_solve_nanos_total",
                "Wall-clock nanoseconds in the solve stage (two-level DP + placement step)",
            ),
            nodes_alive: registry.gauge("cps_cluster_nodes_alive", "Live nodes"),
        };
        m.nodes_alive.set(nodes as i64);
        m
    }
}

struct NodeSlot {
    node: ClusterNode,
    alive: bool,
}

/// What the solve stage hands the apply step.
struct EpochSolve {
    /// Logical units per tenant (0 for tenants on dead nodes).
    proposal: Vec<usize>,
    cost: f64,
    /// The placement step re-homed a tenant: apply whatever the
    /// hysteresis says, since the old split may not fit the new caps.
    rehomed: bool,
}

/// The multi-node control loop. See the module docs for the epoch
/// beat; construct with [`Coordinator::new`], feed accesses through
/// [`record_access`](Coordinator::record_access) or
/// [`run`](Coordinator::run), and close with
/// [`finish`](Coordinator::finish).
pub struct Coordinator {
    config: ClusterConfig,
    nodes: Vec<NodeSlot>,
    capacities: Vec<usize>,
    placement: Vec<usize>,
    /// The coordinator's capacity ledger: per-tenant logical units,
    /// always an exact partition of `total_units` — what the cluster
    /// journal records as the allocation in force.
    logical: Vec<usize>,
    /// Last known miss-ratio curve per tenant. Refreshed from the home
    /// node's export each epoch; survives a migration so the solve
    /// doesn't stall while the new home's profiler warms up.
    cached: Vec<Option<MissRatioCurve>>,
    /// Per-node physical slot allocations as last pushed down (or the
    /// node's initial equal split before any push).
    node_alloc: Vec<Vec<usize>>,
    buffers: Vec<Vec<(TenantId, Block)>>,
    epoch_accesses: usize,
    journal: JournalStream,
    migrations: Vec<MigrationEvent>,
    failures: Vec<NodeFailure>,
    dropped_records: u64,
    solver: DpSolver,
    metrics: Option<ClusterMetrics>,
    /// The run clock epoch-start timestamps are measured against.
    run_start: std::time::Instant,
    /// Seed for per-epoch trace ids — one id correlates a boundary's
    /// cluster record with every node's booked epoch.
    trace_nonce: u64,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("nodes", &self.nodes.len())
            .field("tenants", &self.placement.len())
            .field("placement", &self.placement)
            .field("logical", &self.logical)
            .field("epochs", &self.journal.epochs())
            .finish_non_exhaustive()
    }
}

impl Coordinator {
    /// Builds a coordinator over `nodes` with the given tenant →
    /// node `placement`. Fails (with a human-readable reason) when the
    /// topology cannot work: no nodes, inconsistent tenant-slot counts
    /// or geometry, out-of-range placement, or capacities that cannot
    /// absorb the logical cache.
    pub fn new(
        config: ClusterConfig,
        nodes: Vec<ClusterNode>,
        placement: Vec<usize>,
    ) -> Result<Coordinator, String> {
        if nodes.is_empty() {
            return Err("a cluster needs at least one node".to_string());
        }
        let tenants = nodes[0].tenants();
        for (n, node) in nodes.iter().enumerate() {
            if node.tenants() != tenants {
                return Err(format!(
                    "node {n} has {} tenant slots, node 0 has {tenants}; every node must carry \
                     the full tenant set",
                    node.tenants()
                ));
            }
            if node.bpu() != config.bpu {
                return Err(format!(
                    "node {n} uses {}-block units, the cluster uses {}-block units",
                    node.bpu(),
                    config.bpu
                ));
            }
            if *node.objective() != config.objective {
                return Err(format!(
                    "node {n} optimizes `{}`, the cluster optimizes `{}`; every node must share \
                     the coordinator's objective",
                    node.objective(),
                    config.objective
                ));
            }
        }
        if placement.len() != tenants {
            return Err(format!(
                "placement names {} tenants, nodes carry {tenants}",
                placement.len()
            ));
        }
        if let Some(&bad) = placement.iter().find(|&&n| n >= nodes.len()) {
            return Err(format!(
                "placement routes a tenant to node {bad}, but there are only {} nodes",
                nodes.len()
            ));
        }
        let capacities: Vec<usize> = nodes.iter().map(|n| n.capacity()).collect();
        let total_capacity: usize = capacities.iter().sum();
        if total_capacity < config.total_units {
            return Err(format!(
                "node capacities sum to {total_capacity} units; cannot host a {}-unit cluster",
                config.total_units
            ));
        }
        let node_alloc = capacities
            .iter()
            .map(|&cap| CacheConfig::new(cap, config.bpu).equal_split(tenants))
            .collect();
        let logical = config.cache().equal_split(tenants);
        let node_count = nodes.len();
        Ok(Coordinator {
            config,
            nodes: nodes
                .into_iter()
                .map(|node| NodeSlot { node, alive: true })
                .collect(),
            capacities,
            placement,
            logical,
            cached: vec![None; tenants],
            node_alloc,
            buffers: vec![Vec::new(); node_count],
            epoch_accesses: 0,
            journal: JournalStream::default(),
            migrations: Vec::new(),
            failures: Vec::new(),
            dropped_records: 0,
            solver: DpSolver::new(),
            metrics: None,
            run_start: std::time::Instant::now(),
            trace_nonce: cps_obs::nonce(),
        })
    }

    /// Like [`Coordinator::new`], registering `cps_cluster_*`
    /// instruments on `registry`.
    pub fn with_metrics(
        config: ClusterConfig,
        nodes: Vec<ClusterNode>,
        placement: Vec<usize>,
        registry: &MetricsRegistry,
    ) -> Result<Coordinator, String> {
        let mut coordinator = Coordinator::new(config, nodes, placement)?;
        coordinator.metrics = Some(ClusterMetrics::register(registry, coordinator.nodes.len()));
        Ok(coordinator)
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.placement.len()
    }

    /// Coordinator epochs completed so far.
    pub fn epochs_completed(&self) -> usize {
        self.journal.epochs()
    }

    /// Streams the cluster journal into `sink`, as
    /// [`cps_engine::Engine::set_journal`] does. Call it before the first record.
    pub fn set_journal(&mut self, sink: impl std::io::Write + Send + 'static) {
        let header = RunHeader {
            engine: "cluster".to_string(),
            tenants: self.tenants(),
            units: self.config.total_units,
            bpu: self.config.bpu,
            epoch_length: self.config.epoch_length,
            shards: self.nodes.len(),
            policy: "cluster".to_string(),
            objective: self.config.objective.name(),
        };
        self.journal.attach(&header, Box::new(sink));
    }

    /// Nodes currently alive.
    pub fn nodes_alive(&self) -> usize {
        self.nodes.iter().filter(|s| s.alive).count()
    }

    /// Routes one access to its tenant's home node, driving the epoch
    /// clock. Records for a failed node are counted and dropped — the
    /// cluster keeps serving the survivors.
    ///
    /// # Panics
    /// Panics if `tenant` is out of range.
    pub fn record_access(&mut self, tenant: TenantId, block: Block) {
        assert!(tenant < self.tenants(), "tenant {tenant} out of range");
        let home = self.placement[tenant];
        if self.nodes[home].alive {
            self.buffers[home].push((tenant, block));
            if let Some(m) = &self.metrics {
                m.records.inc();
            }
            if self.buffers[home].len() >= FLUSH_BATCH {
                self.flush_node(home);
            }
        } else {
            self.dropped_records += 1;
            if let Some(m) = &self.metrics {
                m.dropped.inc();
            }
        }
        self.epoch_accesses += 1;
        if self.epoch_accesses >= self.config.epoch_length {
            self.boundary(true);
        }
    }

    /// Streams a whole access sequence through
    /// [`record_access`](Self::record_access).
    pub fn run(&mut self, accesses: impl IntoIterator<Item = (TenantId, Block)>) {
        for (tenant, block) in accesses {
            self.record_access(tenant, block);
        }
    }

    /// Finishes the run: a trailing partial epoch is exported and
    /// solved like any other but never actuated (exactly the flat
    /// engine's contract), every surviving node is finished, and the
    /// journal's summary line goes to the sink. Returns the
    /// [`ClusterReport`], or the first error the journal sink returned.
    pub fn finish(mut self) -> std::io::Result<ClusterReport> {
        if self.epoch_accesses > 0 {
            self.boundary(false);
        }
        let nodes = std::mem::take(&mut self.nodes);
        let node_finishes = (nodes.into_iter().enumerate())
            .map(|(n, slot)| match slot.alive.then(|| slot.node.finish())? {
                Ok(finish) => Some(finish),
                Err(e) => {
                    self.book_failure(n, "finish", &e.to_string());
                    None
                }
            })
            .collect();
        Ok(ClusterReport {
            run: self.journal.finish()?,
            migrations: self.migrations,
            failures: self.failures,
            dropped_records: self.dropped_records,
            node_finishes,
        })
    }

    /// Flushes node `n`'s buffered records; a push failure kills the
    /// node and drops the batch.
    fn flush_node(&mut self, n: usize) {
        if self.buffers[n].is_empty() || !self.nodes[n].alive {
            return;
        }
        if let Err(e) = self.nodes[n].node.push(&self.buffers[n]) {
            let dropped = self.buffers[n].len() as u64;
            self.dropped_records += dropped;
            if let Some(m) = &self.metrics {
                m.dropped.add(dropped);
            }
            self.fail_node(n, "push", &e.to_string());
        }
        self.buffers[n].clear();
    }

    /// Marks node `n` dead and books the failure. Records already on
    /// the node stay there (its engine is simply never heard from
    /// again); future records for its tenants are dropped at routing.
    fn fail_node(&mut self, n: usize, during: &str, error: &str) {
        self.nodes[n].alive = false;
        self.buffers[n].clear();
        self.book_failure(n, during, error);
        if let Some(m) = &self.metrics {
            m.nodes_alive.set(self.nodes_alive() as i64);
        }
    }

    /// Books node `n`'s failure `during` an operation at this epoch.
    fn book_failure(&mut self, n: usize, during: &str, error: &str) {
        self.failures.push(NodeFailure {
            node: n,
            epoch: self.journal.epochs(),
            error: format!("{during}: {error}"),
        });
        if let Some(m) = &self.metrics {
            m.node_failures.inc();
        }
    }

    /// One epoch boundary: flush, export, solve (two-level DP, then the
    /// placement step), (optionally) apply, book. `actuate` is false
    /// only for a trailing partial epoch, which never migrates.
    fn boundary(&mut self, actuate: bool) {
        self.epoch_accesses = 0;
        let tenants = self.tenants();
        let mut timings = StageTimings::default();
        let start_nanos = self.run_start.elapsed().as_nanos() as u64;
        let epoch = self.journal.epochs();
        // One trace id per boundary, propagated to every node over the
        // wire (COST_CURVES/APPLY) and stamped on each node's booked
        // epoch — grep any journal in the cluster for the id and the
        // same physical boundary comes back. Never 0 (wire: untraced).
        let trace = cps_obs::splitmix64(self.trace_nonce ^ epoch as u64).max(1);
        let mut node_spans: Vec<NodeSpan> = Vec::new();

        let ingest_clock = Stopwatch::start();
        for n in 0..self.nodes.len() {
            self.flush_node(n);
        }
        ingest_clock.record(&mut timings, Stage::Ingest);

        // Export every live node's boundary; a dead export kills the
        // node and the epoch continues over the survivors.
        let profile_clock = Stopwatch::start();
        let objective_spec = self.config.objective.name();
        let mut exports: Vec<Option<Vec<cps_engine::TenantCurve>>> = vec![None; self.nodes.len()];
        for (n, slot) in exports.iter_mut().enumerate() {
            if !self.nodes[n].alive {
                continue;
            }
            match self.nodes[n].node.export(&objective_spec, Some(trace)) {
                Ok((curves, profile_nanos)) => {
                    // A daemon's counts are outside input: one slot per
                    // tenant, misses within accesses, and no more
                    // accesses than the epoch routed, so the run's
                    // totals stay exact and never overflow.
                    let served = curves.iter().try_fold(0u64, |sum, c| {
                        (c.counts.misses <= c.counts.accesses).then_some(())?;
                        sum.checked_add(c.counts.accesses)
                    });
                    let routed = self.config.epoch_length as u64;
                    if curves.len() != tenants || served.is_none_or(|s| s > routed) {
                        let why = "counts do not fit the epoch's tenants and records";
                        self.fail_node(n, "export", why);
                        continue;
                    }
                    *slot = Some(curves);
                    node_spans.push(NodeSpan {
                        node: n,
                        timings: StageTimings {
                            profile_nanos,
                            ..StageTimings::default()
                        },
                    });
                }
                Err(e) => self.fail_node(n, "export", &e.to_string()),
            }
        }
        // Each tenant's epoch truth comes from its home node: realized
        // counts verbatim, curve refreshed whenever the home profiler
        // has one (a fresh export always wins over the cache).
        let mut per_tenant = vec![AccessCounts::default(); tenants];
        for t in 0..tenants {
            let home = self.placement[t];
            if let Some(curves) = exports[home].as_mut() {
                per_tenant[t] = curves[t].counts;
                if curves[t].curve.is_some() {
                    self.cached[t] = curves[t].curve.take();
                }
            }
        }
        profile_clock.record(&mut timings, Stage::Profile);

        let solve_clock = Stopwatch::start();
        let solve = self.solve_epoch(&per_tenant, actuate);
        solve_clock.record(&mut timings, Stage::Solve);

        let served = self.logical.clone();
        let predicted = solve.as_ref().map(|s| s.cost);
        let mut actuation = Actuation::NONE;
        if let Some(solve) = solve.filter(|_| actuate) {
            let moved = units_moved(&self.logical, &solve.proposal);
            let apply = solve.rehomed || (moved >= self.config.hysteresis && moved > 0);
            actuation = Actuation {
                repartitioned: apply,
                units_moved: moved,
            };
            if apply {
                self.logical = solve.proposal;
                // Rebuilt from the (possibly just-moved) placement, so
                // every home node serves what the journal records.
                for n in (0..self.nodes.len()).filter(|&n| self.nodes[n].alive) {
                    self.node_alloc[n] = (self.logical.iter().zip(&self.placement))
                        .map(|(&units, &home)| if home == n { units } else { 0 })
                        .collect();
                }
            }
        }

        // Close every live node's boundary with its current (possibly
        // just-updated) physical allocation; an unchanged push is a
        // no-move no-op at the node, but still books its epoch.
        if actuate {
            let actuate_clock = Stopwatch::start();
            for n in 0..self.nodes.len() {
                if !self.nodes[n].alive {
                    continue;
                }
                let target = self.node_alloc[n].clone();
                match self.nodes[n].node.apply(&target, predicted, Some(trace)) {
                    // A node alive here exported this boundary, so its
                    // span exists.
                    Ok((_, actuate_nanos)) => {
                        if let Some(span) = node_spans.iter_mut().find(|s| s.node == n) {
                            span.timings.actuate_nanos = actuate_nanos;
                        }
                    }
                    Err(e) => self.fail_node(n, "apply", &e.to_string()),
                }
            }
            actuate_clock.record(&mut timings, Stage::Actuate);
        }

        let event = EpochEvent {
            epoch,
            start_nanos,
            objective: objective_spec,
            allocation: served,
            accesses: per_tenant.iter().map(|c| c.accesses).collect(),
            misses: per_tenant.iter().map(|c| c.misses).collect(),
            predicted_cost: predicted,
            trace: Some(trace),
            repartitioned: actuation.repartitioned,
            units_moved: actuation.units_moved,
            timings,
            spans: node_spans,
        };
        if let Some(m) = &self.metrics {
            m.epochs.inc();
            m.solve_nanos.add(event.timings.solve_nanos);
            if event.repartitioned {
                m.repartitions.inc();
                m.units_moved.add(event.units_moved as u64);
            }
        }
        self.journal
            .book(&event)
            .expect("exports are bounded by the records routed, nanoseconds by the run clock");
        if let Some(m) = self.migrations.last().filter(|m| m.epoch == epoch) {
            self.journal.book_migration(m);
        }
    }

    /// The solve stage for the epoch just closed: the two-level solve,
    /// then — at an actuated boundary with migration on — the placement
    /// step. `None` mirrors the flat engine's skip conditions (no live
    /// tenant, or a live tenant whose curve has never been seen), or
    /// means the placement has no feasible split and no single move
    /// rescues it.
    fn solve_epoch(&mut self, per_tenant: &[AccessCounts], actuate: bool) -> Option<EpochSolve> {
        let tenants = self.tenants();
        let active: Vec<usize> = (0..tenants)
            .filter(|&t| self.nodes[self.placement[t]].alive)
            .collect();
        if active.is_empty() || active.iter().any(|&t| self.cached[t].is_none()) {
            return None;
        }
        let weights: Vec<f64> = per_tenant.iter().map(|c| c.accesses as f64).collect();
        let shares = access_shares(&weights);
        let cache = self.config.cache();
        let mrcs: Vec<&MissRatioCurve> = active
            .iter()
            .map(|&t| self.cached[t].as_ref().expect("checked above"))
            .collect();
        let active_shares: Vec<f64> = active.iter().map(|&t| shares[t]).collect();
        let costs = build_cost_curves(&mrcs, &cache, &active_shares, &self.config.objective, None);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (i, &t) in active.iter().enumerate() {
            groups[self.placement[t]].push(i);
        }
        let current = self.solve_groups(&costs, &groups);
        let threshold = self.config.migrate_threshold.filter(|_| actuate);
        let moved =
            threshold.and_then(|t| self.rehome(&active, &costs, &groups, current.as_ref(), t));
        let rehomed = moved.is_some();
        let result = moved.or(current)?;
        let mut proposal = vec![0usize; tenants];
        for (&t, &units) in active.iter().zip(&result.allocation) {
            proposal[t] = units;
        }
        Some(EpochSolve {
            proposal,
            cost: result.cost,
            rehomed,
        })
    }

    /// The two-level solve of one grouping under the node caps.
    fn solve_groups(
        &mut self,
        costs: &[CostCurve],
        groups: &[Vec<usize>],
    ) -> Option<TwoLevelResult> {
        solve_two_level(
            &mut self.solver,
            costs,
            groups,
            &self.capacities,
            self.config.total_units,
            &self.config.objective,
        )
    }

    /// The placement step: the single best tenant re-homing, taken when
    /// its relative cost gain clears `threshold`. When `current` is
    /// `None` (the occupied caps cannot absorb the total) any feasible
    /// re-homing is a rescue, taken unconditionally and journaled with
    /// `gain: None`. A taken move updates the routing, books the
    /// migration under the epoch being closed (traffic moves from the
    /// next one) and returns the moved grouping's solve.
    fn rehome(
        &mut self,
        active: &[usize],
        costs: &[CostCurve],
        groups: &[Vec<usize>],
        current: Option<&TwoLevelResult>,
        threshold: f64,
    ) -> Option<TwoLevelResult> {
        let alive: Vec<usize> = (0..self.nodes.len())
            .filter(|&n| self.nodes[n].alive)
            .collect();
        let mut best: Option<(usize, usize, TwoLevelResult)> = None; // (position, to, solve)
        for (i, &t) in active.iter().enumerate() {
            let from = self.placement[t];
            for &to in alive.iter().filter(|&&to| to != from) {
                let mut moved = groups.to_vec();
                moved[from].retain(|&j| j != i);
                moved[to].push(i);
                let Some(candidate) = self.solve_groups(costs, &moved) else {
                    continue;
                };
                if best
                    .as_ref()
                    .is_none_or(|(_, _, b)| candidate.cost < b.cost)
                {
                    best = Some((i, to, candidate));
                }
            }
        }
        let (i, to, candidate) = best?;
        let gain = match current {
            // A rescue has no relative gain to quote.
            None => None,
            Some(current) => {
                let relative = if current.cost.abs() > 0.0 {
                    (current.cost - candidate.cost) / current.cost.abs()
                } else {
                    0.0
                };
                if relative <= threshold {
                    return None;
                }
                Some(relative)
            }
        };
        let tenant = active[i];
        let from = std::mem::replace(&mut self.placement[tenant], to);
        self.migrations.push(MigrationEvent {
            epoch: self.journal.epochs(),
            tenant,
            from,
            to,
            gain,
        });
        if let Some(m) = &self.metrics {
            m.migrations.inc();
        }
        Some(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_engine::EngineConfig;
    use cps_obs::{Journal, MemorySink};

    /// Streams `coordinator`'s journal into memory; call before the
    /// first record.
    fn journaled(coordinator: &mut Coordinator) -> MemorySink {
        let sink = MemorySink::default();
        coordinator.set_journal(sink.clone());
        sink
    }

    /// Finishes `coordinator` and reads its journal back from `sink`;
    /// the report's totals and digest must be the text's.
    fn finish(coordinator: Coordinator, sink: &MemorySink) -> (ClusterReport, Journal) {
        let report = coordinator.finish().expect("a memory sink never fails");
        let journal = sink.journal().expect("the journal parses and validates");
        assert_eq!(report.run.summary, journal.summary, "running totals");
        assert_eq!(report.run.digest, journal.digest(), "running digest");
        assert_eq!(report.migrations, journal.migrations);
        (report, journal)
    }

    fn local_nodes(count: usize, capacity: usize, tenants: usize) -> Vec<ClusterNode> {
        (0..count)
            .map(|_| {
                ClusterNode::local(EngineConfig::new(
                    tenants,
                    CacheConfig::new(capacity, 1),
                    1_000,
                ))
            })
            .collect()
    }

    fn two_tenant_stream(len: usize) -> Vec<(usize, u64)> {
        (0..len as u64)
            .map(|i| (((i % 2) as usize), if i % 2 == 0 { i % 6 } else { i % 40 }))
            .collect()
    }

    #[test]
    fn topology_validation_is_friendly() {
        let cfg = ClusterConfig::new(16, 1, 500);
        let err = Coordinator::new(cfg.clone(), vec![], vec![]).unwrap_err();
        assert!(err.contains("at least one node"), "{err}");

        let err = Coordinator::new(cfg.clone(), local_nodes(2, 16, 2), vec![0]).unwrap_err();
        assert!(err.contains("placement names 1 tenants"), "{err}");

        let err = Coordinator::new(cfg.clone(), local_nodes(2, 16, 2), vec![0, 5]).unwrap_err();
        assert!(err.contains("only 2 nodes"), "{err}");

        let err = Coordinator::new(cfg.clone(), local_nodes(2, 4, 2), vec![0, 1]).unwrap_err();
        assert!(err.contains("cannot host a 16-unit cluster"), "{err}");

        let err = Coordinator::new(
            cfg,
            vec![
                ClusterNode::local(EngineConfig::new(2, CacheConfig::new(16, 2), 500)),
                ClusterNode::local(EngineConfig::new(2, CacheConfig::new(16, 1), 500)),
            ],
            vec![0, 1],
        )
        .unwrap_err();
        assert!(err.contains("2-block units"), "{err}");

        let err = Coordinator::new(
            ClusterConfig::new(16, 1, 500).objective(Objective::MaxMissRatio),
            local_nodes(2, 16, 2),
            vec![0, 1],
        )
        .unwrap_err();
        assert!(
            err.contains("node 0 optimizes `miss-ratio`") && err.contains("`maxmin`"),
            "{err}"
        );
    }

    #[test]
    fn epochs_record_a_valid_logical_partition() {
        let cfg = ClusterConfig::new(16, 1, 400);
        let mut coordinator =
            Coordinator::new(cfg, local_nodes(2, 16, 2), vec![0, 1]).expect("topology");
        let sink = journaled(&mut coordinator);
        coordinator.run(two_tenant_stream(2_000));
        let (report, journal) = finish(coordinator, &sink);
        assert_eq!(journal.epochs.len(), 5);
        for epoch in &journal.epochs {
            assert_eq!(epoch.allocation.iter().sum::<usize>(), 16);
            assert_eq!(epoch.accesses.iter().sum::<u64>(), 400);
        }
        assert!(report.failures.is_empty());
        assert_eq!(report.dropped_records, 0);
        // The loop tenant's cliff gets covered once curves exist.
        let last = journal.epochs.last().unwrap();
        assert!(last.allocation[0] >= 6, "{:?}", last.allocation);
        assert_eq!(journal.header.engine, "cluster");
        assert_eq!(journal.header.shards, 2);
        assert_eq!(journal.summary.accesses, 2_000);
        assert_eq!(journal.render(), sink.text());
    }

    /// The sink's first error is what `finish` returns; the run itself
    /// keeps booking epochs.
    #[test]
    fn a_failing_journal_sink_is_the_finish_error() {
        struct Full;
        impl std::io::Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let cfg = ClusterConfig::new(16, 1, 400);
        let mut coordinator =
            Coordinator::new(cfg, local_nodes(2, 16, 2), vec![0, 1]).expect("topology");
        coordinator.set_journal(Full);
        coordinator.run(two_tenant_stream(2_000));
        assert_eq!(coordinator.epochs_completed(), 5);
        let err = coordinator.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn an_export_past_the_records_routed_fails_its_node() {
        // Node 1 served 900 records the coordinator never routed, so its
        // first export claims more than a 400-record epoch holds.
        let mut nodes = local_nodes(2, 16, 2);
        nodes[1].push(&two_tenant_stream(900)).expect("push");
        let cfg = ClusterConfig::new(16, 1, 400);
        let mut coordinator = Coordinator::new(cfg, nodes, vec![0, 1]).expect("topology");
        let sink = journaled(&mut coordinator);
        coordinator.run(two_tenant_stream(2_000));
        // The survivor's journal validates.
        let (report, _) = finish(coordinator, &sink);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert_eq!(report.failures[0].node, 1);
        assert!(report.failures[0].error.contains("do not fit"));
        assert!(report.dropped_records > 0);
    }

    #[test]
    fn migration_rehomes_a_tenant_when_the_gap_pays() {
        // Node 0 is tight (8 units), node 1 roomy (24). Both tenants
        // start on node 0, where 24 logical units cannot even land —
        // the first migration is a feasibility rescue (gain: None) whose
        // solve is applied at the same boundary — even under a
        // hysteresis no logical move can clear.
        let cfg = ClusterConfig::new(24, 1, 500).migrate(0.01).hysteresis(100);
        let nodes = vec![
            ClusterNode::local(EngineConfig::new(2, CacheConfig::new(8, 1), 500)),
            ClusterNode::local(EngineConfig::new(2, CacheConfig::new(24, 1), 500)),
        ];
        let registry = MetricsRegistry::new();
        let mut coordinator =
            Coordinator::with_metrics(cfg, nodes, vec![0, 0], &registry).expect("topology");
        let sink = journaled(&mut coordinator);
        let stream: Vec<(usize, u64)> = (0..4_000u64)
            .map(|i| (((i % 2) as usize), if i % 2 == 0 { i % 20 } else { i % 5 }))
            .collect();
        coordinator.run(stream);
        let (_, journal) = finish(coordinator, &sink);
        assert!(
            !journal.migrations.is_empty(),
            "the capacity-bound tenant should move"
        );
        let m = &journal.migrations[0];
        assert_eq!(m.from, 0);
        assert_eq!(m.to, 1);
        assert!(m.gain.is_none(), "first move is a feasibility rescue");
        let rescue = &journal.epochs[m.epoch];
        assert!(rescue.predicted_cost.is_some(), "the rescue is the solve");
        assert!(rescue.repartitioned, "a re-homing forces the apply");
        // The moved tenant lands with its budget, not an empty slot.
        let next = &journal.epochs[m.epoch + 1];
        assert!(next.misses[m.tenant] < next.accesses[m.tenant], "{next:?}");
        // Moves, forced applies and the placement step's time count.
        let snapshot = registry.snapshot();
        let counter = |name| match snapshot.get(name) {
            Some(cps_obs::metrics::SampleValue::Counter(v)) => *v as usize,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(counter("cps_cluster_epochs_total"), journal.epochs.len());
        assert_eq!(counter("cps_cluster_records_total"), 4_000);
        assert_eq!(
            counter("cps_cluster_migrations_total"),
            journal.migrations.len()
        );
        assert_eq!(
            counter("cps_cluster_repartitions_total"),
            journal.summary.repartitions
        );
        assert!(counter("cps_cluster_solve_nanos_total") > 0);
        let alive = snapshot.get("cps_cluster_nodes_alive");
        assert!(
            matches!(alive, Some(cps_obs::metrics::SampleValue::Gauge(2))),
            "{alive:?}"
        );
    }
}
