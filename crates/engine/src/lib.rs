//! Online cache repartitioning: the paper's optimizer in a control loop.
//!
//! Sections VII–VIII of the paper argue that optimal partition-sharing is
//! practical online: footprints "can be collected in real time" and the
//! `O(P·C²)` dynamic program is cheap enough to re-run periodically. This
//! crate closes that loop as one [`Engine`] running a three-stage
//! pipeline, one module per stage:
//!
//! 1. **profile** ([`WindowedProfiler`]) — each tenant's accesses feed a
//!    private windowed profiler (exact within the epoch, exponentially
//!    decayed across epochs), which shares its block table with the
//!    tenant's cache partition: one table probe per record serves both;
//! 2. **solve** ([`DpPartitionSolver`]) — the blended per-tenant
//!    miss-ratio curves become DP cost curves (optionally capped by an
//!    equal-split or natural-partition fairness baseline, Section VI)
//!    and a reusable solver finds the optimal allocation;
//! 3. **actuate** ([`HysteresisActuator`]) — if the new allocation moves
//!    at least the hysteresis threshold of units, it is applied to the
//!    tenants' live LRU partitions *gracefully*: growing partitions just
//!    gain headroom, shrinking ones evict only their LRU tail, so hot
//!    data survives reconfiguration.
//!
//! One [`EngineConfig`] describes the whole engine — tenants, cache,
//! epoch, shards, decay, hysteresis, policy and objective — and
//! [`EngineConfig::validate`] is the one place its shape is checked.
//!
//! The engine's shard count picks how an epoch is served, nothing else
//! does: one shard profiles and serves every batch inline as it
//! arrives; more shards buffer one epoch and serve it over threads that
//! each own a fixed set of tenants — their tables: profile windows and
//! partitions of the one cache — so the solve and the journal are the
//! inline engine's (see [`shard`] for the protocol and its determinism
//! guarantee). Either way records reach the tenant tables through one
//! routine, a segment at a time in per-tenant lanes (`lanes`).
//! Every epoch is booked as a `cps_obs` [`EpochEvent`] as it closes:
//! its journal line is rendered once, written to the journal sink
//! ([`Engine::set_journal`]) and handed to the telemetry hook, and only
//! the running totals and digest stay behind — [`Engine::finish`]
//! returns them as a [`RunDigest`], so memory does not grow with the
//! run.
//! Operations a caller can get wrong from outside the process —
//! a batch naming an unknown tenant, a malformed pushed-down
//! allocation, external clocking on a sharded engine — are refused with
//! a typed [`EngineError`], never a panic.
//!
//! The access stream is any `(tenant, block)` iterator;
//! `cps_trace::InterleavedStream` produces one lazily from live
//! workload streams, and `CoTrace::tenant_accesses` adapts a
//! materialized co-run trace.
//!
//! [`WindowedProfiler`]: cps_hotl::windowed::WindowedProfiler

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod actuate;
pub(crate) mod lanes;
pub(crate) mod obs;
pub mod profile;
pub mod shard;
pub mod solve;

pub use actuate::{units_moved, Actuation, HysteresisActuator};
pub use profile::window_solo_profiles;
pub use solve::{DpPartitionSolver, SolveInput, SolveOutcome};
// The observability vocabulary every engine record speaks.
pub use cps_obs::{
    EpochEvent, Journal, MemorySink, MetricsRegistry, RunDigest, RunHeader, Stage, StageTimings,
};
// `Block` appears in every `record_access`/`run` signature; re-export
// it so callers (cps-cluster) can name it without a cps-trace edge.
pub use cps_trace::Block;

use crate::lanes::TenantTable;
use crate::obs::EngineMetrics;
use cps_cachesim::AccessCounts;
use cps_core::{CacheConfig, DpCells, Objective};
use cps_hotl::persist::MAX_MRC_SAMPLES;
use cps_hotl::MissRatioCurve;
use cps_obs::{JournalStream, Stopwatch};
use std::io::Write;
use std::time::Instant;

/// Tenant index into the engine's tenant tables.
pub type TenantId = usize;

/// Records [`Engine::run`] collects from its iterator before handing
/// them to the serving routine as one slice.
const RUN_CHUNK: usize = 4096;

/// The engine name a journal run header carries for a shard count:
/// `single` for one shard, `sharded` for more.
pub fn engine_name(shards: usize) -> &'static str {
    if shards > 1 {
        "sharded"
    } else {
        "single"
    }
}

/// Live-telemetry hook fired with each booked epoch event and its
/// journal line, on the thread that closes the epoch (see
/// [`Engine::set_epoch_hook`]).
pub type EpochHook = Box<dyn FnMut(&EpochEvent, &str) + Send>;

/// One tenant's exported state at an externally clocked epoch boundary
/// (see [`Engine::export_cost_curves`]): the realized counts of the
/// epoch just closed and the profiler's blended miss-ratio curve after
/// folding that window. A cluster coordinator pulls these from every
/// node, weights the curves by **global** access shares, and solves the
/// two-level partition itself.
#[derive(Clone, Debug)]
pub struct TenantCurve {
    /// Hit/miss counts realized by this tenant in the closed epoch.
    pub counts: AccessCounts,
    /// Blended miss-ratio curve (`None` if the tenant has never been
    /// observed by this engine).
    pub curve: Option<MissRatioCurve>,
}

/// Why an [`Engine`] operation was refused. Everything here is
/// reachable from outside the process (a wire frame, a coordinator's
/// reply), so none of it panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A pushed record named a tenant the engine was not built for.
    /// The batch was rejected whole — no prefix of it was ingested.
    TenantOutOfRange {
        /// The offending tenant id.
        tenant: TenantId,
        /// Number of tenants the engine serves.
        tenants: usize,
    },
    /// The engine cannot perform the requested control operation at
    /// its shard count (externally clocked epochs need one shard).
    Unsupported {
        /// The refused operation.
        op: &'static str,
    },
    /// A pushed allocation had the wrong shape: not one budget per
    /// tenant, or a total exceeding the cache's capacity.
    BadAllocation {
        /// Number of tenants the engine serves.
        tenants: usize,
        /// The engine's cache capacity in units.
        units: usize,
    },
    /// [`Engine::apply_allocation`] arrived with no epoch boundary
    /// open — it must follow an [`Engine::export_cost_curves`].
    NoOpenEpoch,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::TenantOutOfRange { tenant, tenants } => {
                write!(f, "tenant {tenant} out of range (engine has {tenants})")
            }
            EngineError::Unsupported { op } => {
                write!(f, "a sharded engine does not support {op}")
            }
            EngineError::BadAllocation { tenants, units } => {
                write!(
                    f,
                    "allocation must give one budget to each of {tenants} tenants \
                     and fit {units} units"
                )
            }
            EngineError::NoOpenEpoch => {
                write!(f, "no epoch boundary open (apply must follow an export)")
            }
        }
    }
}

/// Which allocation policy the epoch re-solve applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Unconstrained optimal partitioning (Eq. 15).
    Optimal,
    /// Optimal subject to the equal-split baseline: no tenant may miss
    /// more than it would with `1/P` of the cache (Section VI).
    EqualBaseline,
    /// Optimal subject to the natural-partition baseline: no tenant may
    /// miss more than under free-for-all sharing (Section VI).
    NaturalBaseline,
}

impl Policy {
    /// The policy's name as `--baseline` and journal run headers spell
    /// it: `none`, `equal` or `natural`.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Optimal => "none",
            Policy::EqualBaseline => "equal",
            Policy::NaturalBaseline => "natural",
        }
    }

    /// Inverse of [`Policy::name`]; `None` for any other string.
    pub fn parse(name: &str) -> Option<Policy> {
        use Policy::*;
        let all = [Optimal, EqualBaseline, NaturalBaseline];
        all.into_iter().find(|p| p.name() == name)
    }
}

/// Most tenants one engine serves. Every tenant owns a profiler, a
/// cache partition and a DP row, so the bound keeps a shape read from
/// a flag or a frame from sizing tables past memory; the largest
/// tenant count the experiments plan for is 256.
pub const MAX_TENANTS: usize = 1 << 16;

/// Most stream shards one engine fans an epoch out over; each runs a
/// worker thread serving its own tenants of the one cache.
pub const MAX_SHARDS: usize = 256;

/// Why [`EngineConfig::validate`] (or [`check_cache`]) refused a
/// shape: the knob, and what is wrong with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The knob, named by the stem of the `cps` flag that sets it:
    /// `tenants`, `shards`, `units`, `bpu`, `epoch`, `decay` or
    /// `objective`.
    pub field: &'static str,
    /// What is wrong with its value.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

fn refuse<T>(field: &'static str, reason: String) -> Result<T, ConfigError> {
    Err(ConfigError { field, reason })
}

/// A cache of `units` × `bpu` blocks, refused unless it holds at least
/// one block and fewer than [`MAX_MRC_SAMPLES`] — every tenant's
/// miss-ratio curve keeps one sample per block. This is the cache rule
/// of [`EngineConfig::validate`], for callers that size a cache without
/// building an engine.
pub fn check_cache(units: usize, bpu: usize) -> Result<CacheConfig, ConfigError> {
    match units.checked_mul(bpu) {
        _ if units == 0 => refuse("units", "the cache needs at least one block".into()),
        _ if bpu == 0 => refuse("bpu", "the cache needs at least one block".into()),
        Some(blocks) if blocks < MAX_MRC_SAMPLES => Ok(CacheConfig {
            units,
            blocks_per_unit: bpu,
        }),
        _ => refuse(
            "units",
            format!(
                "{units} x {bpu} blocks reaches the {MAX_MRC_SAMPLES}-block bound of a \
                 miss-ratio curve"
            ),
        ),
    }
}

/// Everything that decides which engine is built: its shape (tenants,
/// cache, epoch, shards) and its control knobs. [`validate`] holds
/// every rule a shape must pass; [`Engine::new`] asserts it, and the
/// two outside doors — `cps` flags and the wire's HELLO_ACK — check it
/// before building anything.
///
/// [`validate`]: EngineConfig::validate
///
/// # Examples
///
/// ```
/// use cps_core::CacheConfig;
/// use cps_engine::EngineConfig;
/// let cfg = EngineConfig::new(4, CacheConfig::new(64, 2), 10_000)
///     .shards(2)
///     .decay(0.3)
///     .hysteresis(4);
/// assert_eq!(cfg.epoch_length, 10_000);
/// assert!(cfg.validate().is_ok());
/// assert_eq!(cfg.shards(0).validate().unwrap_err().field, "shards");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct EngineConfig {
    /// Number of tenants, `1..=MAX_TENANTS`.
    pub tenants: usize,
    /// Cache geometry shared by all tenants.
    pub cache: CacheConfig,
    /// Accesses (across all tenants) per epoch.
    pub epoch_length: usize,
    /// Stream shards, `1..=MAX_SHARDS`: one serves every batch inline,
    /// more fan each epoch out over up to that many threads, one per
    /// tenant set (see [`shard`]).
    pub shards: usize,
    /// Weight of the past in each tenant's windowed profile, in
    /// `[0, 1)` (see `cps_hotl::windowed::ProfilerMode::Windowed`).
    pub decay: f64,
    /// Minimum units that must move before a new allocation is applied;
    /// `1` applies every change, larger values add hysteresis.
    pub min_repartition_units: usize,
    /// Allocation policy applied at each re-solve.
    pub policy: Policy,
    /// The partitioning objective (cost construction + accumulation).
    pub objective: Objective,
}

impl EngineConfig {
    /// A one-shard, throughput-optimal engine for `tenants` tenants with
    /// windowed profiling (decay 0.5) and no hysteresis.
    pub fn new(tenants: usize, cache: CacheConfig, epoch_length: usize) -> Self {
        EngineConfig {
            tenants,
            cache,
            epoch_length,
            shards: 1,
            decay: 0.5,
            min_repartition_units: 1,
            policy: Policy::Optimal,
            objective: Objective::MissRatioSum,
        }
    }

    /// Sets the stream shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the allocation policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the partitioning objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the profiler decay.
    pub fn decay(mut self, decay: f64) -> Self {
        self.decay = decay;
        self
    }

    /// Sets the hysteresis threshold in units.
    pub fn hysteresis(mut self, min_units: usize) -> Self {
        self.min_repartition_units = min_units;
        self
    }

    /// Every rule an engine's shape must pass, each refusal naming its
    /// knob: tenants in `1..=MAX_TENANTS`, shards in `1..=MAX_SHARDS`,
    /// the cache as [`check_cache`] bounds it, an epoch of at least one
    /// access, a decay in `[0, 1)`, and an objective that fits the
    /// tenant count.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let (tenants, shards) = (self.tenants, self.shards);
        if !(1..=MAX_TENANTS).contains(&tenants) {
            return refuse(
                "tenants",
                format!("{tenants} tenants; an engine serves 1 to {MAX_TENANTS}"),
            );
        }
        if !(1..=MAX_SHARDS).contains(&shards) {
            return refuse(
                "shards",
                format!("{shards} stream shards; an engine runs 1 to {MAX_SHARDS}"),
            );
        }
        check_cache(self.cache.units, self.cache.blocks_per_unit)?;
        if self.epoch_length == 0 {
            return refuse("epoch", "an epoch needs at least 1 access".into());
        }
        if !(0.0..1.0).contains(&self.decay) {
            return refuse("decay", format!("{} lies outside [0, 1)", self.decay));
        }
        self.objective
            .validate_for(tenants)
            .or_else(|reason| refuse("objective", reason))
    }
}

/// The epoch machinery under [`Engine`]: profile stage, solve stage,
/// and the record keeping. Both serving paths (inline and fanned out)
/// close their epochs through this one implementation, which is what
/// makes their control decisions identical by construction.
struct EpochCore {
    config: EngineConfig,
    /// The objective's spec, as every booked epoch names it.
    objective: String,
    solver: DpPartitionSolver,
    /// Where booked epochs go; keeps their count, totals and digest.
    journal: JournalStream,
    /// Registered instrument handles; `None` runs fully uninstrumented.
    metrics: Option<EngineMetrics>,
    /// Run clock anchor — epoch `start` timestamps are nanoseconds
    /// since this instant (journal v3).
    run_start: Instant,
    /// When the *current* (still open) epoch began serving, on the run
    /// clock. Epoch 0 starts at 0; each close re-anchors.
    epoch_start_nanos: u64,
    /// Live-telemetry hook: called with each epoch event as it is
    /// booked. `None` costs nothing.
    emit: Option<EpochHook>,
}

impl EpochCore {
    fn new(config: EngineConfig, metrics: Option<EngineMetrics>) -> Self {
        EpochCore {
            solver: DpPartitionSolver::new(&config),
            objective: config.objective.name(),
            journal: JournalStream::default(),
            metrics,
            run_start: Instant::now(),
            epoch_start_nanos: 0,
            emit: None,
            config,
        }
    }

    /// Runs the epoch-boundary pipeline: totals, natural-baseline
    /// snapshot, window close, re-solve, and (when `actuate`)
    /// application of the chosen allocation. Books the epoch.
    ///
    /// `pre` carries stage time the caller already attributed to this
    /// epoch (the sharded fan-out, which happens before the core sees
    /// the boundary); the core adds its own profile, solve, and actuate
    /// spans on top.
    fn close_epoch(
        &mut self,
        served_allocation: Vec<usize>,
        per_tenant: Vec<AccessCounts>,
        pre: StageTimings,
        actuator: &mut HysteresisActuator,
        actuate: bool,
    ) {
        let mut timings = pre;

        // Natural-baseline inputs need the exact epoch windows, captured
        // before `end_window` folds and closes them.
        let profile_clock = Stopwatch::start();
        let window_profiles = if self.config.policy == Policy::NaturalBaseline {
            Some(window_solo_profiles(
                actuator.tables().iter().map(TenantTable::profiler),
                &per_tenant,
                self.config.cache.blocks(),
            ))
        } else {
            None
        };
        let mrcs: Vec<Option<MissRatioCurve>> = actuator
            .tables_mut()
            .iter_mut()
            .map(TenantTable::end_window)
            .collect();
        profile_clock.record(&mut timings, Stage::Profile);

        let outcome = if mrcs.iter().all(|m| m.is_some()) {
            let mrcs: Vec<MissRatioCurve> = mrcs.into_iter().flatten().collect();
            // The solve span covers the whole stage — baseline caps,
            // cost-curve building, and the DP — so a skipped solve is
            // exactly 0 and a performed one is strictly positive.
            let solve_clock = Stopwatch::start();
            let outcome = self.solver.solve(SolveInput {
                mrcs: &mrcs,
                per_tenant: &per_tenant,
                window_profiles: window_profiles.as_deref(),
            });
            solve_clock.record(&mut timings, Stage::Solve);
            if let Some(metrics) = &self.metrics {
                metrics.observe_dp_cells(outcome.dp_cells);
            }
            outcome
        } else {
            // Some tenant has never been seen; keep the allocation until
            // every curve exists.
            SolveOutcome {
                predicted_cost: None,
                dp_cells: DpCells::default(),
                allocation: None,
            }
        };

        // A solver must emit an exact partition of the cache; anything
        // else would silently skew hysteresis accounting downstream
        // (see `units_moved`).
        if let Some(units) = &outcome.allocation {
            debug_assert_eq!(
                units.iter().sum::<usize>(),
                self.config.cache.units,
                "solver allocation must sum to capacity"
            );
        }

        let actuation = match outcome.allocation {
            Some(units) if actuate => {
                let actuate_clock = Stopwatch::start();
                let actuation = actuator.apply(&units);
                actuate_clock.record(&mut timings, Stage::Actuate);
                actuation
            }
            _ => Actuation::NONE,
        };
        self.book(
            served_allocation,
            per_tenant,
            timings,
            outcome.predicted_cost,
            actuation,
            None,
        );
    }

    /// Books a finished epoch — solved here, or externally clocked
    /// (profiled at export time, solved at the coordinator, `actuation`
    /// saying what the local cache did with the pushed-down allocation)
    /// — into the journal, fires the telemetry hook with the same
    /// rendered line, and re-anchors the run clock so the *next*
    /// epoch's `start` is the moment this boundary completed.
    fn book(
        &mut self,
        served_allocation: Vec<usize>,
        per_tenant: Vec<AccessCounts>,
        timings: StageTimings,
        predicted_cost: Option<f64>,
        actuation: Actuation,
        trace: Option<u64>,
    ) {
        let event = EpochEvent {
            epoch: self.journal.epochs(),
            start_nanos: self.epoch_start_nanos,
            objective: self.objective.clone(),
            allocation: served_allocation,
            accesses: per_tenant.iter().map(|c| c.accesses).collect(),
            misses: per_tenant.iter().map(|c| c.misses).collect(),
            predicted_cost,
            trace,
            repartitioned: actuation.repartitioned,
            units_moved: actuation.units_moved,
            timings,
            spans: Vec::new(),
        };
        if let Some(metrics) = &self.metrics {
            metrics.observe_epoch(&event);
        }
        let line = self
            .journal
            .book(&event)
            .expect("served counts and nanoseconds fit in u64");
        self.epoch_start_nanos = self.run_start.elapsed().as_nanos() as u64;
        if let Some(emit) = &mut self.emit {
            emit(&event, &line);
        }
    }
}

/// The epoch-driven online repartitioning controller — the stage
/// pipeline over one access stream.
///
/// `shards` decides how an epoch is served. With one shard every access
/// is profiled and served inline, as it arrives. With more, the engine
/// buffers one epoch and fans it out over up to `shards` threads, each
/// serving its own tenants (see [`shard`]). Either way there is one
/// live cache, and the journal is the same at every shard count.
///
/// # Examples
///
/// ```
/// use cps_core::CacheConfig;
/// use cps_engine::{Engine, EngineConfig, MemorySink};
/// use cps_trace::{InterleavedStream, WorkloadSpec};
///
/// let feed = || {
///     InterleavedStream::new(
///         vec![
///             WorkloadSpec::SequentialLoop { working_set: 20 }.stream(1),
///             WorkloadSpec::UniformRandom { region: 200 }.stream(2),
///         ],
///         vec![1.0, 1.0],
///     )
/// };
/// let cfg = EngineConfig::new(2, CacheConfig::new(64, 1), 2_000);
/// let sink = MemorySink::default();
/// let mut inline = Engine::new(cfg.clone());
/// inline.set_journal(sink.clone());
/// inline.run(feed().take(20_000));
/// let mut sharded = Engine::new(cfg.shards(4));
/// sharded.run(feed().take(20_000));
/// let (a, b) = (inline.finish().unwrap(), sharded.finish().unwrap());
/// assert_eq!(a.summary.epochs, 10);
/// // The loop tenant ends up with its working set covered...
/// let journal = sink.journal().unwrap();
/// assert!(journal.epochs.last().unwrap().allocation[0] >= 20);
/// // ...on the same run at any shard count, hits and misses included.
/// assert_eq!(a.digest, b.digest);
/// assert_eq!(a.digest, journal.digest());
/// ```
pub struct Engine {
    core: EpochCore,
    /// The one serving cache.
    actuator: HysteresisActuator,
    /// The open epoch's records awaiting fan-out. Stays empty with one
    /// shard, where every batch is served on arrival.
    buffer: Vec<(TenantId, Block)>,
    /// Per-tenant scratch of the inline serving routine (see `lanes`).
    lanes: Vec<Vec<Block>>,
    epoch_accesses: usize,
    /// Inline serving time of the open epoch (one shard): booked as its
    /// ingest stage.
    ingest_nanos: u64,
    pending_external: Option<PendingBoundary>,
}

/// State parked between [`Engine::export_cost_curves`] and the matching
/// [`Engine::apply_allocation`]: the epoch just closed is not booked
/// until the coordinator answers (or the boundary is abandoned by a new
/// export or `finish`).
struct PendingBoundary {
    served_allocation: Vec<usize>,
    per_tenant: Vec<AccessCounts>,
    timings: StageTimings,
}

impl Engine {
    /// Creates the engine `config` describes, starting from an equal
    /// split of the cache.
    ///
    /// # Panics
    /// Panics if `config` fails [`EngineConfig::validate`].
    pub fn new(config: EngineConfig) -> Self {
        Self::with_metrics(config, None)
    }

    /// Like [`new`](Self::new), with instruments registered in
    /// `registry` when one is given: access and hit counters,
    /// per-stage time counters, solve latency and epoch-size
    /// histograms, and per-tenant allocation gauges — all booked at
    /// epoch boundaries, none on the record path.
    ///
    /// # Panics
    /// Panics if `config` fails [`EngineConfig::validate`].
    pub fn with_metrics(config: EngineConfig, registry: Option<&MetricsRegistry>) -> Self {
        if let Err(e) = config.validate() {
            panic!("bad engine config: {e}");
        }
        let metrics = registry.map(|r| EngineMetrics::register(r, config.tenants));
        Engine {
            actuator: HysteresisActuator::new(&config),
            buffer: Vec::new(),
            lanes: vec![Vec::new(); config.tenants],
            core: EpochCore::new(config, metrics),
            epoch_accesses: 0,
            ingest_nanos: 0,
            pending_external: None,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.core.config
    }

    /// Current allocation in units.
    pub fn allocation_units(&self) -> &[usize] {
        self.actuator.allocation_units()
    }

    /// Epochs completed so far.
    pub fn epochs_completed(&self) -> usize {
        self.core.journal.epochs()
    }

    /// The header of this engine's journal: its geometry, epoch length,
    /// policy and objective, tenant and shard counts.
    pub fn run_header(&self) -> RunHeader {
        let config = &self.core.config;
        RunHeader {
            engine: engine_name(config.shards).to_string(),
            tenants: config.tenants,
            units: config.cache.units,
            bpu: config.cache.blocks_per_unit,
            epoch_length: config.epoch_length,
            shards: config.shards,
            policy: config.policy.name().to_string(),
            objective: self.core.objective.clone(),
        }
    }

    /// Ingests one access. Crossing the epoch boundary triggers the
    /// snapshot → re-solve → repartition step. The hit/miss outcome is
    /// not returned — with several shards the access is only served at
    /// the epoch boundary — so consult the journal for realized counts.
    ///
    /// # Panics
    /// Panics if `tenant` is out of range; [`push_batch`](Self::push_batch)
    /// is the checked entry point for records from outside the process.
    pub fn record_access(&mut self, tenant: TenantId, block: Block) {
        self.ingest(&[(tenant, block)]);
    }

    /// Drains an interleaved stream through the engine, a chunk of at
    /// most 4096 records at a time. Bound infinite streams with
    /// `Iterator::take`.
    ///
    /// # Panics
    /// Panics if a record's tenant is out of range.
    pub fn run(&mut self, accesses: impl IntoIterator<Item = (TenantId, Block)>) {
        let mut accesses = accesses.into_iter();
        let mut chunk = Vec::with_capacity(RUN_CHUNK);
        loop {
            chunk.clear();
            chunk.extend(accesses.by_ref().take(RUN_CHUNK));
            self.ingest(&chunk);
            if chunk.len() < RUN_CHUNK {
                break;
            }
        }
    }

    /// [`push_batch`](Self::push_batch) for in-process callers, whose
    /// out-of-range tenant is a bug.
    fn ingest(&mut self, records: &[(TenantId, Block)]) {
        self.push_batch(records).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Ingests one batch of accesses, in order — the single way records
    /// enter the engine. Validates every record's tenant *before*
    /// ingesting anything, so a rejected batch leaves the engine
    /// untouched; then cuts the batch at each epoch boundary and either
    /// serves the segment in per-tenant lanes (one shard) or buffers it
    /// for the boundary's fan-out, which serves it the same way.
    pub fn push_batch(&mut self, mut records: &[(TenantId, Block)]) -> Result<(), EngineError> {
        let tenants = self.core.config.tenants;
        // A fold, not `find`: without the early exit the check
        // vectorises; the rare refusal then looks the record up.
        if records
            .iter()
            .fold(false, |bad, &(t, _)| bad | (t >= tenants))
        {
            let &(tenant, _) = records
                .iter()
                .find(|&&(t, _)| t >= tenants)
                .expect("the fold saw one");
            return Err(EngineError::TenantOutOfRange { tenant, tenants });
        }
        while !records.is_empty() {
            let room = self.core.config.epoch_length - self.epoch_accesses;
            let (segment, rest) = records.split_at(room.min(records.len()));
            if self.core.config.shards == 1 {
                let clock = Stopwatch::start();
                let mut tenants: Vec<_> = self.actuator.tables_mut().iter_mut().map(Some).collect();
                lanes::serve_segment(segment, &mut self.lanes, &mut tenants);
                self.ingest_nanos += clock.elapsed_nanos();
            } else {
                self.buffer.extend_from_slice(segment);
            }
            self.epoch_accesses += segment.len();
            if self.epoch_accesses == self.core.config.epoch_length {
                self.end_epoch(true);
            }
            records = rest;
        }
        Ok(())
    }

    /// Finishes the run, flushing any partial final epoch: the summary
    /// line goes to the journal sink, and the run's totals and
    /// canonical digest come back — or the first error the sink
    /// returned.
    ///
    /// A trailing epoch shorter than `epoch_length` is profiled and
    /// re-solved like any other (its counts enter the totals and its
    /// event carries the solve's prediction and latency) but never
    /// actuated — there is no next epoch for a new allocation to serve.
    /// A dangling external boundary is booked as unactuated.
    pub fn finish(mut self) -> std::io::Result<RunDigest> {
        self.flush_pending();
        if self.epoch_accesses > 0 {
            self.end_epoch(false);
        }
        self.core.journal.finish()
    }

    /// Closes the current epoch under **external clocking** and exports
    /// per-tenant state for an out-of-engine solve: realized counts and
    /// the profiler's blended miss-ratio curve. The closed epoch is
    /// parked, not yet booked — the caller completes the boundary with
    /// [`apply_allocation`](Self::apply_allocation), which records the
    /// epoch with the coordinator's verdict. An export while a boundary
    /// is already open first books the open one as unactuated.
    ///
    /// A cluster coordinator builds such engines with an effectively
    /// infinite `epoch_length` so the internal clock never fires, and
    /// drives every boundary through this pair. Only a one-shard engine
    /// can be clocked this way; others refuse with
    /// [`EngineError::Unsupported`].
    pub fn export_cost_curves(&mut self) -> Result<Vec<TenantCurve>, EngineError> {
        self.require_one_shard()?;
        self.flush_pending();
        let served_allocation = self.actuator.allocation_units().to_vec();
        let per_tenant = self.actuator.take_counts();
        self.epoch_accesses = 0;
        let mut timings = StageTimings {
            ingest_nanos: std::mem::take(&mut self.ingest_nanos),
            ..StageTimings::default()
        };
        let profile_clock = Stopwatch::start();
        let exported = per_tenant
            .iter()
            .zip(self.actuator.tables_mut())
            .map(|(&counts, table)| TenantCurve {
                counts,
                curve: table.end_window(),
            })
            .collect();
        profile_clock.record(&mut timings, Stage::Profile);
        self.pending_external = Some(PendingBoundary {
            served_allocation,
            per_tenant,
            timings,
        });
        Ok(exported)
    }

    /// Completes an externally clocked boundary opened by
    /// [`export_cost_curves`](Self::export_cost_curves): actuates
    /// `target` through the engine's own hysteresis stage and books the
    /// parked epoch with the coordinator's `predicted_cost` and `trace`
    /// id. Unlike the internal solve path, `target` may sum to *less*
    /// than physical capacity — a coordinator can run a node on a
    /// budget — but never more.
    pub fn apply_allocation(
        &mut self,
        target: &[usize],
        predicted_cost: Option<f64>,
        trace: Option<u64>,
    ) -> Result<Actuation, EngineError> {
        let (tenants, units) = (self.core.config.tenants, self.core.config.cache.units);
        if target.len() != tenants || target.iter().sum::<usize>() > units {
            return Err(EngineError::BadAllocation { tenants, units });
        }
        self.require_one_shard()?;
        let pending = self
            .pending_external
            .take()
            .ok_or(EngineError::NoOpenEpoch)?;
        let mut timings = pending.timings;
        let actuate_clock = Stopwatch::start();
        let actuation = self.actuator.apply(target);
        actuate_clock.record(&mut timings, Stage::Actuate);
        self.core.book(
            pending.served_allocation,
            pending.per_tenant,
            timings,
            predicted_cost,
            actuation,
            trace,
        );
        Ok(actuation)
    }

    /// Registers a live-telemetry hook fired with each booked epoch
    /// event and its journal line, on the thread that closes the epoch
    /// (the caller of [`record_access`](Self::record_access) or of the
    /// external-clocking pair). Replaces any prior hook; an engine
    /// without one pays nothing.
    pub fn set_epoch_hook(&mut self, hook: EpochHook) {
        self.core.emit = Some(hook);
    }

    /// Streams the journal into `sink`: the run header at once, each
    /// epoch line as the epoch is booked (flushed, so a killed process
    /// leaves a valid prefix), the summary at [`finish`](Self::finish).
    /// Call it before the first record.
    pub fn set_journal(&mut self, sink: impl Write + Send + 'static) {
        let header = self.run_header();
        self.core.journal.attach(&header, Box::new(sink));
    }

    /// External clocking serves every batch on arrival, which only a
    /// one-shard engine does; a sharded engine serves at its own epoch
    /// boundary.
    fn require_one_shard(&self) -> Result<(), EngineError> {
        if self.core.config.shards > 1 {
            return Err(EngineError::Unsupported {
                op: "external epoch clocking",
            });
        }
        Ok(())
    }

    /// Books a dangling external boundary as an unactuated epoch.
    fn flush_pending(&mut self) {
        if let Some(pending) = self.pending_external.take() {
            self.core.book(
                pending.served_allocation,
                pending.per_tenant,
                pending.timings,
                None,
                Actuation::NONE,
                None,
            );
        }
    }

    /// One epoch boundary: serve the buffered epoch first when sharded,
    /// collect the epoch's counts, solve once, and — unless this is the
    /// partial final epoch — apply the decision to the cache.
    fn end_epoch(&mut self, actuate: bool) {
        self.flush_pending();
        // Inline serving is the ingest span; a fanned-out epoch's
        // serving is booked as profile by `fan_out`.
        let mut pre = StageTimings {
            ingest_nanos: std::mem::take(&mut self.ingest_nanos),
            ..StageTimings::default()
        };
        if self.core.config.shards > 1 {
            pre = shard::fan_out(
                &self.buffer,
                self.core.config.shards,
                self.actuator.tables_mut(),
            );
            self.buffer.clear();
        }
        self.epoch_accesses = 0;
        let served_allocation = self.actuator.allocation_units().to_vec();
        let per_tenant = self.actuator.take_counts();
        self.core.close_epoch(
            served_allocation,
            per_tenant,
            pre,
            &mut self.actuator,
            actuate,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_obs::{parse_journal_line, JournalLine};
    use cps_trace::{interleave_proportional, Trace, WorkloadSpec};

    fn feed(engine: &mut Engine, traces: &[Trace], rates: &[f64], total: usize) {
        let refs: Vec<&Trace> = traces.iter().collect();
        let co = interleave_proportional(&refs, rates, total);
        engine.run(co.tenant_accesses());
    }

    /// A fresh engine journaling into memory, and the sink to read.
    pub(crate) fn recorded(cfg: EngineConfig) -> (Engine, MemorySink) {
        let sink = MemorySink::default();
        let mut engine = Engine::new(cfg);
        engine.set_journal(sink.clone());
        (engine, sink)
    }

    /// Finishes `engine` and reads its journal back from `sink`; the
    /// finish digest and totals must be the text's.
    pub(crate) fn finish(engine: Engine, sink: &MemorySink) -> Journal {
        let end = engine.finish().expect("a memory sink never fails");
        let journal = sink.journal().expect("the journal parses and validates");
        assert_eq!(end.digest, journal.digest(), "running digest");
        assert_eq!(end.summary, journal.summary, "running totals");
        journal
    }

    #[test]
    fn engine_learns_a_cliff_and_feeds_it() {
        // Tenant 0: 24-block loop (cliff at 24). Tenant 1: uniform over
        // 200 (shallow ramp). Optimal gives the loop its working set.
        let t0 = WorkloadSpec::SequentialLoop { working_set: 24 }.generate(40_000, 1);
        let t1 = WorkloadSpec::UniformRandom { region: 200 }.generate(40_000, 2);
        let cfg = EngineConfig::new(2, CacheConfig::new(64, 1), 4_000);
        let (mut engine, sink) = recorded(cfg);
        feed(&mut engine, &[t0, t1], &[1.0, 1.0], 40_000);
        let report = finish(engine, &sink);
        assert_eq!(report.epochs.len(), 10);
        let last = report.epochs.last().unwrap();
        assert!(
            last.allocation[0] >= 24,
            "loop tenant got {} < 24 units",
            last.allocation[0]
        );
        // Once converged the loop tenant stops missing.
        assert!((last.misses[0] as f64) < 0.05 * last.accesses[0] as f64);
        assert!(report.summary.repartitions >= 1);
    }

    #[test]
    fn hysteresis_suppresses_small_moves() {
        let t0 = WorkloadSpec::UniformRandom { region: 100 }.generate(30_000, 3);
        let t1 = WorkloadSpec::UniformRandom { region: 100 }.generate(30_000, 4);
        let loose = EngineConfig::new(2, CacheConfig::new(64, 1), 3_000);
        let tight = loose.clone().hysteresis(64); // can never move 64 of 64 units
        let (mut a, sink_a) = recorded(loose);
        let (mut b, sink_b) = recorded(tight);
        feed(&mut a, &[t0.clone(), t1.clone()], &[1.0, 1.0], 30_000);
        feed(&mut b, &[t0, t1], &[1.0, 1.0], 30_000);
        let ra = finish(a, &sink_a);
        let rb = finish(b, &sink_b);
        assert_eq!(rb.summary.repartitions, 0, "threshold 64 blocks all moves");
        // Same stream, same solves — only the application differs, so the
        // suppressed engine still *records* the moves it declined.
        assert_eq!(ra.epochs.len(), rb.epochs.len());
        assert!(rb.epochs.iter().all(|e| !e.repartitioned));
        assert!(
            rb.epochs.iter().all(|e| e.allocation == vec![32, 32]),
            "suppressed engine keeps the equal split"
        );
    }

    #[test]
    fn partial_final_epoch_is_flushed_profiled_and_solved() {
        let t0 = WorkloadSpec::SequentialLoop { working_set: 8 }.generate(2_500, 1);
        let cfg = EngineConfig::new(1, CacheConfig::new(16, 1), 1_000);
        let (mut engine, sink) = recorded(cfg);
        engine.run(t0.blocks.iter().map(|&b| (0usize, b)));
        let report = finish(engine, &sink);
        assert_eq!(report.epochs.len(), 3, "2 full + 1 partial epoch");
        let partial = &report.epochs[2];
        assert_eq!(partial.accesses, vec![500]);
        let total: u64 = report.epochs.iter().map(|e| e.accesses[0]).sum();
        assert_eq!(total, 2_500);
        assert_eq!(report.summary.accesses, 2_500);
        // The partial epoch goes through the full profile + solve
        // pipeline (its 500 accesses are not dropped from the blended
        // curve) but is never actuated.
        assert!(partial.predicted_cost.is_some(), "partial epoch solved");
        assert!(partial.timings.solve_nanos > 0);
        assert!(!partial.repartitioned);
        assert_eq!(partial.units_moved, 0);
    }

    #[test]
    fn baseline_policies_stay_feasible_and_run() {
        let t0 = WorkloadSpec::SequentialLoop { working_set: 20 }.generate(24_000, 1);
        let t1 = WorkloadSpec::Zipfian {
            region: 80,
            alpha: 0.9,
        }
        .generate(24_000, 2);
        for policy in [Policy::EqualBaseline, Policy::NaturalBaseline] {
            let cfg = EngineConfig::new(2, CacheConfig::new(64, 1), 4_000).policy(policy);
            let (mut engine, sink) = recorded(cfg);
            feed(&mut engine, &[t0.clone(), t1.clone()], &[1.0, 1.0], 24_000);
            let report = finish(engine, &sink);
            assert_eq!(report.epochs.len(), 6, "{policy:?}");
            // Every boundary with all curves present must have solved.
            assert!(
                report.epochs.iter().any(|e| e.timings.solve_nanos > 0),
                "{policy:?} never solved"
            );
        }
    }

    #[test]
    fn totals_are_sum_of_epochs() {
        let t0 = WorkloadSpec::UniformRandom { region: 60 }.generate(12_000, 7);
        let t1 = WorkloadSpec::SequentialLoop { working_set: 12 }.generate(12_000, 8);
        let cfg = EngineConfig::new(2, CacheConfig::new(32, 1), 2_000);
        let (mut engine, sink) = recorded(cfg);
        feed(&mut engine, &[t0, t1], &[2.0, 1.0], 18_000);
        let report = finish(engine, &sink);
        let acc: u64 = report.epochs.iter().flat_map(|e| &e.accesses).sum();
        let mis: u64 = report.epochs.iter().flat_map(|e| &e.misses).sum();
        assert_eq!(acc, 18_000);
        assert_eq!(acc, report.summary.accesses);
        assert_eq!(mis, report.summary.misses);
        assert_eq!(report.summary.epochs, report.epochs.len());
        let ratio = report.cumulative_miss_ratio();
        assert!((0.0..=1.0).contains(&ratio));
    }

    /// One shard books its inline serving as ingest; a fanned-out
    /// epoch books its serving as profile and no ingest. The canonical
    /// journal, which zeroes wall clock, is the same either way.
    #[test]
    fn one_shard_epochs_book_their_ingest() {
        let t0 = WorkloadSpec::UniformRandom { region: 60 }.generate(12_000, 7);
        let t1 = WorkloadSpec::SequentialLoop { working_set: 12 }.generate(12_000, 8);
        let cfg = EngineConfig::new(2, CacheConfig::new(32, 1), 2_000);
        let mut journals = Vec::new();
        for shards in [1, 2] {
            let (mut engine, sink) = recorded(cfg.clone().shards(shards));
            feed(&mut engine, &[t0.clone(), t1.clone()], &[2.0, 1.0], 18_000);
            let journal = finish(engine, &sink);
            for e in &journal.epochs {
                let ingest = e.timings.ingest_nanos;
                assert_eq!(
                    ingest > 0,
                    shards == 1,
                    "{shards} shard(s), epoch {}",
                    e.epoch
                );
            }
            journals.push(journal);
        }
        assert_eq!(journals[0].digest(), journals[1].digest());
    }

    #[test]
    fn allocation_always_sums_to_cache() {
        let t0 = WorkloadSpec::WorkingSetWalk {
            region: 300,
            window: 30,
            dwell: 500,
        }
        .generate(20_000, 5);
        let t1 = WorkloadSpec::SequentialLoop { working_set: 40 }.generate(20_000, 6);
        let cfg = EngineConfig::new(2, CacheConfig::new(96, 1), 2_500).decay(0.2);
        let (mut engine, sink) = recorded(cfg);
        feed(&mut engine, &[t0, t1], &[1.0, 1.0], 40_000);
        let report = finish(engine, &sink);
        for e in &report.epochs {
            assert_eq!(e.allocation.iter().sum::<usize>(), 96, "epoch {}", e.epoch);
        }
    }

    /// Each shape rule refuses by the knob's name, and the engine
    /// asserts the same rules.
    #[test]
    fn validate_names_the_refused_knob() {
        let ok = EngineConfig::new(2, CacheConfig::new(8, 1), 100);
        assert_eq!(ok.validate(), Ok(()));
        let mut huge = ok.clone();
        huge.cache.units = MAX_MRC_SAMPLES;
        let mut zero_units = ok.clone();
        zero_units.cache.units = 0;
        let mut zero_bpu = ok.clone();
        zero_bpu.cache.blocks_per_unit = 0;
        let cases = [
            (
                EngineConfig {
                    tenants: 0,
                    ..ok.clone()
                },
                "tenants",
            ),
            (
                EngineConfig {
                    tenants: MAX_TENANTS + 1,
                    ..ok.clone()
                },
                "tenants",
            ),
            (ok.clone().shards(0), "shards"),
            (ok.clone().shards(MAX_SHARDS + 1), "shards"),
            (zero_units, "units"),
            (zero_bpu, "bpu"),
            (huge, "units"),
            (
                EngineConfig {
                    epoch_length: 0,
                    ..ok.clone()
                },
                "epoch",
            ),
            (ok.clone().decay(1.0), "decay"),
            (ok.clone().decay(f64::NAN), "decay"),
            (
                ok.clone().objective(Objective::ValueWeighted {
                    weights: vec![1.0, 2.0, 3.0],
                }),
                "objective",
            ),
        ];
        for (config, field) in cases {
            assert_eq!(
                config.validate().map_err(|e| e.field),
                Err(field),
                "{config:?}"
            );
        }
        let panic = std::panic::catch_unwind(|| Engine::new(ok.shards(0)))
            .err()
            .expect("a refused shape panics the constructor");
        let message = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("shards"), "{message}");
    }

    #[test]
    fn external_boundaries_record_epochs() {
        // Coordinator clocking: the internal epoch clock never fires
        // (epoch_length is effectively infinite); every boundary goes
        // through export → apply.
        let cfg = EngineConfig::new(2, CacheConfig::new(16, 1), usize::MAX).hysteresis(1);
        let (mut engine, sink) = recorded(cfg);

        // No boundary open yet: typed refusal, nothing booked.
        assert_eq!(
            engine.apply_allocation(&[8, 8], None, None),
            Err(EngineError::NoOpenEpoch)
        );

        let batch: Vec<(usize, u64)> = (0..500).map(|i| ((i % 2) as usize, i % 20)).collect();
        engine.push_batch(&batch).unwrap();
        let exported = engine.export_cost_curves().unwrap();
        assert_eq!(exported.len(), 2);
        assert_eq!(exported[0].counts.accesses, 250);
        assert!(exported[0].curve.is_some(), "window was profiled");

        // Malformed targets are refused by shape, before touching the
        // engine: wrong arity, then oversubscription.
        let bad = EngineError::BadAllocation {
            tenants: 2,
            units: 16,
        };
        assert_eq!(engine.apply_allocation(&[16], None, None), Err(bad));
        assert_eq!(engine.apply_allocation(&[9, 8], None, None), Err(bad));
        assert!(bad.to_string().contains("16 units"));

        // Sub-capacity budget: 10 + 4 < 16 is legal under a coordinator.
        let act = engine
            .apply_allocation(&[10, 4], Some(1.5), Some(9))
            .expect("boundary was open");
        assert!(act.repartitioned);
        assert_eq!(engine.allocation_units(), &[10, 4]);
        assert_eq!(engine.epochs_completed(), 1);

        // A second export with no intervening apply books the first
        // boundary unactuated; finish flushes the dangling one.
        for i in 0..100u64 {
            engine.record_access((i % 2) as usize, i % 20);
        }
        engine.export_cost_curves().unwrap();
        engine.export_cost_curves().unwrap();
        let end = engine.finish().unwrap();
        // A budgeted allocation need not partition the cache, so the
        // lines are read one by one rather than as a validated journal.
        let epochs = sink
            .text()
            .lines()
            .filter_map(|line| match parse_journal_line(line) {
                Ok(JournalLine::Epoch(e)) => Some(e),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(epochs.len(), 3);
        assert_eq!(epochs[0].allocation, vec![8, 8], "served pre-apply");
        assert_eq!(epochs[0].predicted_cost, Some(1.5));
        assert_eq!(epochs[0].trace, Some(9), "coordinator trace id sticks");
        assert!(epochs[1].trace.is_none());
        assert!(epochs[0].repartitioned);
        assert_eq!(epochs[1].allocation, vec![10, 4]);
        assert!(!epochs[1].repartitioned, "abandoned boundary");
        assert_eq!(end.summary.epochs, 3);
        assert_eq!(
            end.summary.accesses, 600,
            "every access lands in exactly one epoch"
        );
    }

    #[test]
    fn sharded_engines_refuse_external_clocking() {
        let cfg = EngineConfig::new(2, CacheConfig::new(16, 1), 100).shards(2);
        let mut sharded = Engine::new(cfg);
        let err = sharded.export_cost_curves().expect_err("sharded refuses");
        assert!(matches!(err, EngineError::Unsupported { .. }));
        assert!(err.to_string().contains("does not support"));
        assert_eq!(sharded.apply_allocation(&[8, 8], None, None), Err(err));
    }

    #[test]
    fn rejected_batch_leaves_the_engine_untouched() {
        for shards in [1usize, 2] {
            let cfg = EngineConfig::new(2, CacheConfig::new(8, 1), 10).shards(shards);
            let mut engine = Engine::new(cfg);
            let err = engine
                .push_batch(&[(0, 1), (1, 2), (7, 3)])
                .expect_err("tenant 7 of 2");
            assert_eq!(
                err,
                EngineError::TenantOutOfRange {
                    tenant: 7,
                    tenants: 2
                }
            );
            assert!(err.to_string().contains("tenant 7"));
            // Nothing was ingested: the valid prefix was not fed.
            let report = engine.finish().unwrap().summary;
            assert_eq!(report.epochs, 0);
            assert_eq!(report.accesses, 0);
        }
    }
}
