//! # cache-partition-sharing
//!
//! A Rust reproduction of *Optimal Cache Partition-Sharing* (Brock, Ye,
//! Ding, Li, Wang, Luo — ICPP 2015): the Higher-Order Theory of Locality
//! (HOTL), natural cache partitions, a convexity-free dynamic program
//! for optimal cache partitioning, fairness-baseline optimization, and
//! the full evaluation harness for the paper's tables and figures.
//!
//! This facade re-exports the workspace crates under stable names:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`dstruct`] | `cps-dstruct` | Fenwick trees, LRU lists, Olken reuse distance, curves, stats |
//! | [`trace`] | `cps-trace` | synthetic workloads, spec-like program set, interleaving |
//! | [`hotl`] | `cps-hotl` | reuse/footprint/miss-ratio theory, composition, natural partitions |
//! | [`cachesim`] | `cps-cachesim` | exact LRU / set-associative / shared / partition-sharing simulators |
//! | [`combin`] | `cps-combin` | Stirling numbers, binomials, search-space sizes |
//! | [`core`] | `cps-core` | the DP optimizer, STTW, baselines, six-scheme evaluation, sweeps |
//! | [`engine`] | `cps-engine` | epoch-driven online repartitioning controller |
//! | [`obs`] | `cps-obs` | metrics registry, stage spans, epoch event journal |
//! | [`serve`] | `cps-serve` | TCP service layer: wire codec, daemon, client |
//! | [`cluster`] | `cps-cluster` | multi-node coordinator: two-level DP, placement step |
//! | [`traceio`] | `cps-traceio` | streaming readers for external memory traces (text/CSV/binary) |
//!
//! ## Quickstart
//!
//! ```
//! use cache_partition_sharing::prelude::*;
//!
//! // Two programs: a 60-block loop and a Zipfian heap.
//! let cache = CacheConfig::new(128, 1);
//! let loop60 = WorkloadSpec::SequentialLoop { working_set: 60 }.generate(50_000, 1);
//! let zipf = WorkloadSpec::Zipfian { region: 400, alpha: 0.8 }.generate(50_000, 2);
//! let a = SoloProfile::from_trace("loop60", &loop60.blocks, 1.0, cache.blocks());
//! let b = SoloProfile::from_trace("zipf", &zipf.blocks, 1.0, cache.blocks());
//!
//! // Evaluate all six allocation schemes of the paper.
//! let eval = evaluate_group(&[&a, &b], &cache);
//! let optimal = eval.get(Scheme::Optimal);
//! assert_eq!(optimal.allocation.iter().sum::<usize>(), cache.units);
//! assert!(optimal.group_miss_ratio <= eval.get(Scheme::Equal).group_miss_ratio + 1e-9);
//! ```

#![warn(missing_docs)]

pub use cps_cachesim as cachesim;
pub use cps_cluster as cluster;
pub use cps_combin as combin;
pub use cps_core as core;
pub use cps_dstruct as dstruct;
pub use cps_engine as engine;
pub use cps_hotl as hotl;
pub use cps_obs as obs;
pub use cps_serve as serve;
pub use cps_trace as trace;
pub use cps_traceio as traceio;

/// The most commonly used items in one import.
pub mod prelude {
    pub use cps_cachesim::{
        exact_miss_ratio_curve, simulate_partition_sharing, simulate_shared, simulate_shared_warm,
        ClockCache, LruCache, PartitionSharingScheme, PartitionedCache, SetAssocCache, SetIndexing,
    };
    pub use cps_cluster::{place_greedy, solve_two_level, ClusterConfig, ClusterNode, Coordinator};
    pub use cps_core::elastic::{elastic_partition, elastic_sweep};
    pub use cps_core::perf::PerfModel;
    pub use cps_core::phased::{phase_aware_partition, PhasedProfile};
    pub use cps_core::{
        evaluate_group, evaluate_group_with, gap_stats, optimal_partition, sttw_partition,
        sweep_groups_with, CacheConfig, Combine, CostCurve, DpCells, DpSolver, GroupEvaluation,
        Objective, PartitionResult, Scheme, Study,
    };
    pub use cps_engine::{Engine, EngineConfig, Policy};
    pub use cps_hotl::online::OnlineProfiler;
    pub use cps_hotl::windowed::{ProfilerMode, WindowedProfiler};
    pub use cps_hotl::{
        sample_footprint, BurstConfig, CoRunModel, Footprint, MissRatioCurve, ReuseProfile,
        SoloProfile,
    };
    pub use cps_obs::{Journal, MetricsRegistry, RunHeader, Stage, StageTimings};
    pub use cps_serve::{Client, ServeConfig, Server};
    pub use cps_trace::{
        interleave_proportional, study_programs, Block, InterleavedStream, ProgramSpec, Trace,
        WorkloadSpec,
    };
    pub use cps_traceio::{
        BlockMap, Strictness, TenantPolicy, TraceFormat, TraceIoError, TraceSource,
    };
}
