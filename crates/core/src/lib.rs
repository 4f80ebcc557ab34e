//! Optimal cache partition-sharing (Brock, Ye, Ding, Li, Wang, Luo —
//! ICPP 2015).
//!
//! This crate is the paper's contribution, built on the substrates in
//! `cps-hotl` (locality theory), `cps-trace` (workloads), `cps-cachesim`
//! (oracles), and `cps-combin` (search-space arithmetic):
//!
//! * [`config`] — cache geometry (partition units × blocks per unit).
//! * [`cost`] — per-program allocation cost curves, with optional
//!   baseline caps (the fairness constraint of Section VI).
//! * [`dp`] — the **optimal partitioning dynamic program** (Section V-B,
//!   Eq. 15/16): `O(P·C²)` time, `O(P·C)` space, no convexity
//!   assumption, pluggable accumulation (throughput or max-min), one
//!   branch-free range-clipped kernel.
//! * [`objective`] — first-class, serializable objectives over the DP:
//!   miss-ratio sum (default), max-min QoS, concave utility of hit
//!   rate, value-weighted misses, and max-slowdown fairness.
//! * [`sttw`] — the classic Stone–Thiebaut–Turek–Wolf equal-derivative
//!   solution (Eq. 12–14), implemented as marginal-gain greedy over the
//!   lower convex envelope — optimal exactly when the true curves are
//!   convex.
//! * [`natural`] — integer-unit Natural Cache Partitions.
//! * [`schemes`] — the six evaluation schemes of Section VII-A (Equal,
//!   Natural, Equal baseline, Natural baseline, Optimal, STTW).
//! * [`fairness`] — gainer/loser classification and unfairness counts
//!   (Section VII-B).
//! * [`sharing`] — HOTL evaluation of arbitrary partition-sharing
//!   configurations and exhaustive search over them (the reduction
//!   theorem, Section V-A, checked numerically).
//! * [`sweep`] — evaluation of every k-program co-run group of a study
//!   set (the paper's 1820-group evaluation), one contiguous chunk of
//!   groups per core, and the Table I aggregation.
//! * [`multicache`] — sharing across multiple caches (Section II,
//!   sub-problem 1): exhaustive Stirling-space grouping search plus a
//!   greedy heuristic.
//! * [`placement`] — LPT balanced assignment of weighted items to
//!   bins (cluster tenant placement, sharded-engine workers).
//! * [`perf`] — miss ratio → CPI/time estimation (Section VIII's
//!   locality-performance correlation) and multiprogramming metrics.
//! * [`stall`] — the introduction's stall-scheduling application:
//!   serialize thrashing co-runners when the model predicts everybody
//!   finishes sooner.
//! * [`phased`] — phase-aware time-varying partitioning (the Figure 1
//!   regime where static partitions provably cannot match sharing):
//!   per-segment profiling, per-segment DP with hysteresis, and
//!   transient-faithful repartitioning simulation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod cost;
pub mod dp;
pub mod elastic;
pub mod fairness;
pub mod multicache;
pub mod natural;
pub mod objective;
pub mod perf;
pub mod phased;
pub mod placement;
pub mod schemes;
pub mod sharing;
pub mod stall;
pub mod sttw;
pub mod sweep;

pub use config::CacheConfig;
pub use cost::{access_shares, build_cost_curves, equal_baseline_caps, CostCurve};
pub use dp::{optimal_partition, Combine, DpCells, DpFrontier, DpSolver, PartitionResult};
pub use natural::{natural_baseline_caps, natural_partition_units};
pub use objective::{Objective, DEFAULT_UTILITY_CURVATURE};
pub use placement::place_greedy;
pub use schemes::{
    evaluate_group, evaluate_group_on, evaluate_group_with, GroupEvaluation, Scheme, SchemeResult,
};
pub use sttw::sttw_partition;
pub use sweep::{
    all_k_subsets, gap_stats, improvement_stats, sweep_groups, sweep_groups_with, table1,
    GroupRecord, ImprovementStats, Study,
};
