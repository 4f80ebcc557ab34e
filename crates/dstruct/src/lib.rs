//! Data-structure substrate for the cache-partition-sharing workspace.
//!
//! This crate collects the low-level, allocation-conscious building blocks
//! shared by the locality analysis ([`olken`], [`histogram`]), the cache
//! simulators ([`lru_list`]), and the optimization and reporting layers
//! ([`curve`], [`stats`]):
//!
//! * [`fenwick`] — binary indexed trees over `i64`/`u64` counts, the engine
//!   behind exact reuse-distance measurement.
//! * [`lru_list`] — an intrusive doubly-linked list over caller-owned
//!   ids and the one capacity-bounded LRU access routine, used by every
//!   LRU simulator to maintain recency order without per-access
//!   allocation.
//! * [`olken`] — Olken's exact LRU stack-distance algorithm in
//!   `O(n log n)`.
//! * [`hash`] — a seeded multiply/xor-shift hasher and the
//!   [`BlockHashMap`] alias every per-access block table uses.
//! * [`histogram`] — dense histograms and the "excess sum" transform
//!   `w ↦ Σ_t max(t−w,0)·freq(t)`, run forward one `w` at a time, that
//!   powers the linear-time footprint formula.
//! * [`curve`] — monotone piecewise-linear curves on a unit grid
//!   (evaluation, inverse, derivative, convexity analysis).
//! * [`stats`] — summary statistics used by the experiment tables.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod curve;
pub mod fenwick;
pub mod hash;
pub mod histogram;
pub mod lru_list;
pub mod olken;
pub mod stats;

pub use curve::MonotoneCurve;
pub use fenwick::Fenwick;
pub use hash::{BlockHashBuilder, BlockHashMap, BlockHasher};
pub use histogram::{DenseHistogram, ExcessSums};
pub use lru_list::{LruList, Touch};
pub use olken::ReuseDistances;
pub use stats::Summary;
