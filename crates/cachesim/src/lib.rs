//! Cache-simulator substrate.
//!
//! The paper validates the HOTL theory against fully-associative LRU
//! behaviour (Section VII-C / VIII); this crate provides the simulators
//! that play the role of the authors' hardware counters:
//!
//! * [`lru`] — fully-associative LRU with `O(1)` accesses, plus solo
//!   trace simulation and the exact solo miss-ratio curve (via Olken
//!   reuse distances).
//! * [`set_assoc`] — set-associative LRU, for quantifying the
//!   fully-associative idealization (Section VIII).
//! * [`clock`] — CLOCK (second-chance), the canonical LRU
//!   approximation, for the replacement-policy caveat of Section VIII.
//! * [`shared`] — co-run simulation of an interleaved trace through one
//!   shared cache, with per-program miss accounting and optional warm-up.
//! * [`partitioned`] — per-program private partitions, both as a batch
//!   replay and as a live [`PartitionedCache`] whose allocation can be
//!   changed gracefully between accesses (the repartitioning substrate).
//! * [`sharing`] — general partition-sharing: groups of programs mapped
//!   to shared partitions (the paper's Figure 2, case 2).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod lru;
pub mod metrics;
pub mod partitioned;
pub mod set_assoc;
pub mod shared;
pub mod sharing;

pub use clock::ClockCache;
pub use lru::{exact_miss_ratio_curve, simulate_solo, LruCache};
pub use metrics::AccessCounts;
pub use partitioned::{simulate_partitioned, PartitionedCache};
pub use set_assoc::{SetAssocCache, SetIndexing};
pub use shared::{simulate_shared, simulate_shared_warm, SharedSimResult};
pub use sharing::{simulate_partition_sharing, PartitionSharingScheme};
