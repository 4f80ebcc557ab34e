//! The Higher-Order Theory of Locality (HOTL).
//!
//! This crate implements Section III and IV of the paper: the metric
//! chain from a raw memory trace to a machine-independent miss-ratio
//! curve, and the composition theory that predicts co-run behaviour from
//! solo profiles:
//!
//! ```text
//! trace ──▶ reuse-time histogram ──▶ average footprint fp(w)
//!       fill time ft = fp⁻¹ ──▶ inter-miss time ──▶ miss ratio mr(c)
//! ```
//!
//! * [`reuse`] — reuse gaps and boundary times ([`reuse::ReuseProfile`]),
//!   Eq. 4 of the paper.
//! * [`footprint`] — the average footprint `fp(w)` for **all** window
//!   lengths in linear time (Eq. 5, via Xiang et al.'s closed form).
//! * [`metrics`] — fill time (Eq. 6), miss ratio (Eq. 8/10, the
//!   reciprocal of Eq. 7's inter-miss time), and sampled miss-ratio /
//!   miss-count curves.
//! * [`compose`] — stretched-footprint composition for co-run groups
//!   (Eq. 9/11) and the **Natural Cache Partition** (Section V-A).
//! * [`assoc`] — reuse-distance distribution from the MRC and Smith's
//!   statistical set-associativity estimate (Section VIII).
//! * [`sampling`] / [`online`] / [`persist`] — bursty sampled profiling,
//!   streaming profiling, and binary footprint files (the practicality
//!   assumptions of Sections VII-A and VIII).
//! * [`windowed`] — epoch-windowed profiling with exponential decay, the
//!   per-tenant monitor used by the online repartitioning engine.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assoc;
pub mod compose;
pub mod footprint;
pub mod hypothesis;
pub mod metrics;
pub mod online;
pub mod persist;
pub mod reuse;
pub mod sampling;
pub mod windowed;

pub use compose::{CoRunModel, NaturalPartition};
pub use footprint::Footprint;
pub use metrics::{MissRatioCurve, SoloProfile};
pub use reuse::ReuseProfile;
pub use sampling::{sample_footprint, sample_reuse, BurstConfig};
pub use windowed::{ProfilerMode, WindowedProfiler};
