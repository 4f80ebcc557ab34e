//! Synthetic memory-trace substrate.
//!
//! The paper evaluates on full memory traces of 16 SPEC CPU2006 programs.
//! Those traces are proprietary-input, hardware-profiled artifacts we do
//! not have, so this crate provides the closest synthetic equivalent: a
//! family of parametric *workloads* whose miss-ratio-curve shapes span the
//! same qualitative space (streaming, working-set cliffs, Zipfian heaps,
//! phase alternation), a set of 16 named "spec-like" profiles standing in
//! for the paper's program set, and trace interleaving for co-run
//! simulation.
//!
//! * [`model`] — block addresses, traces, and basic trace statistics.
//! * [`workload`] — the [`workload::WorkloadSpec`] family of generators.
//! * [`spec_like`] — the 16-program study set (Section VII-A stand-in).
//! * [`interleave`] — rate-proportional co-run trace interleaving.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod interleave;
pub mod model;
pub mod spec_like;
pub mod workload;

pub use interleave::{interleave_proportional, CoAccess, CoTrace, InterleavedStream};
pub use model::{Block, Trace, TraceStats};
pub use spec_like::{study_programs, ProgramSpec};
pub use workload::{AccessStream, WorkloadSpec};
