//! Multi-node hierarchical partition-sharing.
//!
//! One logical cache, many engine nodes: a [`Coordinator`] drives a
//! fleet of [`ClusterNode`]s — wire-protocol sessions with serving
//! cores, in process on a loopback or in live `cps serve` daemons — through
//! externally clocked epochs. Each boundary exports per-tenant cost
//! curves from every node, solves the two-level dynamic program of
//! [`hierarchy`] (per-node frontiers, then a top-level split of total
//! capacity into node budgets), pushes the budgets back down, and
//! records a flat-schema journal epoch for the whole cluster.
//!
//! The design invariant, proven by this crate's property tests: with
//! one tenant per node and non-binding capacities, the cluster's
//! trajectory — allocations, predicted costs, hysteresis verdicts,
//! realized counts — is **bit-identical** to the flat single-engine
//! run over the same stream. Grouping tenants onto shared nodes only
//! restricts the flat search space, so the two-level cost is bounded
//! below by the flat optimum and the gap is exactly the price of the
//! placement. [`place_greedy`] (`cps-core`'s one LPT) makes the initial
//! guess; the solve stage's placement step re-homes one tenant when that
//! pays, and applies its budget at the same boundary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coordinator;
pub mod hierarchy;
pub mod node;

pub use coordinator::{ClusterConfig, ClusterReport, Coordinator, NodeFailure};
pub use cps_core::place_greedy;
pub use hierarchy::{solve_two_level, TwoLevelResult};
pub use node::{ClusterNode, NodeError};
