//! # cps-serve — the network service layer
//!
//! Hosts the online repartitioning engine behind a TCP socket so that
//! multiple tenants can stream accesses into *one shared cache
//! controller* from separate processes — the deployment shape the
//! partition-sharing model actually targets (a storage server or
//! proxy cache serving many clients), rather than the single-process
//! replay the rest of the workspace exercises.
//!
//! The layer is four pieces, none of which reach outside `std`:
//!
//! - [`wire`] — a versioned length-prefixed binary codec (magic,
//!   version, opcode, checksummed payload, varint-packed batches).
//!   Every malformed input — truncation, bit flip, bad version,
//!   oversized frame — decodes to a typed [`wire::WireError`], never a
//!   panic.
//! - [`server`] — a one-thread daemon: an epoll driver (a portable
//!   fallback elsewhere) owns every socket and feeds readiness events
//!   to a sans-I/O core that owns the [`cps_engine::Engine`] and reads
//!   no clock. Concurrent connections send
//!   position-stamped BATCH_SEQ frames that a bounded sequencing
//!   window reassembles into the one canonical stream — the invariant
//!   that keeps served runs report-identical to in-process runs —
//!   while dropped connections may RESUME by session token without
//!   losing report identity. The control plane is ALLOCATION (the
//!   allocation in force) and STATS (ingest counters and the completed
//!   epoch count); SHUTDOWN finishes the engine and returns the run's
//!   summary and digest. Metrics leave through SUBSCRIBE observers
//!   and the HTTP `/metrics` scrape, never a control verb.
//! - [`Loopback`] — the same serving core in process, one connection
//!   behind `Read + Write` over in-memory queues, stepped synchronously
//!   on a clock that never moves: the transport of `cps cluster`'s
//!   local nodes, and the driver the core's own tests run on.
//! - [`client`] — a blocking client used by `cps bench-net` to replay
//!   a trace over the socket and cross-validate the returned journal
//!   against an in-process run of the identical engine: HELLO_ACK
//!   carries the server's `cps_engine::EngineConfig` as is, and the
//!   decode refuses one that fails its `validate`.
//!
//! That cross-validation is `cps_obs::Journal::canonical`: the journal
//! text with wall-clock fields zeroed. Two runs are the same run iff
//! their canonical texts are byte-equal.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
mod core;
mod loopback;
mod poll;
pub mod server;
mod window;
pub mod wire;

pub use client::{Client, Observer, ObserverEvent, ServeError};
pub use loopback::Loopback;
pub use server::{ServeConfig, ServeOutcome, Server};
pub use wire::{Message, ServeStats, WireCurve, WireError, PROTOCOL_VERSION};
