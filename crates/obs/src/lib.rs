//! Observability for the repartitioning engine: metrics, spans, journal.
//!
//! The engine pipeline (ingest → profile → merge → solve → actuate)
//! runs for millions of accesses between human glances; this crate is
//! how a run is *watched* rather than reconstructed from printlns.
//! It is deliberately zero-dependency — everything is `std` atomics,
//! hand-rolled JSON, and plain text — so it can sit under the
//! `record_access` hot path without pulling a telemetry stack into the
//! build.
//!
//! Three layers, one module each:
//!
//! * [`metrics`] — a [`MetricsRegistry`] of named instruments: atomic
//!   [`Counter`]s, [`Gauge`]s, log-2-bucketed [`Histogram`]s, and
//!   [`ShardedCounter`]s (one cache-padded slot per engine shard, so
//!   fan-out workers never contend on the access counter). Snapshots
//!   export as a human table, JSONL, or Prometheus text format.
//! * [`span`] — the [`Stage`] taxonomy and the per-epoch
//!   [`StageTimings`] block that replaces ad-hoc wall-clock fields:
//!   every engine variant attributes its epoch to the same five stages.
//! * [`journal`] — the epoch-granular structured event journal: one
//!   JSONL line per epoch boundary (allocation, per-tenant realized
//!   counts, solve verdict, stage timings, cluster trace ids and node
//!   spans) between a run header and a totals summary, with a
//!   documented stable schema ([`JOURNAL_VERSION`]) that `cps inspect`
//!   round-trips.
//!
//! [`chrome`] renders a parsed journal's stage spans (and a cluster
//! journal's per-node child spans) as Chrome trace-event JSON for
//! Perfetto, anchored on the version-3 schema's monotonic epoch start
//! timestamps. [`json`] is the tiny JSON value/parser the journal
//! rides on; it is public so downstream tools can parse journal
//! extensions without a serde dependency.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod span;
pub mod stream;
pub mod tournament;

pub use chrome::chrome_trace_json;
pub use journal::{
    parse_journal_line, EpochEvent, Journal, JournalLine, MigrationEvent, NodeSpan, RunHeader,
    RunSummary, TotalOverflow, JOURNAL_VERSION,
};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, ShardedCounter};
pub use span::{Stage, StageTimings, Stopwatch};
pub use stream::{fnv1a, JournalStream, MemorySink, RunDigest, FNV1A_BASIS};
pub use tournament::{
    parse_tournament_line, TournamentHeader, TournamentJournal, TournamentLine, TournamentRow,
};

/// The SplitMix64 finalizer — a cheap, invertible 64-bit mix. The one
/// copy in the workspace: workload generator seeding (`cps-trace`),
/// trace set-hashing and the distinct-block sketch (`cps-traceio`),
/// session resume tokens (`cps-serve`) and epoch trace ids
/// (`cps-cluster`) all scatter through it.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A per-process seed for id generators: wall-clock nanoseconds mixed
/// with the process id. Not secret in any cryptographic sense, just
/// distinct enough that two runs' ids never collide by accident.
pub fn nonce() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    let t = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5eed);
    splitmix64(t ^ (std::process::id() as u64).rotate_left(32))
}
