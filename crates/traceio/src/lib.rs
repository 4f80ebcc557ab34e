//! Streaming ingestion of external memory traces.
//!
//! This crate is the real-trace front door for the partition-sharing
//! engines: it turns on-disk logs in three formats — a
//! cachegrind-flavored text log ([`text`]), `addr,tenant,tstamp` CSV
//! ([`csv`]), and a compact little-endian binary format ([`binary`]) —
//! into one canonical stream of `(tenant, block)` records that every
//! engine, CLI command, and wire path consumes identically.
//!
//! The pipeline is
//!
//! ```text
//! bytes ──reader──▶ RawOp ──tenancy──▶ tenant ──block map──▶ records
//! ```
//!
//! * a format reader ([`TextReader`], [`CsvReader`], [`BinaryReader`])
//!   yields raw ops `(thread, addr, size)`;
//! * a [`TenantPolicy`] resolves each op's thread to a tenant id
//!   (explicit column, thread-id map, first-seen, or round-robin);
//! * a [`BlockMap`] maps byte addresses to block ids (configurable
//!   block size, optional set-hash), expanding wide accesses into one
//!   record per block touched.
//!
//! [`TraceSource`] drives the pipeline and is the only type most
//! callers need. It decodes a block at a time — up to
//! [`BLOCK_RECORDS`] records per call into the reader — and hands the
//! block out as a slice ([`TraceSource::next_block`]) or record by
//! record ([`TraceSource::next_record`]); where the blocks fall is
//! invisible, errors included. Memory is strictly bounded no matter
//! the input size: every reader runs over a fixed buffer
//! ([`ByteScanner`]) and the source over one fixed block, so multi-GB
//! logs stream in constant space — the scan buffer's high-water mark
//! is observable via [`SourceStats::max_resident_bytes`].
//!
//! Errors are typed ([`TraceIoError`]) and positioned (line and byte
//! offset); malformed input never panics. [`Strictness::Lenient`] skips
//! recoverable damage and reports it, [`Strictness::Strict`] stops at
//! the first problem.

#![warn(missing_docs)]

pub mod binary;
pub mod csv;
pub mod error;
pub mod map;
pub mod metrics;
mod num;
pub mod scan;
pub mod source;
pub mod stat;
pub mod tenancy;
pub mod text;

pub use binary::{BinaryHeader, BinaryReader, BinaryWriter};
pub use csv::{CsvReader, CsvWriter};
pub use error::TraceIoError;
pub use map::BlockMap;
pub use metrics::TraceIoMetrics;
pub use scan::ByteScanner;
pub use source::{
    RawOp, RawTraceReader, SourceStats, Strictness, TraceFormat, TraceSource, BLOCK_RECORDS,
};
pub use stat::{StatCollector, StatReport};
pub use tenancy::{TenantPolicy, TenantResolver};
pub use text::{TextReader, TextWriter};
