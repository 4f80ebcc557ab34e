//! The front-door pipeline: raw format readers → tenant attribution →
//! block mapping → canonical `(tenant, block)` records.
//!
//! Every format module produces [`RawOp`]s through the common
//! [`RawTraceReader`] trait; [`TraceSource`] stacks a
//! [`TenantResolver`] and a
//! [`BlockMap`] on top and yields exactly the
//! record shape the engines ingest. The stack decodes a block at a
//! time: the reader stages up to [`BLOCK_RECORDS`] raw ops per call
//! ([`RawTraceReader::read_ops`]), the source expands them into one
//! fixed block of records, and consumers take the block as a slice
//! ([`TraceSource::next_block`]) or walk it one record at a time
//! ([`TraceSource::next_record`]). The whole stack is still streaming:
//! the only buffering anywhere is the readers' fixed scan buffer plus
//! that one fixed block, both allocated once, so a multi-GB log flows
//! through in constant memory ([`TraceSource::stats`] exposes the scan
//! buffer's measured high-water mark).

use crate::binary::BinaryReader;
use crate::csv::CsvReader;
use crate::error::TraceIoError;
use crate::map::BlockMap;
use crate::metrics::TraceIoMetrics;
use crate::tenancy::{TenantPolicy, TenantResolver};
use crate::text::TextReader;
use std::io::Read;

/// One raw operation as a format reader parsed it, before attribution
/// and mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawOp {
    /// The producer's thread or tenant field (format-dependent).
    pub thread: u64,
    /// Byte address (or block id, for pre-mapped binary traces).
    pub addr: u64,
    /// Access width in bytes (1 for formats without a size field).
    pub size: u64,
    /// 1-based source line (0 for record-oriented formats).
    pub line: u64,
    /// Global byte offset of the record in the input.
    pub offset: u64,
}

/// A streaming format-specific reader of raw trace operations.
pub trait RawTraceReader {
    /// The next raw op, `Ok(None)` at a clean end of stream, or a
    /// typed error. After a *recoverable* error the reader must be
    /// positioned so the next call continues past the damage (call
    /// [`RawTraceReader::resync`] first for errors that interrupt
    /// scanning, such as an over-long line).
    fn next_op(&mut self) -> Result<Option<RawOp>, TraceIoError>;

    /// Appends up to `max` raw ops to `out` — what [`TraceSource`]
    /// calls, once per block, so a line-oriented reader pays one
    /// virtual call per block and a fixed-width one can decode its
    /// buffer in one pass. Appending nothing with `Ok` is a clean end
    /// of stream. On `Err` the ops parsed before the damage are already
    /// in `out` and the reader stands where [`RawTraceReader::next_op`]
    /// would have left it.
    fn read_ops(&mut self, out: &mut Vec<RawOp>, max: usize) -> Result<(), TraceIoError> {
        for _ in 0..max {
            match self.next_op()? {
                Some(op) => out.push(op),
                None => break,
            }
        }
        Ok(())
    }

    /// Re-synchronizes after a recoverable error that left input
    /// unconsumed (the over-long-line case). Default: nothing to do.
    fn resync(&mut self) -> Result<(), TraceIoError> {
        Ok(())
    }

    /// Total bytes pulled from the underlying stream.
    fn bytes_read(&self) -> u64;

    /// High-water mark of buffered bytes — the boundedness probe.
    fn max_resident_bytes(&self) -> usize;

    /// True when the format declares its addresses are already block
    /// ids (the binary header's pre-mapped flag).
    fn addrs_are_blocks(&self) -> bool {
        false
    }
}

/// The three external trace formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Cachegrind/valgrind-flavored text log (`I`/`L`/`S`/`M` op lines).
    Text,
    /// `addr,tenant,tstamp` comma-separated rows.
    Csv,
    /// The compact `CPST` little-endian record format.
    Binary,
}

impl TraceFormat {
    /// Parses the CLI spelling: `text`, `csv`, `binary`, or `auto`
    /// (returns `None`, meaning sniff the file).
    pub fn parse(spec: &str) -> Result<Option<TraceFormat>, String> {
        match spec {
            "text" | "cachegrind" => Ok(Some(TraceFormat::Text)),
            "csv" => Ok(Some(TraceFormat::Csv)),
            "binary" | "bin" => Ok(Some(TraceFormat::Binary)),
            "auto" => Ok(None),
            other => Err(format!(
                "unknown trace format `{other}` (text | csv | binary | auto)"
            )),
        }
    }

    /// The CLI spelling of this format.
    pub fn name(&self) -> &'static str {
        match self {
            TraceFormat::Text => "text",
            TraceFormat::Csv => "csv",
            TraceFormat::Binary => "binary",
        }
    }

    /// Guesses the format from an input prefix: the `CPST` magic means
    /// binary; otherwise the first non-blank, non-comment line decides
    /// — a leading `I`/`L`/`S`/`M`/`T` op or marker means the text
    /// log, anything else is read as CSV.
    pub fn sniff(prefix: &[u8]) -> TraceFormat {
        if prefix.starts_with(crate::binary::MAGIC) {
            return TraceFormat::Binary;
        }
        for line in prefix.split(|&b| b == b'\n') {
            let t = crate::num::trim(line);
            if t.is_empty() || t.starts_with(b"#") || t.starts_with(b"==") {
                continue;
            }
            return match t[0] {
                b'I' | b'L' | b'S' | b'M' | b'T' => TraceFormat::Text,
                _ => TraceFormat::Csv,
            };
        }
        TraceFormat::Text
    }
}

/// How a [`TraceSource`] treats recoverable parse errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strictness {
    /// Any malformed input is fatal (the default; a replay on damaged
    /// data should fail loudly, not silently drop accesses).
    Strict,
    /// Skip malformed lines/records, counting them and remembering the
    /// first few for the malformed-input report.
    Lenient,
}

/// How many malformed-input locations the lenient report remembers.
pub const MALFORMED_REPORT_CAP: usize = 8;

/// Counters and the malformed-input report for one source read.
///
/// Mid-stream, `records` counts exactly the records handed out; the
/// other counters describe what has been *decoded*, which runs up to
/// one block ahead.
#[derive(Clone, Debug, Default)]
pub struct SourceStats {
    /// Canonical records handed out.
    pub records: u64,
    /// Raw ops parsed (one op can expand to several records).
    pub ops: u64,
    /// Malformed lines/records skipped (lenient mode only).
    pub malformed_skipped: u64,
    /// First few malformed locations, as `(line, offset, reason)`.
    pub malformed_report: Vec<(u64, u64, String)>,
    /// Bytes pulled from the underlying stream.
    pub bytes_read: u64,
    /// High-water mark of buffered bytes.
    pub max_resident_bytes: usize,
}

/// Most records one refill of a [`TraceSource`] decodes: the fixed
/// capacity of its record block and of its raw-op staging area.
pub const BLOCK_RECORDS: usize = 1024;

/// The canonical streaming trace source: any format in, engine-shaped
/// `(tenant, block)` records out, decoded a block at a time.
pub struct TraceSource {
    reader: Box<dyn RawTraceReader + Send>,
    resolver: TenantResolver,
    map: BlockMap,
    tenants: usize,
    strictness: Strictness,
    /// Raw ops of the latest reader call; `ops[next_op..]` are not yet
    /// expanded into records.
    ops: Vec<RawOp>,
    next_op: usize,
    /// The error that ended the latest reader call. It orders after
    /// every op in `ops`.
    read_error: Option<TraceIoError>,
    /// An op the block had no room to finish: its tenant and the
    /// inclusive range of (unhashed) block ids still to emit.
    wide: Option<(usize, u64, u64)>,
    /// Decoded records; `block[cursor..]` are not yet handed out.
    block: Vec<(usize, u64)>,
    cursor: usize,
    /// An error found while records stood in the block before it; it
    /// surfaces on the refill after they are handed out.
    deferred: Option<TraceIoError>,
    /// Records of every block already replaced.
    retired: u64,
    stats: SourceStats,
    metrics: Option<TraceIoMetrics>,
    synced_bytes: u64,
}

impl TraceSource {
    /// Builds a source over an already-constructed format reader.
    ///
    /// `tenants` bounds resolved tenant ids (a record at or past it is
    /// an error, skippable only in lenient mode). If the reader
    /// declares its addresses pre-mapped, `map` is overridden with the
    /// identity mapping unless it hashes.
    pub fn new(
        reader: Box<dyn RawTraceReader + Send>,
        policy: TenantPolicy,
        map: BlockMap,
        tenants: usize,
        strictness: Strictness,
    ) -> Self {
        let map = if reader.addrs_are_blocks() {
            BlockMap {
                block_bytes: 1,
                set_hash: map.set_hash,
            }
        } else {
            map
        };
        TraceSource {
            reader,
            resolver: TenantResolver::new(policy),
            map,
            tenants,
            strictness,
            ops: Vec::with_capacity(BLOCK_RECORDS),
            next_op: 0,
            read_error: None,
            wide: None,
            block: Vec::with_capacity(BLOCK_RECORDS),
            cursor: 0,
            deferred: None,
            retired: 0,
            stats: SourceStats::default(),
            metrics: None,
            synced_bytes: 0,
        }
    }

    /// Opens `format`-formatted data from any byte stream.
    pub fn from_read(
        input: Box<dyn Read + Send>,
        format: TraceFormat,
        policy: TenantPolicy,
        map: BlockMap,
        tenants: usize,
        strictness: Strictness,
    ) -> Self {
        let reader: Box<dyn RawTraceReader + Send> = match format {
            TraceFormat::Text => Box::new(TextReader::new(input)),
            TraceFormat::Csv => Box::new(CsvReader::new(input)),
            TraceFormat::Binary => Box::new(BinaryReader::new(input)),
        };
        Self::new(reader, policy, map, tenants, strictness)
    }

    /// Attaches `cps_traceio_*` instruments; they move once per
    /// decoded block.
    pub fn with_metrics(mut self, metrics: TraceIoMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The effective block mapping (after any pre-mapped override).
    pub fn block_map(&self) -> BlockMap {
        self.map
    }

    /// Counters so far; callable mid-stream or after exhaustion.
    pub fn stats(&self) -> SourceStats {
        let mut s = self.stats.clone();
        s.records = self.retired + self.cursor as u64;
        s.bytes_read = self.reader.bytes_read();
        s.max_resident_bytes = self.reader.max_resident_bytes();
        s
    }

    /// The next canonical record, `Ok(None)` at end of stream — a
    /// cursor over the same block [`TraceSource::next_block`] hands
    /// out, so the two can be mixed freely.
    ///
    /// In strict mode the first malformed input is returned as an
    /// error (the CLI turns it into a friendly nonzero exit); in
    /// lenient mode malformed lines are counted and skipped. Fatal
    /// errors (I/O, bad magic, truncated binary) always surface. Either
    /// way every record decoded before the damage is handed out first.
    pub fn next_record(&mut self) -> Result<Option<(usize, u64)>, TraceIoError> {
        if self.cursor == self.block.len() {
            self.refill()?;
        }
        let Some(&record) = self.block.get(self.cursor) else {
            return Ok(None);
        };
        self.cursor += 1;
        Ok(Some(record))
    }

    /// The records decoded and not yet handed out — at most
    /// [`BLOCK_RECORDS`], refilled when none are left — or an empty
    /// slice at end of stream. Errors surface exactly where
    /// [`TraceSource::next_record`] reports them: after the last
    /// record decoded before the damage.
    pub fn next_block(&mut self) -> Result<&[(usize, u64)], TraceIoError> {
        if self.cursor == self.block.len() {
            self.refill()?;
        }
        let rest = &self.block[self.cursor..];
        self.cursor = self.block.len();
        Ok(rest)
    }

    /// Replaces the handed-out block with the next one and moves the
    /// instruments: one parse-latency sample (ns per record of this
    /// block) and one counter bump per refill.
    fn refill(&mut self) -> Result<(), TraceIoError> {
        let started = self.metrics.as_ref().map(|_| std::time::Instant::now());
        self.retired += self.block.len() as u64;
        self.block.clear();
        self.cursor = 0;
        let outcome = self.decode_block();
        if let (Some(m), Some(started)) = (&self.metrics, started) {
            let decoded = self.block.len() as u64;
            if decoded > 0 {
                m.records.add(decoded);
                m.parse_nanos
                    .observe(started.elapsed().as_nanos() as u64 / decoded);
            }
            if outcome.is_err() {
                m.malformed_fatal.inc();
            }
            let now = self.reader.bytes_read();
            m.bytes.add(now - self.synced_bytes);
            self.synced_bytes = now;
        }
        outcome
    }

    /// Fills the (empty) block from the staged ops, calling into the
    /// reader whenever they run out, until it holds at least one
    /// record, the stream ends (`Ok` with the block still empty) or an
    /// error is next in line.
    fn decode_block(&mut self) -> Result<(), TraceIoError> {
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        loop {
            if let Err(e) = self.expand() {
                if self.block.is_empty() {
                    return Err(e);
                }
                self.deferred = Some(e);
            }
            if !self.block.is_empty() {
                return Ok(());
            }
            // Nothing deliverable is staged: settle the error that
            // ended the last reader call, then read on.
            if let Some(e) = self.read_error.take() {
                if !(e.is_recoverable() && self.strictness == Strictness::Lenient) {
                    return Err(e);
                }
                if matches!(e, TraceIoError::LineTooLong { .. }) {
                    self.reader.resync()?;
                }
                self.note_malformed(&e);
            }
            self.ops.clear();
            self.next_op = 0;
            match self.reader.read_ops(&mut self.ops, BLOCK_RECORDS) {
                Ok(()) if self.ops.is_empty() => return Ok(()),
                Ok(()) => {}
                Err(e) => self.read_error = Some(e),
            }
            // The binary header (and its pre-mapped flag) is only
            // parsed with the first op, so the constructor's override
            // can miss it — re-check before mapping what was read.
            if self.reader.addrs_are_blocks() {
                self.map.block_bytes = 1;
            }
        }
    }

    /// Expands staged ops into records — attribution, block mapping,
    /// one record per block touched — until the block is full or the
    /// ops run out. In strict mode an op that fails attribution ends
    /// the pass with its error; a lenient pass notes it and moves on.
    fn expand(&mut self) -> Result<(), TraceIoError> {
        if let Some((tenant, first, last)) = self.wide.take() {
            self.emit_span(tenant, first, last);
        }
        while self.block.len() < BLOCK_RECORDS && self.next_op < self.ops.len() {
            let op = self.ops[self.next_op];
            self.next_op += 1;
            self.stats.ops += 1;
            let tenant = match self.resolver.resolve(op.thread, op.line, op.offset) {
                Ok(t) if t < self.tenants => t,
                Ok(t) => {
                    self.reject(TraceIoError::TenantOutOfRange {
                        line: op.line,
                        offset: op.offset,
                        tenant: t as u64,
                        tenants: self.tenants,
                    })?;
                    continue;
                }
                Err(e) => {
                    self.reject(e)?;
                    continue;
                }
            };
            let (first, last) = self.map.span(op.addr, op.size);
            if first == last {
                self.block.push((tenant, self.map.finish(first)));
            } else {
                self.emit_span(tenant, first, last);
            }
        }
        Ok(())
    }

    /// An op that failed attribution: skipped and noted by a lenient
    /// source, the strict source's next error.
    #[cold]
    fn reject(&mut self, e: TraceIoError) -> Result<(), TraceIoError> {
        if self.strictness == Strictness::Strict {
            return Err(e);
        }
        self.note_malformed(&e);
        Ok(())
    }

    /// Emits one record per block id in `first..=last` while the block
    /// has room (callers guarantee room for one) and parks the rest of
    /// a span that outlasts it for the next refill.
    fn emit_span(&mut self, tenant: usize, first: u64, last: u64) {
        let room = (BLOCK_RECORDS - self.block.len()) as u64;
        let end = first + (last - first).min(room - 1);
        let map = self.map;
        self.block
            .extend((first..=end).map(|block| (tenant, map.finish(block))));
        if end < last {
            self.wide = Some((tenant, end + 1, last));
        }
    }

    fn note_malformed(&mut self, e: &TraceIoError) {
        self.stats.malformed_skipped += 1;
        if let Some(m) = &self.metrics {
            m.malformed_skipped.inc();
        }
        if self.stats.malformed_report.len() < MALFORMED_REPORT_CAP {
            let (line, offset) = match e {
                TraceIoError::Malformed { line, offset, .. }
                | TraceIoError::LineTooLong { line, offset, .. }
                | TraceIoError::TenantOutOfRange { line, offset, .. }
                | TraceIoError::UnmappedThread { line, offset, .. } => (*line, *offset),
                _ => (0, e.offset().unwrap_or(0)),
            };
            self.stats
                .malformed_report
                .push((line, offset, e.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source_over(
        text: &'static str,
        format: TraceFormat,
        policy: TenantPolicy,
        map: BlockMap,
        tenants: usize,
        strictness: Strictness,
    ) -> TraceSource {
        TraceSource::from_read(
            Box::new(text.as_bytes()),
            format,
            policy,
            map,
            tenants,
            strictness,
        )
    }

    #[test]
    fn csv_to_canonical_records() {
        let mut s = source_over(
            "addr,tenant\n0,0\n64,1\n128,0\n",
            TraceFormat::Csv,
            TenantPolicy::Explicit,
            BlockMap::default(),
            2,
            Strictness::Strict,
        );
        let mut got = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            got.push(r);
        }
        assert_eq!(got, vec![(0, 0), (1, 1), (0, 2)]);
        let stats = s.stats();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.ops, 3);
        assert_eq!(stats.malformed_skipped, 0);
    }

    #[test]
    fn wide_text_op_expands_across_blocks() {
        // A 8-byte store at 60 straddles blocks 0 and 1 at 64-byte
        // granularity.
        let mut s = source_over(
            "T 0\n S 3c,8\n",
            TraceFormat::Text,
            TenantPolicy::Explicit,
            BlockMap::default(),
            1,
            Strictness::Strict,
        );
        let mut got = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            got.push(r);
        }
        assert_eq!(got, vec![(0, 0), (0, 1)]);
        assert_eq!(s.stats().ops, 1);
        assert_eq!(s.stats().records, 2);
    }

    #[test]
    fn strict_mode_stops_at_first_malformed_line() {
        let mut s = source_over(
            "10,0\nnot a row\n20,0\n",
            TraceFormat::Csv,
            TenantPolicy::Explicit,
            BlockMap::identity(),
            1,
            Strictness::Strict,
        );
        assert_eq!(s.next_record().unwrap(), Some((0, 10)));
        let err = s.next_record().unwrap_err();
        assert!(err.is_recoverable());
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn lenient_mode_skips_and_reports() {
        let mut s = source_over(
            "10,0\nnot a row\n20,9\n30,0\n",
            TraceFormat::Csv,
            TenantPolicy::Explicit,
            BlockMap::identity(),
            1,
            Strictness::Lenient,
        );
        let mut got = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            got.push(r);
        }
        assert_eq!(got, vec![(0, 10), (0, 30)]);
        let stats = s.stats();
        assert_eq!(stats.malformed_skipped, 2, "bad row + tenant 9 of 1");
        assert_eq!(stats.malformed_report.len(), 2);
        assert!(stats.malformed_report[1].2.contains("out of range"));
    }

    #[test]
    fn sniff_distinguishes_the_three_formats() {
        assert_eq!(TraceFormat::sniff(b"CPST\x01\x00"), TraceFormat::Binary);
        assert_eq!(
            TraceFormat::sniff(b"# comment\nI 0400d7d4,8\n"),
            TraceFormat::Text
        );
        assert_eq!(TraceFormat::sniff(b"addr,tenant\n10,0\n"), TraceFormat::Csv);
        assert_eq!(TraceFormat::sniff(b"1234,0,9\n"), TraceFormat::Csv);
        assert_eq!(TraceFormat::sniff(b"T 0\n L ff,1\n"), TraceFormat::Text);
    }

    #[test]
    fn premapped_binary_defeats_the_default_block_map() {
        // A converted binary trace carries block ids; replaying it with
        // the default 64-byte map must NOT divide them again — the
        // pre-mapped header flag (parsed lazily with the first record)
        // forces the identity mapping.
        let mut buf = Vec::new();
        let mut w = crate::binary::BinaryWriter::new(&mut buf, 64).unwrap();
        for &(t, b) in &[(0u64, 7u64), (1, 1 << 48), (0, 9)] {
            w.write_record(t, b).unwrap();
        }
        w.finish().unwrap();
        let mut s = TraceSource::from_read(
            Box::new(std::io::Cursor::new(buf)),
            TraceFormat::Binary,
            TenantPolicy::Explicit,
            BlockMap::default(),
            2,
            Strictness::Strict,
        );
        let mut got = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            got.push(r);
        }
        assert_eq!(got, vec![(0, 7), (1, 1 << 48), (0, 9)]);
    }

    #[test]
    fn the_block_and_its_staging_are_allocated_once() {
        // Wide ops (16 blocks each) overfill a block from fewer ops than
        // it has room for; narrow ones fill the staging area first.
        let mut text = String::from("T 0\n");
        for i in 0..3 * BLOCK_RECORDS {
            let size = if i % 2 == 0 { 1024 } else { 1 };
            text.push_str(&format!(" L {:x},{size}\n", i * 4096));
        }
        let mut s = TraceSource::from_read(
            Box::new(std::io::Cursor::new(text.into_bytes())),
            TraceFormat::Text,
            TenantPolicy::Explicit,
            BlockMap::default(),
            1,
            Strictness::Strict,
        );
        let (block_cap, ops_cap) = (s.block.capacity(), s.ops.capacity());
        let mut records = 0;
        loop {
            let n = s.next_block().unwrap().len();
            if n == 0 {
                break;
            }
            records += n;
            assert!(s.block.len() <= BLOCK_RECORDS && s.ops.len() <= BLOCK_RECORDS);
            assert_eq!((s.block.capacity(), s.ops.capacity()), (block_cap, ops_cap));
        }
        assert_eq!(records, 3 * BLOCK_RECORDS / 2 * 17);
    }

    #[test]
    fn round_robin_fallback_needs_no_attribution() {
        let mut s = source_over(
            "addr\n0\n64\n128\n192\n",
            TraceFormat::Csv,
            TenantPolicy::RoundRobin(2),
            BlockMap::default(),
            2,
            Strictness::Strict,
        );
        let mut got = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            got.push(r);
        }
        assert_eq!(got, vec![(0, 0), (1, 1), (0, 2), (1, 3)]);
    }
}
