//! The compact `CPST` binary record format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header (16 bytes):
//!   magic      [4]  = "CPST"
//!   version    u16  = 1
//!   flags      u16       bit 0: records carry a trailing tstamp u64
//!                        bit 1: addresses are block ids (pre-mapped)
//!   block_bytes u32      provenance: the granularity addresses were
//!                        mapped at (0 = unknown / raw byte addresses)
//!   reserved   u32       written 0, ignored on read
//! record (10 or 18 bytes):
//!   tenant     u16
//!   addr       u64
//!   tstamp     u64       only when flags bit 0 is set
//! ```
//!
//! The format exists to make repeat runs fast: `cps trace convert`
//! bakes tenancy and block mapping into it once, and every later replay
//! streams fixed-size records with no text parsing at all. Bit 1 tells
//! readers the mapping is already applied, so replays default to the
//! identity block map instead of dividing twice.

use crate::error::TraceIoError;
use crate::scan::ByteScanner;
use crate::source::{RawOp, RawTraceReader};
use std::io::{Read, Write};

/// The four magic bytes opening every binary trace.
pub const MAGIC: &[u8; 4] = b"CPST";

/// The format version this crate reads and writes.
pub const VERSION: u16 = 1;

/// Flag bit 0: each record carries a trailing `u64` timestamp.
pub const FLAG_TSTAMP: u16 = 1 << 0;

/// Flag bit 1: addresses are block ids; the mapping is already baked.
pub const FLAG_PREMAPPED: u16 = 1 << 1;

const KNOWN_FLAGS: u16 = FLAG_TSTAMP | FLAG_PREMAPPED;

/// Header length in bytes.
pub const HEADER_LEN: usize = 16;

/// Record length in bytes without the optional timestamp.
pub const RECORD_LEN: usize = 10;

/// The parsed binary header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinaryHeader {
    /// Raw flags field.
    pub flags: u16,
    /// Provenance granularity (0 = unknown / raw byte addresses).
    pub block_bytes: u32,
}

impl BinaryHeader {
    /// True when records carry a trailing timestamp.
    pub fn has_tstamp(&self) -> bool {
        self.flags & FLAG_TSTAMP != 0
    }

    /// True when addresses are pre-mapped block ids.
    pub fn premapped(&self) -> bool {
        self.flags & FLAG_PREMAPPED != 0
    }

    /// Bytes per record under these flags.
    fn record_len(&self) -> usize {
        if self.has_tstamp() {
            RECORD_LEN + 8
        } else {
            RECORD_LEN
        }
    }
}

/// Streaming reader for the binary format.
pub struct BinaryReader<R: Read> {
    scan: ByteScanner<R>,
    header: Option<BinaryHeader>,
    tstamp_span: Option<(u64, u64)>,
}

impl<R: Read> BinaryReader<R> {
    /// Wraps `inner` with the default fixed scan buffer.
    pub fn new(inner: R) -> Self {
        Self::with_capacity(inner, crate::scan::DEFAULT_BUF_CAP)
    }

    /// Wraps `inner` with a fixed scan buffer of `cap` bytes.
    pub fn with_capacity(inner: R, cap: usize) -> Self {
        BinaryReader {
            scan: ByteScanner::with_capacity(inner, cap),
            header: None,
            tstamp_span: None,
        }
    }

    /// The parsed header, once the first record (or EOF) has been read.
    pub fn header(&self) -> Option<BinaryHeader> {
        self.header
    }

    /// The `(min, max)` timestamp span seen, when the flag is set.
    pub fn tstamp_span(&self) -> Option<(u64, u64)> {
        self.tstamp_span
    }

    fn header_or_read(&mut self) -> Result<BinaryHeader, TraceIoError> {
        match self.header {
            Some(h) => Ok(h),
            None => self.read_header(),
        }
    }

    fn read_header(&mut self) -> Result<BinaryHeader, TraceIoError> {
        let bytes = match self.scan.next_exact(HEADER_LEN)? {
            Some(b) => b,
            None => {
                // An empty stream has no magic at all.
                return Err(TraceIoError::BadMagic { found: [0; 4] });
            }
        };
        if &bytes[0..4] != MAGIC {
            return Err(TraceIoError::BadMagic {
                found: [bytes[0], bytes[1], bytes[2], bytes[3]],
            });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(TraceIoError::UnsupportedVersion { found: version });
        }
        let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
        if flags & !KNOWN_FLAGS != 0 {
            return Err(TraceIoError::BadFlags { found: flags });
        }
        let block_bytes = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let header = BinaryHeader { flags, block_bytes };
        self.header = Some(header);
        Ok(header)
    }
}

/// The tenant and address fields of one record.
#[inline]
fn decode(rec: &[u8], offset: u64) -> RawOp {
    RawOp {
        thread: u16::from_le_bytes([rec[0], rec[1]]) as u64,
        addr: u64::from_le_bytes(rec[2..RECORD_LEN].try_into().expect("10-byte record")),
        size: 1,
        line: 0,
        offset,
    }
}

/// Widens `span` by the trailing timestamp of an 18-byte record.
fn note_tstamp(span: &mut Option<(u64, u64)>, rec: &[u8]) {
    let ts = u64::from_le_bytes(rec[RECORD_LEN..].try_into().expect("18-byte record"));
    *span = Some(span.map_or((ts, ts), |(lo, hi)| (lo.min(ts), hi.max(ts))));
}

impl<R: Read> RawTraceReader for BinaryReader<R> {
    fn next_op(&mut self) -> Result<Option<RawOp>, TraceIoError> {
        let header = self.header_or_read()?;
        let offset = self.scan.offset();
        let Some(rec) = self.scan.next_exact(header.record_len())? else {
            return Ok(None);
        };
        if header.has_tstamp() {
            note_tstamp(&mut self.tstamp_span, rec);
        }
        Ok(Some(decode(rec, offset)))
    }

    /// Decodes every whole record the scanner already holds (at most
    /// `max`) in one pass: fixed-width records need no scanner call,
    /// range check or `Result` apiece.
    fn read_ops(&mut self, out: &mut Vec<RawOp>, max: usize) -> Result<(), TraceIoError> {
        let header = self.header_or_read()?;
        let rec_len = header.record_len();
        let base = self.scan.offset();
        let held = self.scan.peek_records(rec_len)?;
        let take = (held.len() / rec_len).min(max);
        let held = &held[..take * rec_len];
        let offsets = (base..).step_by(rec_len);
        if header.has_tstamp() {
            for (rec, offset) in held.chunks_exact(RECORD_LEN + 8).zip(offsets) {
                note_tstamp(&mut self.tstamp_span, rec);
                out.push(decode(rec, offset));
            }
        } else {
            out.extend(
                held.chunks_exact(RECORD_LEN)
                    .zip(offsets)
                    .map(|(rec, offset)| decode(rec, offset)),
            );
        }
        self.scan.consume(take * rec_len);
        Ok(())
    }

    fn bytes_read(&self) -> u64 {
        self.scan.bytes_read()
    }

    fn max_resident_bytes(&self) -> usize {
        self.scan.max_resident_bytes()
    }

    fn addrs_are_blocks(&self) -> bool {
        self.header.is_some_and(|h| h.premapped())
    }
}

/// Writes canonical `(tenant, block)` records in the binary format with
/// the pre-mapped flag set.
pub struct BinaryWriter<W: Write> {
    out: W,
    records: u64,
}

impl<W: Write> BinaryWriter<W> {
    /// Starts a writer, emitting the header. `block_bytes` records the
    /// granularity the addresses were mapped at (provenance only).
    pub fn new(mut out: W, block_bytes: u32) -> std::io::Result<Self> {
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        header[6..8].copy_from_slice(&FLAG_PREMAPPED.to_le_bytes());
        header[8..12].copy_from_slice(&block_bytes.to_le_bytes());
        out.write_all(&header)?;
        Ok(BinaryWriter { out, records: 0 })
    }

    /// Appends one record. Tenant ids above `u16::MAX` do not fit the
    /// format and are an error.
    pub fn write_record(&mut self, tenant: u64, block: u64) -> std::io::Result<()> {
        let tenant: u16 = tenant.try_into().map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("tenant {tenant} exceeds the binary format's u16 tenant field"),
            )
        })?;
        let mut rec = [0u8; RECORD_LEN];
        rec[0..2].copy_from_slice(&tenant.to_le_bytes());
        rec[2..10].copy_from_slice(&block.to_le_bytes());
        self.out.write_all(&rec)?;
        self.records += 1;
        Ok(())
    }

    /// Flushes and returns the record count.
    pub fn finish(mut self) -> std::io::Result<u64> {
        self.out.flush()?;
        Ok(self.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(records: &[(u64, u64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf, 64).unwrap();
        for &(t, b) in records {
            w.write_record(t, b).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    fn read(bytes: &[u8]) -> Result<Vec<RawOp>, TraceIoError> {
        let mut r = BinaryReader::new(bytes);
        let mut out = Vec::new();
        while let Some(op) = r.next_op()? {
            out.push(op);
        }
        Ok(out)
    }

    #[test]
    fn write_read_round_trip() {
        let records = [(0u64, 7u64), (65535, u64::MAX), (3, 0)];
        let buf = write(&records);
        assert_eq!(buf.len(), HEADER_LEN + 3 * RECORD_LEN);
        let got = read(&buf).unwrap();
        let back: Vec<(u64, u64)> = got.iter().map(|o| (o.thread, o.addr)).collect();
        assert_eq!(back, records);
    }

    #[test]
    fn premapped_flag_survives_the_round_trip() {
        let buf = write(&[(0, 1)]);
        let mut r = BinaryReader::new(&buf[..]);
        assert!(!r.addrs_are_blocks(), "header not read yet");
        r.next_op().unwrap();
        assert!(r.addrs_are_blocks());
        let h = r.header().unwrap();
        assert!(h.premapped());
        assert!(!h.has_tstamp());
        assert_eq!(h.block_bytes, 64);
    }

    #[test]
    fn bad_magic_version_flags_are_typed() {
        let good = write(&[(0, 1)]);
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read(&bad),
            Err(TraceIoError::BadMagic { found }) if &found == b"XPST"
        ));
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            read(&bad),
            Err(TraceIoError::UnsupportedVersion { found: 9 })
        ));
        let mut bad = good.clone();
        bad[7] = 0x80;
        assert!(matches!(read(&bad), Err(TraceIoError::BadFlags { .. })));
    }

    #[test]
    fn truncated_tail_is_typed() {
        let buf = write(&[(0, 1), (0, 2)]);
        let cut = &buf[..buf.len() - 3];
        let err = read(cut).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::TruncatedRecord {
                have: 7,
                need: 10,
                ..
            }
        ));
        assert!(!err.is_recoverable());
    }

    #[test]
    fn empty_and_tiny_streams_are_bad_magic_or_truncated() {
        assert!(matches!(read(b""), Err(TraceIoError::BadMagic { .. })));
        assert!(matches!(
            read(b"CP"),
            Err(TraceIoError::TruncatedRecord { .. })
        ));
    }

    #[test]
    fn tstamp_records_parse_and_span() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&FLAG_TSTAMP.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        for (t, a, ts) in [(1u16, 100u64, 70u64), (2, 200, 30)] {
            buf.extend_from_slice(&t.to_le_bytes());
            buf.extend_from_slice(&a.to_le_bytes());
            buf.extend_from_slice(&ts.to_le_bytes());
        }
        let mut r = BinaryReader::new(&buf[..]);
        let mut got = Vec::new();
        while let Some(op) = r.next_op().unwrap() {
            got.push((op.thread, op.addr));
        }
        assert_eq!(got, vec![(1, 100), (2, 200)]);
        assert_eq!(r.tstamp_span(), Some((30, 70)));
        assert!(!r.addrs_are_blocks());
    }

    #[test]
    fn read_ops_decodes_what_next_op_would() {
        // Plain and timestamped bodies through a 64-byte scan buffer, so
        // most calls end at a refill rather than at `max`.
        let records: Vec<(u16, u64, u64)> = (0..100u64)
            .map(|i| (i as u16 % 7, i * 0x0101_0101_0101, 1000 - i * 3))
            .collect();
        for flags in [FLAG_PREMAPPED, FLAG_TSTAMP] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&VERSION.to_le_bytes());
            buf.extend_from_slice(&flags.to_le_bytes());
            buf.extend_from_slice(&[0u8; 8]);
            for &(t, a, ts) in &records {
                buf.extend_from_slice(&t.to_le_bytes());
                buf.extend_from_slice(&a.to_le_bytes());
                if flags == FLAG_TSTAMP {
                    buf.extend_from_slice(&ts.to_le_bytes());
                }
            }
            let want = read(&buf).unwrap();
            assert_eq!(want.len(), records.len());

            let mut r = BinaryReader::with_capacity(&buf[..], 64);
            let mut got = Vec::new();
            loop {
                let before = got.len();
                r.read_ops(&mut got, 4).unwrap();
                assert!(got.len() - before <= 4, "more than `max` ops");
                if got.len() == before {
                    break;
                }
            }
            assert_eq!(got, want, "flags {flags}: ops, offsets included");
            let span = (flags == FLAG_TSTAMP).then_some((1000 - 99 * 3, 1000));
            assert_eq!(r.tstamp_span(), span);

            // A ragged tail: every whole record first, the typed error
            // on the call after them, then a clean end.
            let mut r = BinaryReader::new(&buf[..buf.len() - 3]);
            let mut got = Vec::new();
            r.read_ops(&mut got, 1000).unwrap();
            assert_eq!(got, want[..99]);
            let err = r.read_ops(&mut got, 1000).unwrap_err();
            let need = (buf.len() - HEADER_LEN) / records.len();
            assert!(
                matches!(err, TraceIoError::TruncatedRecord { offset, have, need: n }
                    if offset == want[99].offset && have == need - 3 && n == need),
                "{err:?}"
            );
            r.read_ops(&mut got, 1000).unwrap();
            assert_eq!(got.len(), 99, "EOF after the error");
        }
    }

    #[test]
    fn oversized_tenant_is_a_writer_error() {
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf, 0).unwrap();
        assert!(w.write_record(1 << 20, 5).is_err());
    }
}
