//! Streaming boundedness: a multi-hundred-megabyte log must flow
//! through the full reader pipeline without the resident buffer ever
//! growing past the fixed scan-buffer cap, a block of at most
//! `BLOCK_RECORDS` decoded records at a time. The input is synthesized
//! lazily by a generator `Read` — no disk, no materialized input — so
//! the only memory the pipeline can possibly hold is its own.

use cps_traceio::{BlockMap, Strictness, TenantPolicy, TraceFormat, TraceSource, BLOCK_RECORDS};
use std::io::Read;

/// Lazily generates a valid text-format log of `total` bytes: a
/// repeating mix of thread markers, comments, and load ops.
struct SyntheticLog {
    total: u64,
    emitted: u64,
    line: u64,
    pending: Vec<u8>,
}

impl SyntheticLog {
    fn new(total: u64) -> Self {
        SyntheticLog {
            total,
            emitted: 0,
            line: 0,
            pending: Vec::new(),
        }
    }

    fn next_line(&mut self) -> Vec<u8> {
        self.line += 1;
        let n = self.line;
        match n % 64 {
            0 => format!("T {}\n", n % 7).into_bytes(),
            1 => b"# synthetic log line\n".to_vec(),
            _ => format!(
                " L {:x},{}\n",
                (n.wrapping_mul(0x9e37)) % (1 << 30),
                1 + n % 8
            )
            .into_bytes(),
        }
    }
}

impl Read for SyntheticLog {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            if self.emitted >= self.total {
                return Ok(0);
            }
            self.pending = self.next_line();
        }
        let n = self.pending.len().min(buf.len());
        buf[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        self.emitted += n as u64;
        Ok(n)
    }
}

/// 120 MB of text log through the full pipeline: every record consumed,
/// resident bytes never above the fixed scan-buffer capacity, no block
/// above its fixed size.
#[test]
fn hundred_megabyte_log_streams_in_constant_memory() {
    const TOTAL: u64 = 120 * 1024 * 1024;
    let mut source = TraceSource::from_read(
        Box::new(SyntheticLog::new(TOTAL)),
        TraceFormat::Text,
        TenantPolicy::Explicit,
        BlockMap::default(),
        8,
        Strictness::Strict,
    );
    let mut records = 0u64;
    let mut checksum = 0u64;
    loop {
        let block = match source.next_block() {
            Ok([]) => break,
            Ok(block) => block,
            Err(e) => panic!("streaming a valid log failed: {e}"),
        };
        assert!(
            block.len() <= BLOCK_RECORDS,
            "a decoded block of {} records",
            block.len()
        );
        records += block.len() as u64;
        for &(tenant, id) in block {
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(tenant as u64)
                .wrapping_add(id);
        }
    }
    let stats = source.stats();
    assert!(records > 5_000_000, "only {records} records from 120MB");
    assert!(stats.bytes_read >= TOTAL, "read {} bytes", stats.bytes_read);
    assert!(
        stats.max_resident_bytes <= cps_traceio::scan::DEFAULT_BUF_CAP,
        "resident high-water {} exceeds the {}-byte cap",
        stats.max_resident_bytes,
        cps_traceio::scan::DEFAULT_BUF_CAP
    );
    assert_ne!(checksum, 0, "records were actually consumed");
}
