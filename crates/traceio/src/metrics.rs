//! `cps_traceio_*` instruments, registered through `cps-obs`.
//!
//! One instrument set per reader attachment; every counter is a relaxed
//! atomic handle moved once per decoded block (at most
//! [`BLOCK_RECORDS`](crate::BLOCK_RECORDS) records), never per record:
//! one `fetch_add` each for records and bytes, and one parse-latency
//! sample — the refill's wall time divided by the records it decoded,
//! two clock reads per block. At end of stream the record and byte
//! counters equal the records handed out and the bytes read.

use cps_obs::metrics::{Counter, Histogram, MetricsRegistry};

/// The trace-ingestion instrument set.
#[derive(Clone)]
pub struct TraceIoMetrics {
    /// `cps_traceio_records_total` — canonical records emitted.
    pub records: Counter,
    /// `cps_traceio_bytes_read_total` — bytes pulled from the input.
    pub bytes: Counter,
    /// `cps_traceio_malformed_skipped_total` — lenient-mode skips.
    pub malformed_skipped: Counter,
    /// `cps_traceio_malformed_fatal_total` — strict-mode (or fatal)
    /// parse failures.
    pub malformed_fatal: Counter,
    /// `cps_traceio_parse_nanos` — parse latency in ns per record, one
    /// sample per decoded block.
    pub parse_nanos: Histogram,
}

impl TraceIoMetrics {
    /// Registers the instrument set in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        TraceIoMetrics {
            records: registry.counter(
                "cps_traceio_records_total",
                "canonical (tenant, block) records emitted by trace readers",
            ),
            bytes: registry.counter(
                "cps_traceio_bytes_read_total",
                "bytes read from external trace inputs",
            ),
            malformed_skipped: registry.counter(
                "cps_traceio_malformed_skipped_total",
                "malformed lines/records skipped in lenient mode",
            ),
            malformed_fatal: registry.counter(
                "cps_traceio_malformed_fatal_total",
                "parse errors that stopped a read",
            ),
            parse_nanos: registry.histogram(
                "cps_traceio_parse_nanos",
                "parse latency in ns per record, one sample per decoded block",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_register_and_count() {
        let registry = MetricsRegistry::new();
        let m = TraceIoMetrics::register(&registry);
        m.records.add(5);
        m.bytes.add(100);
        m.malformed_skipped.inc();
        m.parse_nanos.observe(1234);
        let snap = registry.snapshot();
        let text = snap.render_prometheus();
        assert!(text.contains("cps_traceio_records_total 5"), "{text}");
        assert!(text.contains("cps_traceio_bytes_read_total 100"), "{text}");
        assert!(
            text.contains("cps_traceio_malformed_skipped_total 1"),
            "{text}"
        );
        assert!(text.contains("cps_traceio_parse_nanos"), "{text}");
    }
}
