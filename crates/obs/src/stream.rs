//! The journal as a stream: a [`JournalStream`] writes each line as
//! its epoch is booked and keeps O(1) state behind.

use crate::journal::{EpochEvent, Journal, MigrationEvent, RunHeader, RunSummary, TotalOverflow};
use crate::span::StageTimings;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// The FNV-1a 64-bit offset basis: the digest of no bytes.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes`, continued from `hash` (start from
/// [`FNV1A_BASIS`]). The one copy in the workspace.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    bytes.iter().fold(hash, step)
}

/// How a streamed run ended — what two runs are compared by without
/// either keeping its body. Runs of one stream through one engine have
/// equal digests at every shard count, in process or served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunDigest {
    /// The summary line (its `timings` are wall clock).
    pub summary: RunSummary,
    /// [`Journal::digest`]: FNV-1a of the canonical lines after the
    /// run header.
    pub digest: u64,
}

/// A journal written as its run goes. The sink — a `--journal` file,
/// or a [`MemorySink`] in tests and in-process references — receives
/// the header, each epoch line (flushed, so a killed writer leaves a
/// valid prefix) and the summary: what [`Journal::render`] writes. The
/// stream keeps only the epoch count, the running totals and the
/// running digest.
pub struct JournalStream {
    sink: Option<Box<dyn Write + Send>>,
    /// The sink's first error; the sink is dropped then, and
    /// [`finish`](Self::finish) reports it.
    failed: Option<io::Error>,
    summary: RunSummary,
    digest: u64,
}

impl Default for JournalStream {
    fn default() -> Self {
        JournalStream {
            sink: None,
            failed: None,
            summary: RunSummary::default(),
            digest: FNV1A_BASIS,
        }
    }
}

impl JournalStream {
    /// Starts writing to `sink`: the run header goes out at once.
    pub fn attach(&mut self, header: &RunHeader, sink: Box<dyn Write + Send>) {
        self.sink = Some(sink);
        self.write(&mut header.to_json_line());
    }

    /// Epochs booked so far.
    pub fn epochs(&self) -> usize {
        self.summary.epochs
    }

    /// Books `event` into the totals, the digest and the sink, and
    /// returns its line (to fan out the same text).
    pub fn book(&mut self, event: &EpochEvent) -> Result<String, TotalOverflow> {
        self.summary.add(event)?;
        let (mut line, canonical) = event.lines();
        self.fold(&canonical);
        self.write(&mut line);
        Ok(line)
    }

    /// Books `migration`, made at the boundary booked last, into the
    /// digest and the sink, right after that epoch's line.
    pub fn book_migration(&mut self, migration: &MigrationEvent) {
        let mut line = migration.to_json_line();
        self.fold(&line);
        self.write(&mut line);
    }

    /// Writes the summary line and returns the run's totals and digest,
    /// or the sink's first error.
    pub fn finish(mut self) -> io::Result<RunDigest> {
        self.write(&mut self.summary.to_json_line());
        let canonical = RunSummary {
            timings: StageTimings::default(),
            ..self.summary.clone()
        };
        self.fold(&canonical.to_json_line());
        let (summary, digest) = (self.summary, self.digest);
        self.failed.map_or(Ok(RunDigest { summary, digest }), Err)
    }

    fn fold(&mut self, line: &str) {
        self.digest = fnv1a(fnv1a(self.digest, line.as_bytes()), b"\n");
    }

    /// Writes `line` and its newline in one call, then flushes.
    fn write(&mut self, line: &mut String) {
        if let Some(sink) = &mut self.sink {
            line.push('\n');
            let written = sink.write_all(line.as_bytes()).and_then(|()| sink.flush());
            line.pop();
            if let Err(e) = written {
                self.failed = Some(e);
                self.sink = None;
            }
        }
    }
}

/// An in-memory journal sink for tests and in-process references: a
/// shared buffer every clone appends to.
#[derive(Clone, Default)]
pub struct MemorySink(Arc<Mutex<Vec<u8>>>);

impl MemorySink {
    /// Everything written so far.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap_or_else(|e| e.into_inner())).into_owned()
    }

    /// [`Journal::parse`] of everything written so far.
    pub fn journal(&self) -> Result<Journal, String> {
        Journal::parse(&self.text())
    }
}

impl Write for MemorySink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut bytes = self.0.lock().unwrap_or_else(|e| e.into_inner());
        bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::NodeSpan;
    use crate::span::StageTimings;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV1A_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV1A_BASIS, b"foo"), b"bar"),
            fnv1a(FNV1A_BASIS, b"foobar")
        );
    }

    /// Streamed epochs and migrations write what `Journal::render`
    /// writes, byte for byte, and end on the totals and digest the
    /// parsed text has.
    #[test]
    fn a_stream_writes_the_rendered_journal_and_its_digest() {
        let header = RunHeader {
            engine: "cluster".into(),
            tenants: 2,
            units: 8,
            bpu: 1,
            epoch_length: 10,
            shards: 2,
            policy: "cluster".into(),
            objective: "miss-ratio".into(),
        };
        let epochs: Vec<EpochEvent> = (0..5)
            .map(|epoch| EpochEvent {
                epoch,
                start_nanos: 100 * epoch as u64,
                objective: "miss-ratio".into(),
                allocation: vec![epoch + 1, 7 - epoch],
                accesses: vec![6, 4],
                misses: vec![epoch as u64, 1],
                predicted_cost: Some(0.25 * epoch as f64),
                trace: Some(epoch as u64),
                repartitioned: epoch % 2 == 1,
                units_moved: epoch,
                timings: StageTimings {
                    solve_nanos: 7 + epoch as u64,
                    ..StageTimings::default()
                },
                spans: vec![NodeSpan::default()],
            })
            .collect();
        // A cluster boundary that re-homes a tenant books its
        // migration right after its epoch line.
        let migration = MigrationEvent {
            epoch: 2,
            tenant: 1,
            from: 0,
            to: 1,
            gain: Some(0.125),
        };
        let book_all = |stream: &mut JournalStream| {
            for e in &epochs {
                assert_eq!(stream.book(e), Ok(e.to_json_line()));
                if e.epoch == migration.epoch {
                    stream.book_migration(&migration);
                }
            }
        };
        let sink = MemorySink::default();
        let mut stream = JournalStream::default();
        stream.attach(&header, Box::new(sink.clone()));
        book_all(&mut stream);
        assert_eq!(stream.epochs(), 5);
        let end = stream.finish().unwrap();
        let journal = Journal {
            header,
            summary: (epochs.iter())
                .try_fold(RunSummary::default(), |mut s, e| s.add(e).map(|()| s))
                .unwrap(),
            epochs: epochs.clone(),
            migrations: vec![migration],
        };
        assert_eq!(sink.text(), journal.render());
        assert_eq!(sink.journal(), Ok(journal.clone()));
        assert_eq!(end.summary, journal.summary);
        assert_eq!(end.digest, journal.digest());
        // Without a sink the digest is the same.
        let mut bare = JournalStream::default();
        book_all(&mut bare);
        assert_eq!(bare.finish().unwrap().digest, end.digest);
        // The migration line counts toward the digest.
        let mut unmoved = JournalStream::default();
        for e in &epochs {
            unmoved.book(e).unwrap();
        }
        assert_ne!(unmoved.finish().unwrap().digest, end.digest);
    }
}
