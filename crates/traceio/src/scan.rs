//! Fixed-buffer incremental scanning over any byte stream.
//!
//! [`ByteScanner`] is the memory-boundedness guarantee behind every
//! reader in this crate: it owns one fixed-capacity buffer (allocated
//! once, never grown) and serves lines or exact-length byte runs out of
//! it, refilling from the underlying [`Read`] as needed. A multi-GB log
//! therefore streams through at most `capacity` resident bytes, and the
//! high-water mark is observable via
//! [`ByteScanner::max_resident_bytes`] so tests can *assert* the bound
//! instead of trusting it.

use crate::error::TraceIoError;
use std::io::Read;

/// Default fixed buffer capacity: 64 KiB.
pub const DEFAULT_BUF_CAP: usize = 64 * 1024;

/// A line or record scanner with one fixed, never-growing buffer.
pub struct ByteScanner<R: Read> {
    inner: R,
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    /// Global stream offset of `buf[start]`.
    offset: u64,
    eof: bool,
    max_resident: usize,
    bytes_read: u64,
}

impl<R: Read> ByteScanner<R> {
    /// Wraps `inner` with the default 64 KiB buffer.
    pub fn new(inner: R) -> Self {
        Self::with_capacity(inner, DEFAULT_BUF_CAP)
    }

    /// Wraps `inner` with a fixed buffer of `cap` bytes.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn with_capacity(inner: R, cap: usize) -> Self {
        assert!(cap > 0, "scanner buffer needs at least one byte");
        ByteScanner {
            inner,
            buf: vec![0u8; cap].into_boxed_slice(),
            start: 0,
            end: 0,
            offset: 0,
            eof: false,
            max_resident: 0,
            bytes_read: 0,
        }
    }

    /// The fixed buffer capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Global stream offset of the next unconsumed byte.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Total bytes pulled from the underlying reader so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// High-water mark of resident (buffered, unconsumed) bytes — by
    /// construction never more than [`ByteScanner::capacity`].
    pub fn max_resident_bytes(&self) -> usize {
        self.max_resident
    }

    /// Compacts and refills the buffer; returns bytes newly read (0 at
    /// EOF or when the buffer is already full).
    fn fill(&mut self) -> Result<usize, TraceIoError> {
        if self.eof {
            return Ok(0);
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            return Ok(0); // full: caller decides (line too long / record fits)
        }
        let got = self
            .inner
            .read(&mut self.buf[self.end..])
            .map_err(|e| TraceIoError::Io {
                offset: self.offset + (self.end - self.start) as u64,
                source: e,
            })?;
        if got == 0 {
            self.eof = true;
        }
        self.end += got;
        self.bytes_read += got as u64;
        self.max_resident = self.max_resident.max(self.end - self.start);
        Ok(got)
    }

    fn advance(&mut self, n: usize) {
        debug_assert!(self.start + n <= self.end);
        self.start += n;
        self.offset += n as u64;
    }

    /// The next line, without its terminator (`\n`, with a preceding
    /// `\r` stripped), plus the global byte offset of its first byte.
    /// Returns `Ok(None)` at a clean end of stream. A line longer than
    /// the buffer is a recoverable [`TraceIoError::LineTooLong`] —
    /// follow it with [`ByteScanner::discard_line`] to resynchronize.
    ///
    /// `line` is the 1-based number reported in the error.
    pub fn next_line(&mut self, line: u64) -> Result<Option<(&[u8], u64)>, TraceIoError> {
        loop {
            let window = &self.buf[self.start..self.end];
            if let Some(nl) = window.iter().position(|&b| b == b'\n') {
                let line_offset = self.offset;
                let mut len = nl;
                if len > 0 && self.buf[self.start + len - 1] == b'\r' {
                    len -= 1;
                }
                let range = self.start..self.start + len;
                self.advance(nl + 1);
                return Ok(Some((&self.buf[range], line_offset)));
            }
            if self.eof {
                if self.start == self.end {
                    return Ok(None);
                }
                // Final line without a trailing newline.
                let line_offset = self.offset;
                let mut len = self.end - self.start;
                if self.buf[self.start + len - 1] == b'\r' {
                    len -= 1;
                }
                let range = self.start..self.start + len;
                self.advance(self.end - self.start);
                return Ok(Some((&self.buf[range], line_offset)));
            }
            if self.end - self.start == self.buf.len() {
                return Err(TraceIoError::LineTooLong {
                    line,
                    offset: self.offset,
                    cap: self.buf.len(),
                });
            }
            self.fill()?;
        }
    }

    /// Drops input until just past the next newline (or EOF) without
    /// ever holding more than the fixed buffer — the lenient-mode
    /// recovery for [`TraceIoError::LineTooLong`].
    pub fn discard_line(&mut self) -> Result<(), TraceIoError> {
        loop {
            let window = &self.buf[self.start..self.end];
            if let Some(nl) = window.iter().position(|&b| b == b'\n') {
                self.advance(nl + 1);
                return Ok(());
            }
            let len = self.end - self.start;
            self.advance(len);
            if self.eof {
                return Ok(());
            }
            self.fill()?;
        }
    }

    /// Refills until `n` bytes are resident. `Ok(false)` at a clean
    /// record boundary at EOF; a stream that dies mid-record is a
    /// [`TraceIoError::TruncatedRecord`] and its ragged tail is dropped.
    fn ensure(&mut self, n: usize) -> Result<bool, TraceIoError> {
        assert!(n > 0 && n <= self.buf.len(), "record must fit the buffer");
        while self.end - self.start < n {
            if self.eof {
                let have = self.end - self.start;
                if have == 0 {
                    return Ok(false);
                }
                let offset = self.offset;
                self.advance(have);
                return Err(TraceIoError::TruncatedRecord {
                    offset,
                    have,
                    need: n,
                });
            }
            self.fill()?;
        }
        Ok(true)
    }

    /// Exactly `n` bytes, or `Ok(None)` at a clean record boundary at
    /// EOF, or [`TraceIoError::TruncatedRecord`] when the stream dies
    /// mid-record.
    ///
    /// # Panics
    /// Panics if `n` exceeds the buffer capacity or is zero.
    pub fn next_exact(&mut self, n: usize) -> Result<Option<&[u8]>, TraceIoError> {
        if !self.ensure(n)? {
            return Ok(None);
        }
        let range = self.start..self.start + n;
        self.advance(n);
        Ok(Some(&self.buf[range]))
    }

    /// Every whole `n`-byte record resident right now, unconsumed —
    /// the block-decode half of [`ByteScanner::next_exact`], with the
    /// same contract: the buffer is refilled only when it holds less
    /// than one record, the slice is empty only at a clean record
    /// boundary at EOF, and a ragged tail is a
    /// [`TraceIoError::TruncatedRecord`] *after* every whole record
    /// before it has been shown. Follow with [`ByteScanner::consume`].
    ///
    /// # Panics
    /// Panics if `n` exceeds the buffer capacity or is zero.
    pub(crate) fn peek_records(&mut self, n: usize) -> Result<&[u8], TraceIoError> {
        if !self.ensure(n)? {
            return Ok(&[]);
        }
        let whole = (self.end - self.start) / n * n;
        Ok(&self.buf[self.start..self.start + whole])
    }

    /// Consumes `bytes` of what [`ByteScanner::peek_records`] showed.
    ///
    /// # Panics
    /// Panics if fewer than `bytes` are resident.
    pub(crate) fn consume(&mut self, bytes: usize) {
        assert!(bytes <= self.end - self.start, "consume past the buffer");
        self.advance(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_with_mixed_endings() {
        let mut s = ByteScanner::new(&b"one\ntwo\r\nthree"[..]);
        let (l, off) = s.next_line(1).unwrap().unwrap();
        assert_eq!((l, off), (&b"one"[..], 0));
        let (l, off) = s.next_line(2).unwrap().unwrap();
        assert_eq!((l, off), (&b"two"[..], 4));
        let (l, off) = s.next_line(3).unwrap().unwrap();
        assert_eq!((l, off), (&b"three"[..], 9));
        assert!(s.next_line(4).unwrap().is_none());
        assert_eq!(s.bytes_read(), 14);
    }

    #[test]
    fn line_longer_than_buffer_is_typed_and_skippable() {
        let data = b"short\naaaaaaaaaaaaaaaaaaaaaaaa\nafter\n";
        let mut s = ByteScanner::with_capacity(&data[..], 8);
        assert_eq!(s.next_line(1).unwrap().unwrap().0, b"short");
        match s.next_line(2) {
            Err(TraceIoError::LineTooLong {
                line: 2, cap: 8, ..
            }) => {}
            other => panic!("wanted LineTooLong, got {other:?}"),
        }
        s.discard_line().unwrap();
        assert_eq!(s.next_line(3).unwrap().unwrap().0, b"after");
        assert!(s.max_resident_bytes() <= 8);
    }

    #[test]
    fn exact_records_and_truncation() {
        let mut s = ByteScanner::with_capacity(&[1u8, 2, 3, 4, 5, 6, 7][..], 4);
        assert_eq!(s.next_exact(3).unwrap().unwrap(), &[1, 2, 3]);
        assert_eq!(s.next_exact(3).unwrap().unwrap(), &[4, 5, 6]);
        match s.next_exact(3) {
            Err(TraceIoError::TruncatedRecord {
                offset: 6,
                have: 1,
                need: 3,
            }) => {}
            other => panic!("wanted TruncatedRecord, got {other:?}"),
        }
        assert_eq!(s.next_exact(3).unwrap(), None, "EOF after the error");
    }

    #[test]
    fn peeked_records_follow_the_exact_contract() {
        // 4-byte buffer, 3-byte records: one whole record per peek, the
        // ragged tail typed with next_exact's offset / have / need.
        let mut s = ByteScanner::with_capacity(&[1u8, 2, 3, 4, 5, 6, 7][..], 4);
        assert_eq!(s.peek_records(3).unwrap(), &[1, 2, 3]);
        assert_eq!(
            s.peek_records(3).unwrap(),
            &[1, 2, 3],
            "peeking consumes nothing"
        );
        s.consume(3);
        assert_eq!(s.offset(), 3);
        assert_eq!(s.peek_records(3).unwrap(), &[4, 5, 6]);
        s.consume(3);
        match s.peek_records(3) {
            Err(TraceIoError::TruncatedRecord {
                offset: 6,
                have: 1,
                need: 3,
            }) => {}
            other => panic!("wanted TruncatedRecord, got {other:?}"),
        }
        assert!(s.peek_records(3).unwrap().is_empty(), "EOF after the error");

        // A roomy buffer shows every whole record at once and keeps the
        // partial one for the next refill.
        let mut s = ByteScanner::new(&[9u8; 32][..]);
        assert_eq!(s.peek_records(10).unwrap().len(), 30);
        s.consume(20);
        assert_eq!(s.peek_records(10).unwrap().len(), 10);
    }

    #[test]
    fn resident_bytes_stay_bounded_on_large_input() {
        let line = b"0123456789\n";
        let body: Vec<u8> = line.iter().copied().cycle().take(1 << 20).collect();
        let mut s = ByteScanner::with_capacity(&body[..], 256);
        let mut n = 0u64;
        let mut lines = 0u64;
        while let Some((l, _)) = s.next_line(lines + 1).unwrap() {
            n += l.len() as u64;
            lines += 1;
        }
        assert!(lines > 90_000);
        assert!(n > 900_000);
        assert!(s.max_resident_bytes() <= 256);
        assert_eq!(s.bytes_read(), 1 << 20);
    }
}
