//! Trace representation and basic statistics.
//!
//! A *trace* is the sequence of cache-block addresses one program touches.
//! All locality analysis in `cps-hotl` and all simulation in `cps-cachesim`
//! consume this representation. Block identifiers are abstract `u64`s — the
//! paper's 64-byte cache lines, here at whatever granularity the workload
//! generator chose.

use std::collections::HashSet;

/// A cache-block address (abstract identifier; no byte granularity
/// implied).
pub type Block = u64;

/// A single program's memory access trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Accessed blocks, in program order.
    pub blocks: Vec<Block>,
}

impl Trace {
    /// Creates a trace from a block sequence.
    pub fn new(blocks: Vec<Block>) -> Self {
        Trace { blocks }
    }

    /// Creates an empty trace with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Trace {
            blocks: Vec::with_capacity(cap),
        }
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the trace has no accesses.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of distinct blocks (the total footprint).
    pub fn distinct(&self) -> usize {
        let mut seen: HashSet<Block> = HashSet::with_capacity(1024);
        for &b in &self.blocks {
            seen.insert(b);
        }
        seen.len()
    }

    /// Returns a copy with every block offset by `delta` — used to give
    /// co-run programs disjoint address spaces.
    pub fn offset(&self, delta: u64) -> Trace {
        Trace {
            blocks: self.blocks.iter().map(|&b| b + delta).collect(),
        }
    }

    /// Working-set size of the window starting at `start` (0-based,
    /// inclusive) of length `len`: the number of distinct blocks in it.
    ///
    /// This is the paper's `WSS(i, w)`; `cps-hotl` computes the *average*
    /// over all windows in linear time, and tests use this direct version
    /// as the oracle.
    pub fn window_wss(&self, start: usize, len: usize) -> usize {
        let end = (start + len).min(self.blocks.len());
        let mut seen: HashSet<Block> = HashSet::new();
        for &b in &self.blocks[start..end] {
            seen.insert(b);
        }
        seen.len()
    }

    /// Summary statistics for the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            accesses: self.blocks.len() as u64,
            distinct: self.distinct() as u64,
        }
    }
}

impl From<Vec<Block>> for Trace {
    fn from(blocks: Vec<Block>) -> Self {
        Trace { blocks }
    }
}

impl std::ops::Deref for Trace {
    type Target = [Block];
    fn deref(&self) -> &[Block] {
        &self.blocks
    }
}

/// Basic whole-trace statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceStats {
    /// Trace length `n`.
    pub accesses: u64,
    /// Distinct blocks `m` (total footprint).
    pub distinct: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_counts_unique_blocks() {
        let t = Trace::new(vec![1, 2, 1, 3, 2, 1]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.distinct(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::default();
        assert!(t.is_empty());
        let s = t.stats();
        assert_eq!(s.accesses, 0);
        assert_eq!(s.distinct, 0);
    }

    #[test]
    fn offset_shifts_all_blocks() {
        let t = Trace::new(vec![0, 5, 2]);
        assert_eq!(t.offset(100).blocks, vec![100, 105, 102]);
    }

    #[test]
    fn window_wss_basic() {
        // Paper Figure 3 trace: a a x b b y a a x b b y
        let t = Trace::new(vec![0, 0, 1, 2, 2, 3, 0, 0, 1, 2, 2, 3]);
        assert_eq!(t.window_wss(0, 2), 1); // "a a"
        assert_eq!(t.window_wss(1, 6), 4); // "a x b b y a"
        assert_eq!(t.window_wss(3, 2), 1); // "b b"
        assert_eq!(t.window_wss(0, 12), 4);
        assert_eq!(t.window_wss(10, 100), 2); // clamped at trace end
    }

    #[test]
    fn deref_gives_slice_access() {
        let t = Trace::new(vec![4, 5, 6]);
        assert_eq!(t[1], 5);
        assert_eq!(t.iter().copied().max(), Some(6));
    }
}
