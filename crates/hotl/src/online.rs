//! Online (streaming) locality profiling.
//!
//! Section VIII's practicality assumption is that footprint data "can be
//! collected in real time" — an *online* monitor watches the access
//! stream and periodically re-optimizes the partition. This module
//! provides that monitor: [`OnlineProfiler`] consumes one access at a
//! time in `O(1)` amortized, and can snapshot a full [`Footprint`] (and
//! hence a miss-ratio curve) at any moment, covering everything seen
//! since its window opened.
//!
//! A snapshot is exactly equal to the batch [`ReuseProfile`] of the
//! window consumed so far — the histograms are maintained
//! incrementally, and the boundary terms (first/last access times) are
//! reconstructed at snapshot time from the ids the window touched. Tests
//! pin down that equality.
//!
//! The profiler's one block table maps each block to a dense `u32` id,
//! and an id's entry is its last access position on a clock that never
//! resets. That position is also the id's window stamp: an access is a
//! reuse exactly when the id's last access falls in the open window, so
//! [`close_window`](OnlineProfiler::close_window) starts the next window
//! without clearing the table. The id [`observe`](OnlineProfiler::observe)
//! returns is the key a caller's own per-block state can share — the
//! engine keeps a tenant's LRU links under it, so a record costs one
//! table probe for both — and a close reclaims the ids that are neither
//! touched in the closed window nor resident in that caller's cache
//! once they outnumber the live ones.
//!
//! An access updates the window without branching on whether it is a
//! reuse: a first touch counts in gap bucket 0 (which no gap reads) and
//! writes its first-time bit and touched-id slot like a reuse would,
//! and only the distinct count advances differently.

use crate::footprint::{miss_ratio_walk, Footprint, FootprintSamples};
use crate::reuse::ReuseProfile;
use cps_dstruct::{BlockHashMap, DenseHistogram, ExcessSums};
use cps_trace::Block;
use std::collections::hash_map::Entry;

/// Incremental reuse/footprint profiler.
///
/// # Examples
///
/// ```
/// use cps_hotl::online::OnlineProfiler;
/// let mut p = OnlineProfiler::new();
/// for i in 0..10_000u64 {
///     p.observe(i % 50);
/// }
/// let fp = p.snapshot_footprint();
/// assert_eq!(fp.distinct, 50);
/// assert!(fp.miss_ratio(40.0) > 0.9); // the loop thrashes below 50
/// ```
#[derive(Clone, Debug, Default)]
pub struct OnlineProfiler {
    /// Block → dense id. Only id-order-free work (commutative histogram
    /// adds, reclamation) ever iterates it, so its (seeded, per-map)
    /// order never shows.
    ids: BlockHashMap<u32>,
    /// Ids no block holds, reclaimed at a window close.
    free: Vec<u32>,
    /// Per id: 1 + the clock of its last access, 0 before any. An id
    /// was touched in the open window iff its entry exceeds `base`.
    last: Vec<usize>,
    /// Accesses consumed since creation (or the last reset).
    clock: usize,
    /// The clock when the open window began.
    base: usize,
    /// Ids touched in the open window, once each, in
    /// `touched[..distinct]`; the slots past it are scratch.
    touched: Vec<u32>,
    /// Distinct ids touched in the open window.
    distinct: usize,
    /// Gap counts over the window's completed reuse pairs: `gaps[g]`
    /// pairs `g` apart, for `g ≥ 1`. A first touch is counted in
    /// `gaps[0]`, which no gap reads, so an access updates the window
    /// without branching on whether it is a reuse.
    gaps: Vec<u64>,
    /// The window's first-access times, 1-indexed, as a bit set: one
    /// access per time step makes the histogram 0/1, and setting a bit
    /// never grows a table on each new datum the way a histogram
    /// indexed by the clock does.
    first_times: Vec<u64>,
}

impl OnlineProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one access and returns the block's id in the profiler's
    /// table, stable until a [`close_window`](Self::close_window)
    /// reclaims it. `O(1)` amortized.
    #[inline]
    pub fn observe(&mut self, block: Block) -> u32 {
        // `entry` probes lighter than `insert` on a hit, the common case.
        let id = match self.ids.entry(block) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(slot) => {
                let id = self.free.pop().unwrap_or_else(|| {
                    let id = u32::try_from(self.last.len()).expect("below 2^32 ids in use");
                    self.last.push(0);
                    id
                });
                *slot.insert(id)
            }
        };
        let now = self.clock;
        // The access's 1-indexed time in the window.
        let t = now - self.base + 1;
        let last = &mut self.last[id as usize];
        let reuse = *last > self.base;
        let gap = if reuse { now + 1 - *last } else { 0 };
        *last = now + 1;
        self.clock = now + 1;
        if gap >= self.gaps.len()
            || t / 64 >= self.first_times.len()
            || self.distinct >= self.touched.len()
        {
            self.grow(gap, t);
        }
        self.gaps[gap] += 1;
        self.first_times[t / 64] |= u64::from(!reuse) << (t % 64);
        self.touched[self.distinct] = id;
        self.distinct += usize::from(!reuse);
        id
    }

    /// Makes room, zero-filled, for gap `gap`, first time `t` and one
    /// more touched id. The gap table grows to the largest gap, as a
    /// histogram does; the two others at least double.
    #[cold]
    fn grow(&mut self, gap: usize, t: usize) {
        if gap >= self.gaps.len() {
            self.gaps.resize(gap + 1, 0);
        }
        let words = self.first_times.len();
        if t / 64 >= words {
            self.first_times.resize((t / 64 + 1).max(2 * words), 0);
        }
        let slots = self.touched.len();
        if self.distinct >= slots {
            self.touched.resize((self.distinct + 1).max(2 * slots), 0);
        }
    }

    /// Consumes a slice of accesses.
    pub fn observe_all(&mut self, blocks: &[Block]) {
        for &b in blocks {
            self.observe(b);
        }
    }

    /// Accesses consumed in the open window.
    pub fn accesses(&self) -> usize {
        self.clock - self.base
    }

    /// Distinct blocks accessed in the open window.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// The block table: every block that holds an id, with the id.
    /// Arbitrary order; `O(table)`.
    pub fn block_ids(&self) -> impl Iterator<Item = (Block, u32)> + '_ {
        self.ids.iter().map(|(&block, &id)| (block, id))
    }

    /// Reversed last-access times `n − l_k` (0-indexed `l_k`, so each
    /// in `1..=n`) of the window's distinct blocks.
    fn last_times_rev_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.touched[..self.distinct]
            .iter()
            .map(|&id| self.clock + 1 - self.last[id as usize])
    }

    /// The gap histogram. `O(n)`.
    fn gap_histogram(&self) -> DenseHistogram {
        let mut out = DenseHistogram::new();
        for (gap, &count) in self.gaps.iter().enumerate().skip(1) {
            if count > 0 {
                out.add(gap, count);
            }
        }
        out
    }

    /// The first-access times as a histogram. `O(n)`.
    fn first_times(&self) -> DenseHistogram {
        let mut out = DenseHistogram::new();
        for (i, &word) in self.first_times.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.add(64 * i + bits.trailing_zeros() as usize, 1);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Reversed last-access times (`n − l_k + 1`, 1-indexed) of the
    /// window's data. `O(m)`.
    fn last_times_rev(&self) -> DenseHistogram {
        let mut out = DenseHistogram::new();
        for t in self.last_times_rev_iter() {
            out.add(t, 1);
        }
        out
    }

    /// Snapshots the reuse statistics of the open window — identical to
    /// `ReuseProfile::from_trace` over the accesses since it opened.
    /// `O(m)` for the boundary reconstruction.
    pub fn snapshot_reuse(&self) -> ReuseProfile {
        ReuseProfile {
            accesses: self.accesses() as u64,
            distinct: self.distinct() as u64,
            gaps: self.gap_histogram(),
            first_times: self.first_times(),
            last_times_rev: self.last_times_rev(),
        }
    }

    /// Snapshots the average footprint of the open window, reading the
    /// live histograms in place. `O(n)` (the footprint closed form).
    pub fn snapshot_footprint(&self) -> Footprint {
        Footprint::from_histograms(
            self.accesses() as u64,
            self.distinct() as u64,
            [
                &self.gap_histogram(),
                &self.first_times(),
                &self.last_times_rev(),
            ],
        )
    }

    /// Writes the miss ratios `mr(0..out.len())` of the open window to
    /// `out`, bit for bit `snapshot_footprint().miss_ratios(..)`, but
    /// streamed from the live histograms: the footprint is produced only
    /// as far as the fill-time walk reads it, and the reversed last
    /// times are an `n`-bit set dropped on return. `O(m + W + out.len())`
    /// for a walk that stops at window length `W`. Returns how many
    /// leading sizes were walked; every later one reads 0.
    pub(crate) fn miss_ratios_into(&self, out: &mut [f64]) -> usize {
        let (n, m) = (self.accesses(), self.distinct());
        // Every datum's reversed last time `n − l_k` is in `1..=n` and
        // no two share one, so the histogram is a set.
        let mut last_rev = vec![0u64; n / 64 + 1];
        for t in self.last_times_rev_iter() {
            last_rev[t / 64] |= 1 << (t % 64);
        }
        let (gaps, firsts) = (&self.gaps, &self.first_times);
        let count = |t: usize| {
            gaps.get(t).copied().unwrap_or(0)
                + firsts.get(t / 64).map_or(0, |w| w >> (t % 64) & 1)
                + (last_rev[t / 64] >> (t % 64) & 1)
        };
        // A datum's gaps, first time and reversed last time sum to
        // `n + 1`, and none is 0: `E(0) = m(n + 1)`, `tail(0) = n + m`.
        let (n64, m64) = (n as u64, m as u64);
        let sums = ExcessSums::starting_at(m64 * (n64 + 1), n64 + m64);
        let fp = FootprintSamples::new(n, m64, sums, count);
        miss_ratio_walk(fp, n, m as f64, out)
    }

    /// Closes the open window and opens an empty one. The block table
    /// stays: every id's last access now precedes the window, which
    /// makes its next access a first touch. `resident` of the table's
    /// ids are still in use by the caller (`is_resident` names them);
    /// the ids that are neither that nor touched in the closed window
    /// are reclaimed once they outnumber the touched and resident ids
    /// together, so the table holds `O(resident + window distinct)`
    /// entries and each reclaimed id costs `O(1)` amortized.
    pub fn close_window(&mut self, resident: usize, is_resident: impl Fn(u32) -> bool) {
        if self.ids.len() > 2 * (self.distinct + resident) {
            let (base, last, free) = (self.base, &self.last, &mut self.free);
            self.ids.retain(|_, &mut id| {
                let keep = last[id as usize] > base || is_resident(id);
                if !keep {
                    free.push(id);
                }
                keep
            });
        }
        // The window's gaps are below its length `n` and its first
        // times in `1..=n`; the tables keep their size for the next one.
        let n = self.clock - self.base;
        let gaps = n.min(self.gaps.len());
        self.gaps[..gaps].fill(0);
        let words = (n / 64 + 1).min(self.first_times.len());
        self.first_times[..words].fill(0);
        self.distinct = 0;
        self.base = self.clock;
    }

    /// Resets to the empty state (e.g. at a phase boundary), keeping
    /// the tables' storage for the next window.
    pub fn reset(&mut self) {
        self.ids.clear();
        self.free.clear();
        self.last.clear();
        self.clock = 0;
        self.base = 0;
        self.touched.clear();
        self.distinct = 0;
        self.gaps.clear();
        self.first_times.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_trace::WorkloadSpec;

    #[test]
    fn snapshot_equals_batch_profile_at_any_prefix() {
        let trace = WorkloadSpec::Zipfian {
            region: 80,
            alpha: 0.7,
        }
        .generate(3_000, 9);
        let mut online = OnlineProfiler::new();
        let mut consumed = 0;
        for cut in [1usize, 7, 100, 999, 3_000] {
            online.observe_all(&trace.blocks[consumed..cut]);
            consumed = cut;
            let snap = online.snapshot_reuse();
            let batch = ReuseProfile::from_trace(&trace.blocks[..cut]);
            assert_eq!(snap.accesses, batch.accesses, "cut {cut}");
            assert_eq!(snap.distinct, batch.distinct, "cut {cut}");
            assert_eq!(snap.gaps.buckets(), batch.gaps.buckets(), "cut {cut}");
            assert_eq!(
                snap.first_times.buckets(),
                batch.first_times.buckets(),
                "cut {cut}"
            );
            assert_eq!(
                snap.last_times_rev.buckets(),
                batch.last_times_rev.buckets(),
                "cut {cut}"
            );
        }
    }

    /// Closed windows keep the table yet profile exactly their own
    /// records. The never-reused tail makes the closes reclaim: the
    /// table stays within twice the largest window's distinct count.
    #[test]
    fn closed_windows_profile_only_their_own_records() {
        let mut stream = WorkloadSpec::Zipfian {
            region: 200,
            alpha: 0.7,
        }
        .generate(4_000, 3)
        .blocks;
        stream.extend(1_000u64..9_000);
        let mut p = OnlineProfiler::new();
        let (mut at, mut reclaimed) = (0, false);
        for (i, len) in [1usize, 999, 3_000, 1, 700, 1_300]
            .iter()
            .cycle()
            .enumerate()
        {
            let window = &stream[at..(at + len).min(stream.len())];
            p.observe_all(window);
            let (snap, batch) = (p.snapshot_reuse(), ReuseProfile::from_trace(window));
            assert_eq!(
                (snap.accesses, snap.distinct),
                (batch.accesses, batch.distinct)
            );
            assert_eq!(snap.gaps.buckets(), batch.gaps.buckets(), "window {i}");
            assert_eq!(snap.first_times.buckets(), batch.first_times.buckets());
            assert_eq!(
                snap.last_times_rev.buckets(),
                batch.last_times_rev.buckets()
            );
            let before = p.block_ids().count();
            p.close_window(0, |_| false);
            let after = p.block_ids().count();
            reclaimed |= after < before;
            assert!(after <= 2 * 3_000, "window {i}: {after} ids");
            at += len;
            if at >= stream.len() {
                break;
            }
        }
        assert!(reclaimed, "the fresh tail never reclaimed");
    }

    /// Ids a caller names as resident survive the close's reclamation.
    #[test]
    fn resident_ids_survive_reclamation() {
        let mut p = OnlineProfiler::new();
        let kept = p.observe(7);
        p.close_window(1, |id| id == kept);
        for b in 100..200u64 {
            p.observe(b);
        }
        p.close_window(1, |id| id == kept);
        p.observe_all(&[300, 301]);
        p.close_window(1, |id| id == kept);
        assert!(p.block_ids().count() < 100, "the old window was reclaimed");
        assert!(p.block_ids().any(|(b, id)| (b, id) == (7, kept)));
        assert_eq!(p.observe(7), kept);
        assert_eq!(p.snapshot_reuse().first_times.count(1), 1, "a first touch");
    }

    /// The determinism contract of the seeded hasher: the seed moves
    /// only iteration order, which nothing observable depends on.
    #[test]
    fn snapshots_do_not_depend_on_the_hash_seed() {
        use cps_dstruct::{BlockHashBuilder, BlockHashMap};
        let trace = WorkloadSpec::Zipfian {
            region: 300,
            alpha: 0.6,
        }
        .generate(5_000, 4);
        let batch = ReuseProfile::from_trace(&trace.blocks);
        for seed in [1u64, 0xFEED_FACE] {
            let mut p = OnlineProfiler {
                ids: BlockHashMap::with_hasher(BlockHashBuilder::with_seed(seed)),
                ..OnlineProfiler::new()
            };
            p.observe_all(&trace.blocks);
            let snap = p.snapshot_reuse();
            assert_eq!(snap.distinct, batch.distinct, "seed {seed}");
            assert_eq!(snap.gaps.buckets(), batch.gaps.buckets(), "seed {seed}");
            assert_eq!(
                snap.first_times.buckets(),
                batch.first_times.buckets(),
                "seed {seed}"
            );
            assert_eq!(
                snap.last_times_rev.buckets(),
                batch.last_times_rev.buckets(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn snapshot_footprint_matches_batch() {
        let trace = WorkloadSpec::SequentialLoop { working_set: 30 }.generate(2_000, 1);
        let mut online = OnlineProfiler::new();
        online.observe_all(&trace.blocks);
        let snap = online.snapshot_footprint();
        let batch = Footprint::from_trace(&trace.blocks);
        assert_eq!(snap.curve().samples(), batch.curve().samples());
    }

    #[test]
    fn empty_profiler_snapshots_cleanly() {
        let p = OnlineProfiler::new();
        assert_eq!(p.accesses(), 0);
        assert_eq!(p.distinct(), 0);
        let fp = p.snapshot_footprint();
        assert_eq!(fp.at(0), 0.0);
    }

    #[test]
    fn reset_forgets_everything() {
        let mut p = OnlineProfiler::new();
        p.observe_all(&[1, 2, 3, 1]);
        assert_eq!(p.accesses(), 4);
        p.reset();
        assert_eq!(p.accesses(), 0);
        assert_eq!(p.distinct(), 0);
        p.observe(5);
        let snap = p.snapshot_reuse();
        assert_eq!(snap.accesses, 1);
        assert_eq!(snap.first_times.count(1), 1);
    }

    #[test]
    fn online_repartitioning_scenario() {
        // The intended use: watch a program change phase and see the
        // snapshot MRC move. Phase 1: 20-block loop; phase 2: 120-block
        // loop. A monitor with reset-at-boundary sees the change.
        let p1 = WorkloadSpec::SequentialLoop { working_set: 20 }.generate(5_000, 1);
        let p2 = WorkloadSpec::SequentialLoop { working_set: 120 }.generate(5_000, 2);
        let mut monitor = OnlineProfiler::new();
        monitor.observe_all(&p1.blocks);
        let before = monitor.snapshot_footprint();
        assert!(before.miss_ratio(64.0) < 0.05, "phase 1 fits in 64");
        monitor.reset();
        monitor.observe_all(&p2.blocks);
        let after = monitor.snapshot_footprint();
        assert!(after.miss_ratio(64.0) > 0.9, "phase 2 thrashes 64");
    }
}
