//! Online (streaming) locality profiling.
//!
//! Section VIII's practicality assumption is that footprint data "can be
//! collected in real time" — an *online* monitor watches the access
//! stream and periodically re-optimizes the partition. This module
//! provides that monitor: [`OnlineProfiler`] consumes one access at a
//! time in `O(1)` amortized, and can snapshot a full [`Footprint`] (and
//! hence a miss-ratio curve) at any moment, covering everything seen so
//! far.
//!
//! A snapshot is exactly equal to the batch [`ReuseProfile`] of the
//! prefix consumed so far — the histograms are maintained incrementally,
//! and the boundary terms (first/last access times) are reconstructed
//! from the live last-seen table at snapshot time. Tests pin down that
//! equality.
//!
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
    /// Accesses seen so far (`n`).
    time: usize,
    /// Gap histogram over completed reuse pairs.
    gaps: DenseHistogram,
    /// First-access times, 1-indexed (fixed once a datum appears), as a
    /// bit set: one access per time step makes the histogram 0/1, and
    /// setting a bit never grows a table on each new datum the way a
    /// histogram indexed by the clock does.
    first_times: Vec<u64>,
    /// Last access position per datum, 0-indexed. Only commutative
    /// histogram adds ever iterate it, so its (seeded, per-map) order
    /// never shows.
    seen: BlockHashMap<usize>,
}

impl OnlineProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one access. `O(1)` amortized.
    #[inline]
    pub fn observe(&mut self, block: Block) {
        let now = self.time;
        // `entry` probes lighter than `insert` on a hit, the common case.
        match self.seen.entry(block) {
            Entry::Vacant(slot) => {
                let t = now + 1;
                if t / 64 >= self.first_times.len() {
                    self.first_times.resize(t / 64 + 1, 0);
                }
                self.first_times[t / 64] |= 1 << (t % 64);
                slot.insert(now);
            }
            Entry::Occupied(mut slot) => {
                let last = slot.get_mut();
                self.gaps.add(now - *last, 1);
                *last = now;
            }
        }
        self.time += 1;
    }

    /// Consumes a slice of accesses.
    pub fn observe_all(&mut self, blocks: &[Block]) {
        for &b in blocks {
            self.observe(b);
        }
    }

    /// Accesses consumed so far.
    pub fn accesses(&self) -> usize {
        self.time
    }

    /// Distinct blocks seen so far.
    pub fn distinct(&self) -> usize {
        self.seen.len()
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
    /// live data. `O(m)`.
    fn last_times_rev(&self) -> DenseHistogram {
        let mut out = DenseHistogram::new();
        for &last in self.seen.values() {
            out.add(self.time - last, 1);
        }
        out
    }

    /// Snapshots the reuse statistics of everything consumed so far —
    /// identical to `ReuseProfile::from_trace` over the same prefix.
    /// `O(m)` for the boundary reconstruction.
    pub fn snapshot_reuse(&self) -> ReuseProfile {
        ReuseProfile {
            accesses: self.time as u64,
            distinct: self.seen.len() as u64,
            gaps: self.gaps.clone(),
            first_times: self.first_times(),
            last_times_rev: self.last_times_rev(),
        }
    }

    /// Snapshots the average footprint of the consumed prefix, reading
    /// the live histograms in place. `O(n)` (the footprint closed form).
    pub fn snapshot_footprint(&self) -> Footprint {
        Footprint::from_histograms(
            self.time as u64,
            self.seen.len() as u64,
            [&self.gaps, &self.first_times(), &self.last_times_rev()],
        )
    }

    /// Writes the miss ratios `mr(0..out.len())` of the consumed prefix
    /// to `out`, bit for bit `snapshot_footprint().miss_ratios(..)`, but
    /// streamed from the live histograms: the footprint is produced only
    /// as far as the fill-time walk reads it, and the reversed last
    /// times are an `n`-bit set dropped on return. `O(m + W + out.len())`
    /// for a walk that stops at window length `W`.
    pub(crate) fn miss_ratios_into(&self, out: &mut [f64]) {
        let (n, m) = (self.time, self.seen.len());
        // Every datum's reversed last time `n − l_k` is in `1..=n` and
        // no two share one, so the histogram is a set.
        let mut last_rev = vec![0u64; n / 64 + 1];
        for &last in self.seen.values() {
            let t = n - last;
            last_rev[t / 64] |= 1 << (t % 64);
        }
        let (gaps, firsts) = (self.gaps.buckets(), &self.first_times);
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
        miss_ratio_walk(fp, n, m as f64, out);
    }

    /// Resets to the empty state (e.g. at a phase boundary), keeping
    /// the tables' storage for the next window.
    pub fn reset(&mut self) {
        self.time = 0;
        self.gaps.clear();
        self.first_times.clear();
        self.seen.clear();
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
                seen: BlockHashMap::with_hasher(BlockHashBuilder::with_seed(seed)),
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
