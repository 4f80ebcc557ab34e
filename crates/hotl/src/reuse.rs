//! Reuse-time measurement (paper Section III, Eq. 4).
//!
//! A *reuse pair* is two consecutive accesses to the same datum; its
//! *reuse time* is the length of the smallest window containing both
//! (`rt(d_i, d_j) = j − i + 1`, Eq. 4). For the footprint formula it is
//! more convenient to histogram the *gap* `j − i = rt − 1`; this module
//! records gaps plus the two boundary quantities the formula needs —
//! first-access times and reversed last-access times.

use cps_dstruct::{BlockHashMap, DenseHistogram};
use cps_trace::Block;

/// Reuse statistics of one trace, sufficient to reconstruct the average
/// footprint for every window length.
#[derive(Clone, Debug)]
pub struct ReuseProfile {
    /// Trace length `n`.
    pub accesses: u64,
    /// Distinct data `m`.
    pub distinct: u64,
    /// Histogram of reuse *gaps* (`j − i`, i.e. reuse time − 1) over all
    /// reuse pairs.
    pub gaps: DenseHistogram,
    /// Histogram of first-access times, 1-indexed (`f_k` in the paper's
    /// footprint formula).
    pub first_times: DenseHistogram,
    /// Histogram of reversed last-access times (`n − l_k + 1`, 1-indexed).
    pub last_times_rev: DenseHistogram,
}

impl ReuseProfile {
    /// Single-pass measurement over a trace. `O(n)` time, `O(m)` space.
    pub fn from_trace(trace: &[Block]) -> Self {
        let n = trace.len();
        let mut last_seen: BlockHashMap<usize> =
            BlockHashMap::with_capacity_and_hasher(1024, Default::default());
        let mut gaps = DenseHistogram::new();
        let mut first_times = DenseHistogram::new();
        for (t, &addr) in trace.iter().enumerate() {
            match last_seen.insert(addr, t) {
                None => first_times.add(t + 1, 1), // 1-indexed f_k
                Some(p) => gaps.add(t - p, 1),
            }
        }
        let mut last_times_rev = DenseHistogram::new();
        for (_, &p) in last_seen.iter() {
            last_times_rev.add(n - p, 1); // n − (p+1) + 1
        }
        ReuseProfile {
            accesses: n as u64,
            distinct: last_seen.len() as u64,
            gaps,
            first_times,
            last_times_rev,
        }
    }

    /// Histogram of paper-convention reuse *times* (`rt = gap + 1`),
    /// materialized on demand.
    pub fn reuse_time_histogram(&self) -> DenseHistogram {
        let mut out = DenseHistogram::new();
        for (gap, &count) in self.gaps.buckets().iter().enumerate() {
            if count > 0 {
                out.add(gap + 1, count);
            }
        }
        out
    }

    /// Number of reuse pairs (`n − m`).
    pub fn reuse_pairs(&self) -> u64 {
        self.gaps.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace() {
        let r = ReuseProfile::from_trace(&[]);
        assert_eq!(r.accesses, 0);
        assert_eq!(r.distinct, 0);
        assert_eq!(r.reuse_pairs(), 0);
    }

    #[test]
    fn paper_figure3_trace() {
        // a a x b b y a a x b b y
        let trace = [0u64, 0, 1, 2, 2, 3, 0, 0, 1, 2, 2, 3];
        let r = ReuseProfile::from_trace(&trace);
        assert_eq!(r.accesses, 12);
        assert_eq!(r.distinct, 4);
        assert_eq!(r.reuse_pairs(), 8);
        // Paper figure: reuse distances (times minus one, i.e. gaps)
        // are 1 (x4) and... gaps: a@0->1 (1), b@3->4 (1), a@1->6 (5),
        // a@6->7 (1), x@2->8 (6), b@4->9 (5), b@9->10 (1), y@5->11 (6).
        assert_eq!(r.gaps.count(1), 4);
        assert_eq!(r.gaps.count(5), 2);
        assert_eq!(r.gaps.count(6), 2);
        // Reuse *times* are gaps + 1.
        let rt = r.reuse_time_histogram();
        assert_eq!(rt.count(2), 4);
        assert_eq!(rt.count(6), 2);
        assert_eq!(rt.count(7), 2);
        // First access times (1-indexed): a:1, x:3, b:4, y:6.
        assert_eq!(r.first_times.count(1), 1);
        assert_eq!(r.first_times.count(3), 1);
        assert_eq!(r.first_times.count(4), 1);
        assert_eq!(r.first_times.count(6), 1);
        // Last accesses (1-indexed): a:8, x:9, b:11, y:12 →
        // reversed: 5, 4, 2, 1.
        assert_eq!(r.last_times_rev.count(5), 1);
        assert_eq!(r.last_times_rev.count(4), 1);
        assert_eq!(r.last_times_rev.count(2), 1);
        assert_eq!(r.last_times_rev.count(1), 1);
    }

    #[test]
    fn identity_total_is_m_times_n_plus_1() {
        // Per-datum: Σgaps + f + l̄ = n + 1, so the grand total must be
        // m(n+1) — the identity that makes fp(0) = 0.
        let trace: Vec<u64> = (0..500).map(|i| (i * 13 + i / 7) % 37).collect();
        let r = ReuseProfile::from_trace(&trace);
        let total: u64 = r
            .gaps
            .buckets()
            .iter()
            .enumerate()
            .map(|(v, c)| v as u64 * c)
            .sum::<u64>()
            + r.first_times
                .buckets()
                .iter()
                .enumerate()
                .map(|(v, c)| v as u64 * c)
                .sum::<u64>()
            + r.last_times_rev
                .buckets()
                .iter()
                .enumerate()
                .map(|(v, c)| v as u64 * c)
                .sum::<u64>();
        assert_eq!(total, r.distinct * (r.accesses + 1));
    }

    #[test]
    fn single_access_per_datum_has_no_reuse() {
        let r = ReuseProfile::from_trace(&[10, 20, 30]);
        assert_eq!(r.reuse_pairs(), 0);
        assert_eq!(r.distinct, 3);
        assert_eq!(r.first_times.count(1), 1);
        assert_eq!(r.first_times.count(2), 1);
        assert_eq!(r.first_times.count(3), 1);
    }
}
