//! Olken's exact LRU stack-distance (reuse-distance) algorithm.
//!
//! The *reuse distance* (LRU stack distance) of an access is the number of
//! **distinct** data touched since the previous access to the same datum,
//! inclusive of that datum. An access to a fully-associative LRU cache of
//! capacity `c` hits iff its reuse distance is `≤ c`; first-ever accesses
//! (infinite distance) are compulsory misses. A single pass therefore
//! yields the entire miss-ratio curve — the ground truth against which the
//! HOTL-derived curves in `cps-hotl` are validated.
//!
//! The classic algorithm (Olken 1981) marks the most recent access time of
//! every datum with a 1 in a Fenwick tree indexed by time; the reuse
//! distance of an access at time `t` whose datum was last seen at time `p`
//! is the number of marks in `(p, t)` plus one. Point update + range query
//! give `O(n log n)` total.

use crate::fenwick::Fenwick;
use crate::hash::BlockHashMap;
use crate::histogram::DenseHistogram;

/// The result of a reuse-distance pass over one trace.
#[derive(Clone, Debug)]
pub struct ReuseDistances {
    /// Histogram of finite reuse distances (value = distance, `≥ 1`).
    pub histogram: DenseHistogram,
    /// Number of first-ever (cold / compulsory) accesses, i.e. the number
    /// of distinct data in the trace.
    pub cold: u64,
    /// Trace length.
    pub accesses: u64,
}

impl ReuseDistances {
    /// Computes reuse distances for every access of `trace` in
    /// `O(n log n)`.
    ///
    /// Addresses may be arbitrary `u64` block identifiers.
    pub fn from_trace(trace: &[u64]) -> Self {
        let n = trace.len();
        let mut marks = Fenwick::new(n.max(1));
        // datum -> position of its most recent access
        let mut last: BlockHashMap<usize> =
            BlockHashMap::with_capacity_and_hasher(1024, Default::default());
        let mut histogram = DenseHistogram::new();
        let mut cold = 0u64;
        for (t, &addr) in trace.iter().enumerate() {
            match last.insert(addr, t) {
                None => {
                    cold += 1;
                }
                Some(p) => {
                    // Distinct data since previous access = marks in (p, t)
                    // plus the datum itself.
                    let between = if p < t.saturating_sub(1) {
                        marks.range_sum(p + 1, t - 1)
                    } else {
                        0
                    };
                    let dist = between as usize + 1;
                    histogram.add(dist, 1);
                    marks.add(p, -1);
                }
            }
            marks.add(t, 1);
        }
        ReuseDistances {
            histogram,
            cold,
            accesses: n as u64,
        }
    }

    /// Number of distinct data in the trace.
    pub fn distinct(&self) -> u64 {
        self.cold
    }

    /// Miss count of a fully-associative LRU cache of capacity `c` blocks
    /// (including compulsory misses).
    ///
    /// A capacity of 0 misses on every access.
    pub fn miss_count(&self, c: usize) -> u64 {
        if c == 0 {
            return self.accesses;
        }
        // Misses = cold + accesses with finite distance > c.
        let tail: u64 = self.histogram.buckets().iter().skip(c + 1).sum();
        self.cold + tail
    }

    /// Miss ratio at capacity `c` blocks. Returns 1.0 for an empty trace
    /// convention-free (an empty trace yields `NaN`-free 0.0).
    pub fn miss_ratio(&self, c: usize) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.miss_count(c) as f64 / self.accesses as f64
    }

    /// The full miss-ratio curve sampled at capacities `0..=max_capacity`
    /// blocks, computed in one backward pass.
    pub fn miss_ratio_curve(&self, max_capacity: usize) -> Vec<f64> {
        if self.accesses == 0 {
            return vec![0.0; max_capacity + 1];
        }
        let buckets = self.histogram.buckets();
        // tail[c] = # finite distances > c
        let mut curve = vec![0.0; max_capacity + 1];
        let mut tail: u64 = buckets.iter().skip(max_capacity + 1).sum();
        let n = self.accesses as f64;
        for c in (0..=max_capacity).rev() {
            if c < max_capacity {
                tail += self.histogram.count(c + 1);
            }
            curve[c] = if c == 0 {
                1.0
            } else {
                (self.cold + tail) as f64 / n
            };
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n²) stack simulation for cross-checking.
    fn naive_distances(trace: &[u64]) -> (Vec<Option<usize>>, u64) {
        let mut stack: Vec<u64> = Vec::new(); // front = MRU
        let mut out = Vec::with_capacity(trace.len());
        let mut cold = 0;
        for &a in trace {
            match stack.iter().position(|&x| x == a) {
                Some(pos) => {
                    out.push(Some(pos + 1));
                    stack.remove(pos);
                }
                None => {
                    out.push(None);
                    cold += 1;
                }
            }
            stack.insert(0, a);
        }
        (out, cold)
    }

    fn check(trace: &[u64]) {
        let rd = ReuseDistances::from_trace(trace);
        let (naive, cold) = naive_distances(trace);
        assert_eq!(rd.cold, cold);
        let mut expect = DenseHistogram::new();
        for d in naive.into_iter().flatten() {
            expect.add(d, 1);
        }
        assert_eq!(rd.histogram.buckets(), expect.buckets());
    }

    #[test]
    fn empty_trace() {
        let rd = ReuseDistances::from_trace(&[]);
        assert_eq!(rd.cold, 0);
        assert_eq!(rd.miss_ratio(4), 0.0);
        assert_eq!(rd.miss_ratio_curve(3), vec![0.0; 4]);
    }

    #[test]
    fn immediate_reuse_has_distance_one() {
        let rd = ReuseDistances::from_trace(&[7, 7, 7]);
        assert_eq!(rd.cold, 1);
        assert_eq!(rd.histogram.count(1), 2);
    }

    #[test]
    fn paper_figure3_style_trace() {
        // a a x b b y a a x b b y  (letters mapped to ints)
        let t = [0, 0, 1, 2, 2, 3, 0, 0, 1, 2, 2, 3];
        check(&t);
        let rd = ReuseDistances::from_trace(&t);
        // Distances: second 'a':1, second 'b':1, 'a' again: 4 distinct
        // (y,b,x,a) -> 4, etc.
        assert_eq!(rd.histogram.count(1), 4);
        assert_eq!(rd.histogram.count(4), 4);
        assert_eq!(rd.cold, 4);
    }

    #[test]
    fn matches_naive_on_random_traces() {
        let mut x: u64 = 99;
        for round in 0..5 {
            let mut trace = Vec::new();
            for _ in 0..300 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
                trace.push((x >> 40) % 23);
            }
            check(&trace);
        }
    }

    #[test]
    fn miss_counts_match_direct_lru() {
        // Direct LRU simulation for several capacities.
        fn lru_misses(trace: &[u64], cap: usize) -> u64 {
            let mut stack: Vec<u64> = Vec::new();
            let mut misses = 0;
            for &a in trace {
                match stack.iter().position(|&x| x == a) {
                    Some(p) => {
                        stack.remove(p);
                    }
                    None => {
                        misses += 1;
                        if stack.len() == cap {
                            stack.pop();
                        }
                    }
                }
                stack.insert(0, a);
            }
            misses
        }
        let mut x: u64 = 7;
        let mut trace = Vec::new();
        for _ in 0..500 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            trace.push((x >> 35) % 40);
        }
        let rd = ReuseDistances::from_trace(&trace);
        for cap in [1usize, 2, 3, 5, 10, 20, 40, 64] {
            assert_eq!(rd.miss_count(cap), lru_misses(&trace, cap), "cap={cap}");
        }
    }

    #[test]
    fn curve_matches_pointwise_queries() {
        let trace: Vec<u64> = (0..200).map(|i| (i * i + 3) % 37).collect();
        let rd = ReuseDistances::from_trace(&trace);
        let curve = rd.miss_ratio_curve(50);
        for (c, &v) in curve.iter().enumerate() {
            assert!(
                (v - rd.miss_ratio(c)).abs() < 1e-12,
                "capacity {c}: {v} vs {}",
                rd.miss_ratio(c)
            );
        }
    }

    #[test]
    fn curve_is_non_increasing() {
        let trace: Vec<u64> = (0..400).map(|i| (i * 7 + i * i / 5) as u64 % 61).collect();
        let rd = ReuseDistances::from_trace(&trace);
        let curve = rd.miss_ratio_curve(80);
        for w in curve.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "inclusion property violated");
        }
    }

    #[test]
    fn cyclic_scan_thrashes_below_ws() {
        // Cyclic scan of 10 blocks: LRU gets zero hits below capacity 10.
        let trace: Vec<u64> = (0..100).map(|i| i % 10).collect();
        let rd = ReuseDistances::from_trace(&trace);
        assert_eq!(rd.miss_count(9), 100);
        assert_eq!(rd.miss_count(10), 10); // only cold misses
    }
}
