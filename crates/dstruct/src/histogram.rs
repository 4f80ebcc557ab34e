//! Dense histograms and the excess-sum transform.
//!
//! The HOTL footprint formula (see `cps-hotl`) needs, for every window
//! length `w`, quantities of the form `Σ_t max(t − w, 0) · freq(t)` over a
//! histogram of reuse gaps / boundary times. Computing that naively is
//! `O(n·max_t)`; with suffix sums it is `O(max_t)` preprocessing and `O(1)`
//! per query, and the whole curve comes out in a single backward pass.
//! [`DenseHistogram`] packages that machinery.

/// A dense histogram over non-negative integer values with `u64` counts.
///
/// # Examples
///
/// ```
/// use cps_dstruct::DenseHistogram;
/// let mut h = DenseHistogram::new();
/// h.add(3, 2); // two observations of value 3
/// h.add(5, 1);
/// assert_eq!(h.count(3), 2);
/// assert_eq!(h.total(), 3);
/// // Σ max(t-2, 0)·freq(t) = (3-2)*2 + (5-2)*1 = 5
/// assert_eq!(h.excess_sums()[2], 5);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DenseHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl DenseHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty histogram with buckets preallocated for values up
    /// to `max_value`.
    pub fn with_max_value(max_value: usize) -> Self {
        DenseHistogram {
            counts: vec![0; max_value + 1],
            total: 0,
        }
    }

    /// Adds `weight` observations of `value`.
    pub fn add(&mut self, value: usize, weight: u64) {
        if value >= self.counts.len() {
            self.counts.resize(value + 1, 0);
        }
        self.counts[value] += weight;
        self.total += weight;
    }

    /// Count of observations with exactly this value.
    pub fn count(&self, value: usize) -> u64 {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest value with a non-zero count, or `None` if empty.
    pub fn max_value(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// The raw bucket array (index = value).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Mean observed value, or `None` if the histogram is empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let weighted: u128 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u128 * c as u128)
            .sum();
        Some(weighted as f64 / self.total as f64)
    }

    /// Number of observations with value `> w` for every `w` in
    /// `0..=max_value+1` (index `w` holds the strict-tail count).
    ///
    /// The returned vector has length `max_value + 2` so the final entry is
    /// always zero.
    pub fn tail_counts(&self) -> Vec<u64> {
        let m = self.counts.len();
        let mut out = vec![0u64; m + 1];
        for w in (0..m).rev() {
            out[w] = out[w + 1] + self.counts.get(w + 1).copied().unwrap_or(0);
        }
        out
    }

    /// The excess-sum transform: `E(w) = Σ_t max(t − w, 0) · freq(t)` for
    /// every `w` in `0..=max_value+1`.
    ///
    /// Uses the recurrence `E(w) = E(w+1) + tail(w)` where `tail(w)` counts
    /// observations strictly greater than `w`; both come out of one backward
    /// pass. The final entry is always zero.
    pub fn excess_sums(&self) -> Vec<u64> {
        let m = self.counts.len();
        let mut excess = vec![0u64; m + 1];
        let mut tail = 0u64; // # observations with value > w
        for w in (0..m).rev() {
            tail += self.counts.get(w + 1).copied().unwrap_or(0);
            excess[w] = excess[w + 1] + tail;
        }
        excess
    }

    /// Forgets every observation, keeping the bucket storage: the next
    /// [`add`](Self::add)s regrow `buckets()` from empty, exactly as on a
    /// fresh histogram, without reallocating.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &DenseHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_excess(h: &DenseHistogram, w: usize) -> u64 {
        h.buckets()
            .iter()
            .enumerate()
            .map(|(t, &c)| (t.saturating_sub(w)) as u64 * c)
            .sum()
    }

    #[test]
    fn empty_histogram() {
        let h = DenseHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.mean(), None);
        assert!(h.excess_sums().iter().all(|&x| x == 0));
    }

    #[test]
    fn single_value() {
        let mut h = DenseHistogram::new();
        h.add(4, 3);
        assert_eq!(h.count(4), 3);
        assert_eq!(h.count(5), 0);
        assert_eq!(h.max_value(), Some(4));
        assert_eq!(h.mean(), Some(4.0));
        let e = h.excess_sums();
        assert_eq!(e[0], 12);
        assert_eq!(e[3], 3);
        assert_eq!(e[4], 0);
        assert_eq!(e[5], 0);
    }

    #[test]
    fn excess_matches_naive() {
        let mut h = DenseHistogram::new();
        for (v, c) in [(0, 5), (1, 2), (3, 7), (10, 1), (11, 4)] {
            h.add(v, c);
        }
        let e = h.excess_sums();
        for (w, &got) in e.iter().enumerate() {
            assert_eq!(got, naive_excess(&h, w), "w={w}");
        }
        assert_eq!(*e.last().unwrap(), 0);
    }

    #[test]
    fn excess_value_zero_only() {
        let mut h = DenseHistogram::new();
        h.add(0, 9);
        let e = h.excess_sums();
        assert_eq!(e[0], 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = DenseHistogram::new();
        a.add(1, 1);
        a.add(3, 2);
        let mut b = DenseHistogram::new();
        b.add(3, 1);
        b.add(7, 5);
        a.merge(&b);
        assert_eq!(a.count(1), 1);
        assert_eq!(a.count(3), 3);
        assert_eq!(a.count(7), 5);
        assert_eq!(a.total(), 9);
    }

    #[test]
    fn clear_leaves_a_fresh_histogram() {
        let mut h = DenseHistogram::new();
        h.add(9, 2);
        h.clear();
        assert_eq!(h.total(), 0);
        assert!(h.buckets().is_empty());
        h.add(3, 1);
        assert_eq!(h.buckets(), &[0, 0, 0, 1]);
        assert_eq!(h.excess_sums(), vec![3, 2, 1, 0, 0]);
    }

    #[test]
    fn with_max_value_prealloc() {
        let mut h = DenseHistogram::with_max_value(100);
        h.add(100, 1);
        assert_eq!(h.max_value(), Some(100));
        assert_eq!(h.buckets().len(), 101);
    }

    #[test]
    fn mean_weighted() {
        let mut h = DenseHistogram::new();
        h.add(2, 1);
        h.add(4, 3);
        assert_eq!(h.mean(), Some((2.0 + 12.0) / 4.0));
    }
}
