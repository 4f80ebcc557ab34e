//! Dense histograms and the excess-sum transform.
//!
//! The HOTL footprint formula (see `cps-hotl`) needs, for every window
//! length `w`, quantities of the form `E(w) = Σ_t max(t − w, 0) · freq(t)`
//! over a histogram of reuse gaps / boundary times. Computing each
//! naively is `O(max_t)`; [`ExcessSums`] runs them forward instead, one
//! `O(1)` step per `w`, so a caller that stops at some `w` never touches
//! the histogram beyond `w + 1`.

use std::ops::Add;

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
/// let mut e = h.excess_start();
/// e.step(h.count(1));
/// e.step(h.count(2));
/// assert_eq!(e.excess(), 5);
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

    /// This histogram's [`ExcessSums`] at `w = 0`: `E(0) = Σ t·f(t)` and
    /// `tail(0) = Σ_{t>0} f(t)`. `O(max_value)`.
    pub fn excess_start(&self) -> ExcessSums {
        let mut start = ExcessSums::default();
        for (t, &c) in self.counts.iter().enumerate().skip(1) {
            start.excess += t as u64 * c;
            start.tail += c;
        }
        start
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

/// The excess-sum transform run forward, in exact `u64`:
/// `E(w) = Σ_t max(t − w, 0) · f(t)` for `w = 0, 1, 2, …`.
///
/// With `tail(w) = Σ_{t>w} f(t)`, the recurrences
/// `E(w+1) = E(w) − tail(w)` and `tail(w+1) = tail(w) − f(w+1)` make
/// each step `O(1)` and read one count. The start comes from
/// [`DenseHistogram::excess_start`], or in closed form when the caller
/// knows it; both sums are linear in the counts, so starts of several
/// histograms add.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExcessSums {
    excess: u64,
    tail: u64,
}

impl ExcessSums {
    /// Starts at `w = 0` from `E(0) = Σ t·f(t)` and `tail(0) = Σ_{t>0} f(t)`.
    pub fn starting_at(excess: u64, tail: u64) -> Self {
        ExcessSums { excess, tail }
    }

    /// `E(w)` at the current `w`.
    pub fn excess(&self) -> u64 {
        self.excess
    }

    /// Moves from `w` to `w + 1`, given the count `f(w + 1)`.
    #[inline]
    pub fn step(&mut self, next_count: u64) {
        self.excess -= self.tail;
        self.tail -= next_count;
    }
}

impl Add for ExcessSums {
    type Output = ExcessSums;

    fn add(self, other: ExcessSums) -> ExcessSums {
        ExcessSums {
            excess: self.excess + other.excess,
            tail: self.tail + other.tail,
        }
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

    /// `E(0..=len)` by stepping the forward sums over `h`'s counts.
    fn forward(h: &DenseHistogram, len: usize) -> Vec<u64> {
        let mut e = h.excess_start();
        (0..=len)
            .map(|w| {
                let here = e.excess();
                e.step(h.count(w + 1));
                here
            })
            .collect()
    }

    #[test]
    fn empty_histogram() {
        let h = DenseHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.excess_start(), ExcessSums::default());
    }

    #[test]
    fn single_value() {
        let mut h = DenseHistogram::new();
        h.add(4, 3);
        assert_eq!(h.count(4), 3);
        assert_eq!(h.count(5), 0);
        assert_eq!(h.max_value(), Some(4));
        assert_eq!(h.mean(), Some(4.0));
        assert_eq!(forward(&h, 5), vec![12, 9, 6, 3, 0, 0]);
    }

    #[test]
    fn excess_matches_naive() {
        let mut h = DenseHistogram::new();
        for (v, c) in [(0, 5), (1, 2), (3, 7), (10, 1), (11, 4)] {
            h.add(v, c);
        }
        let e = forward(&h, 12);
        for (w, &got) in e.iter().enumerate() {
            assert_eq!(got, naive_excess(&h, w), "w={w}");
        }
        assert_eq!(*e.last().unwrap(), 0);
    }

    #[test]
    fn excess_value_zero_only() {
        let mut h = DenseHistogram::new();
        h.add(0, 9);
        assert_eq!(forward(&h, 2), vec![0, 0, 0]);
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
        assert_eq!(forward(&h, 4), vec![3, 2, 1, 0, 0]);
    }

    #[test]
    fn starts_add_like_merged_histograms() {
        let (mut a, mut b) = (DenseHistogram::new(), DenseHistogram::new());
        a.add(2, 3);
        a.add(6, 1);
        b.add(4, 2);
        let sum = a.excess_start() + b.excess_start();
        a.merge(&b);
        assert_eq!(sum, a.excess_start());
        assert_eq!(sum, ExcessSums::starting_at(20, 6));
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
