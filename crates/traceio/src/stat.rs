//! Streaming whole-trace statistics with bounded memory.
//!
//! `cps trace stat` must summarize a multi-GB log in one pass, so
//! nothing here is allowed to grow with the trace: the tenant histogram
//! caps the number of distinct tenants it tracks, and the distinct-block
//! footprint is exact only up to a threshold, after which it degrades to
//! a HyperLogLog sketch (4096 registers, splitmix64-hashed) with a
//! typical error around 1.6%.

use cps_obs::splitmix64;
use std::collections::{HashMap, HashSet};

/// Exact distinct counting up to this many blocks; then the sketch
/// takes over.
pub const EXACT_DISTINCT_CAP: usize = 1 << 17;

/// Distinct tenants tracked individually in the histogram.
pub const TENANT_HISTOGRAM_CAP: usize = 4096;

const HLL_P: u32 = 12;
const HLL_M: usize = 1 << HLL_P;

/// Exact-then-sketch distinct counter.
pub struct DistinctSketch {
    exact: Option<HashSet<u64>>,
    registers: Box<[u8]>,
}

impl Default for DistinctSketch {
    fn default() -> Self {
        DistinctSketch {
            exact: Some(HashSet::new()),
            registers: vec![0u8; HLL_M].into_boxed_slice(),
        }
    }
}

impl DistinctSketch {
    /// Observes one value.
    pub fn insert(&mut self, v: u64) {
        let h = splitmix64(v);
        let idx = (h >> (64 - HLL_P)) as usize;
        let rank = ((h << HLL_P) | 1).leading_zeros() as u8 + 1;
        if self.registers[idx] < rank {
            self.registers[idx] = rank;
        }
        if let Some(set) = &mut self.exact {
            set.insert(v);
            if set.len() > EXACT_DISTINCT_CAP {
                self.exact = None;
            }
        }
    }

    /// The count: `(value, exact?)`.
    pub fn estimate(&self) -> (u64, bool) {
        if let Some(set) = &self.exact {
            return (set.len() as u64, true);
        }
        let m = HLL_M as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let mut e = alpha * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if e <= 2.5 * m && zeros > 0 {
            e = m * (m / zeros as f64).ln();
        }
        (e.round() as u64, false)
    }
}

/// One-pass bounded-memory trace statistics.
#[derive(Default)]
pub struct StatCollector {
    records: u64,
    per_tenant: HashMap<usize, u64>,
    tenant_overflow: u64,
    distinct: DistinctSketch,
    block_min: Option<u64>,
    block_max: Option<u64>,
}

impl StatCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one canonical record.
    pub fn observe(&mut self, tenant: usize, block: u64) {
        self.records += 1;
        if self.per_tenant.len() < TENANT_HISTOGRAM_CAP || self.per_tenant.contains_key(&tenant) {
            *self.per_tenant.entry(tenant).or_insert(0) += 1;
        } else {
            self.tenant_overflow += 1;
        }
        self.distinct.insert(block);
        self.block_min = Some(self.block_min.map_or(block, |m| m.min(block)));
        self.block_max = Some(self.block_max.map_or(block, |m| m.max(block)));
    }

    /// Finalizes into a report.
    pub fn report(&self) -> StatReport {
        let mut tenants: Vec<(usize, u64)> =
            self.per_tenant.iter().map(|(&t, &n)| (t, n)).collect();
        tenants.sort_unstable();
        let (distinct_blocks, distinct_exact) = self.distinct.estimate();
        StatReport {
            records: self.records,
            tenants,
            tenant_overflow: self.tenant_overflow,
            distinct_blocks,
            distinct_exact,
            block_min: self.block_min,
            block_max: self.block_max,
        }
    }
}

/// The finished statistics of one trace read.
#[derive(Clone, Debug)]
pub struct StatReport {
    /// Canonical records observed.
    pub records: u64,
    /// `(tenant, records)` pairs, sorted by tenant id.
    pub tenants: Vec<(usize, u64)>,
    /// Records attributed past the tenant-histogram cap.
    pub tenant_overflow: u64,
    /// Distinct blocks (exact or sketched; see `distinct_exact`).
    pub distinct_blocks: u64,
    /// True if `distinct_blocks` is an exact count.
    pub distinct_exact: bool,
    /// Smallest block id seen.
    pub block_min: Option<u64>,
    /// Largest block id seen.
    pub block_max: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_traces_are_exact() {
        let mut c = StatCollector::new();
        for i in 0..1000u64 {
            c.observe((i % 3) as usize, i % 100);
        }
        let r = c.report();
        assert_eq!(r.records, 1000);
        assert_eq!(r.distinct_blocks, 100);
        assert!(r.distinct_exact);
        assert_eq!(r.tenants.len(), 3);
        assert_eq!(r.tenants[0], (0, 334));
        assert_eq!(r.block_min, Some(0));
        assert_eq!(r.block_max, Some(99));
        assert_eq!(r.tenant_overflow, 0);
    }

    #[test]
    fn sketch_takes_over_past_the_cap_within_tolerance() {
        let n = (EXACT_DISTINCT_CAP * 4) as u64;
        let mut c = StatCollector::new();
        for i in 0..n {
            c.observe(0, i);
        }
        let r = c.report();
        assert!(!r.distinct_exact);
        let err = (r.distinct_blocks as f64 - n as f64).abs() / n as f64;
        assert!(err < 0.05, "sketch error {err:.3} on {n} distinct");
    }

    #[test]
    fn sketch_estimate_is_deterministic() {
        let run = || {
            let mut s = DistinctSketch::default();
            for i in 0..500_000u64 {
                s.insert(i.wrapping_mul(0x9e3779b97f4a7c15));
            }
            s.estimate()
        };
        assert_eq!(run(), run());
    }
}
