//! Miss ratio → performance estimation
//! (Section VIII, "Locality-performance Correlation").
//!
//! The paper justifies optimizing the miss ratio by Wang et al.'s
//! measurement: HOTL-predicted miss ratio and co-run execution time are
//! linearly related (correlation coefficient 0.938), so "reducing
//! execution time can be achieved through reducing \[the\] same portion of
//! miss ratio". This module makes that link explicit with the standard
//! linear CPI model
//!
//! ```text
//! CPI(mr) = base_cpi + accesses_per_instr · mr · miss_penalty
//! ```
//!
//! and derives the usual multiprogramming metrics — per-program
//! slowdowns, weighted speedup, harmonic mean of speedups, and Jain's
//! fairness index — from any [`GroupEvaluation`], so scheme comparisons
//! can be read in time units, not just miss ratios.

use crate::schemes::{GroupEvaluation, Scheme};

/// Linear cycles-per-instruction model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfModel {
    /// Cycles per instruction with a perfect cache.
    pub base_cpi: f64,
    /// Memory accesses per instruction (the trace's access density).
    pub accesses_per_instr: f64,
    /// Extra cycles per cache miss (DRAM latency minus overlap).
    pub miss_penalty: f64,
}

impl Default for PerfModel {
    /// A generic out-of-order core: base CPI 0.7, 0.35 accesses per
    /// instruction, 180-cycle effective miss penalty.
    fn default() -> Self {
        PerfModel {
            base_cpi: 0.7,
            accesses_per_instr: 0.35,
            miss_penalty: 180.0,
        }
    }
}

impl PerfModel {
    /// CPI at the given miss ratio.
    pub fn cpi(&self, miss_ratio: f64) -> f64 {
        self.base_cpi + self.accesses_per_instr * miss_ratio * self.miss_penalty
    }

    /// Relative execution time of `mr` vs a reference miss ratio
    /// (`> 1` means slower than the reference).
    pub fn slowdown(&self, mr: f64, reference_mr: f64) -> f64 {
        self.cpi(mr) / self.cpi(reference_mr)
    }

    /// Per-program speedups of `scheme` relative to `reference` for an
    /// evaluated group (`> 1` = faster under `scheme`).
    pub fn speedups(&self, eval: &GroupEvaluation, scheme: Scheme, reference: Scheme) -> Vec<f64> {
        let s = &eval.get(scheme).member_miss_ratios;
        let r = &eval.get(reference).member_miss_ratios;
        s.iter()
            .zip(r)
            .map(|(mr_s, mr_r)| self.cpi(*mr_r) / self.cpi(*mr_s))
            .collect()
    }

    /// Weighted speedup (sum of per-program speedups) of `scheme` vs
    /// `reference` — the standard multiprogramming throughput metric.
    pub fn weighted_speedup(
        &self,
        eval: &GroupEvaluation,
        scheme: Scheme,
        reference: Scheme,
    ) -> f64 {
        self.speedups(eval, scheme, reference).iter().sum()
    }
}

/// Jain's fairness index over a slice of per-program quantities
/// (speedups, allocations, …): `(Σx)² / (n · Σx²)`, ranging from `1/n`
/// (one program takes all) to 1 (perfectly equal).
pub fn jains_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::schemes::evaluate_group;
    use cps_hotl::SoloProfile;
    use cps_trace::WorkloadSpec;

    #[test]
    fn cpi_is_linear_in_miss_ratio() {
        let m = PerfModel::default();
        let at0 = m.cpi(0.0);
        let at1 = m.cpi(1.0);
        assert_eq!(at0, 0.7);
        assert!((at1 - (0.7 + 0.35 * 180.0)).abs() < 1e-12);
        // Midpoint exactly halfway (linearity).
        assert!((m.cpi(0.5) - 0.5 * (at0 + at1)).abs() < 1e-12);
    }

    #[test]
    fn slowdown_of_reference_is_one() {
        let m = PerfModel::default();
        assert_eq!(m.slowdown(0.3, 0.3), 1.0);
        assert!(m.slowdown(0.4, 0.2) > 1.0);
        assert!(m.slowdown(0.1, 0.2) < 1.0);
    }

    #[test]
    fn jains_index_bounds() {
        assert_eq!(jains_index(&[]), 1.0);
        assert_eq!(jains_index(&[2.0, 2.0, 2.0]), 1.0);
        let skewed = jains_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12, "one-takes-all = 1/n");
        let mid = jains_index(&[1.0, 2.0]);
        assert!(mid > 0.25 && mid < 1.0);
    }

    #[test]
    fn optimal_scheme_has_weighted_speedup_at_least_group_size_ratio() {
        // Optimal vs Equal: total speedup should be ≥ the number of
        // programs when Optimal strictly dominates... at minimum it must
        // beat the all-ones vector that comparing Equal to itself gives.
        let blocks = 128;
        let mk = |name: &str, ws: u64| {
            let t = WorkloadSpec::SequentialLoop { working_set: ws }.generate(30_000, ws);
            SoloProfile::from_trace(name, &t.blocks, 1.0, blocks)
        };
        let ps = [mk("a", 90), mk("b", 40), mk("c", 20)];
        let members: Vec<&SoloProfile> = ps.iter().collect();
        let eval = evaluate_group(&members, &CacheConfig::new(blocks, 1));
        let m = PerfModel::default();
        let self_speedup = m.weighted_speedup(&eval, Scheme::Equal, Scheme::Equal);
        assert!((self_speedup - 3.0).abs() < 1e-12);
        let opt = m.weighted_speedup(&eval, Scheme::Optimal, Scheme::Equal);
        // Optimal lowers the group miss ratio, but an individual program
        // can be slowed; the weighted speedup may dip below P in
        // principle. For this loop group Optimal fits everyone, so it
        // must be >= P.
        assert!(opt >= 3.0 - 1e-9, "weighted speedup {opt}");
    }

    #[test]
    fn speedups_align_with_miss_ratio_changes() {
        let blocks = 96;
        let mk = |name: &str, ws: u64| {
            let t = WorkloadSpec::SequentialLoop { working_set: ws }.generate(30_000, ws);
            SoloProfile::from_trace(name, &t.blocks, 1.0, blocks)
        };
        let ps = [mk("a", 70), mk("b", 50)];
        let members: Vec<&SoloProfile> = ps.iter().collect();
        let eval = evaluate_group(&members, &CacheConfig::new(blocks, 1));
        let m = PerfModel::default();
        let sp = m.speedups(&eval, Scheme::Optimal, Scheme::Equal);
        let opt = &eval.get(Scheme::Optimal).member_miss_ratios;
        let eq = &eval.get(Scheme::Equal).member_miss_ratios;
        for i in 0..2 {
            if opt[i] < eq[i] - 1e-12 {
                assert!(sp[i] > 1.0, "member {i} got faster");
            }
            if opt[i] > eq[i] + 1e-12 {
                assert!(sp[i] < 1.0, "member {i} got slower");
            }
        }
    }
}
