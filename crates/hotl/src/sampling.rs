//! Bursty sampled footprint profiling.
//!
//! The paper uses full-trace footprint analysis "to have reproducible
//! results" but points at Wang et al.'s *adaptive bursty footprint*
//! (ABF) profiling — 0.09 s per program instead of a 23× slowdown — as
//! the practical deployment mode (Sections VII-A and VIII). This module
//! implements the bursty idea: profile only periodic *bursts* of the
//! trace and merge their reuse statistics. Each burst is long enough to
//! cover the window lengths the optimizer cares about (a few multiples
//! of the cache's fill time), so within-burst reuse statistics are
//! unbiased for those windows; skipping between bursts just reduces the
//! sample count.
//!
//! The accuracy/cost trade-off is exercised by the
//! `ablation_sampling` experiment and the tests below.

use crate::footprint::Footprint;
use crate::reuse::ReuseProfile;
use cps_dstruct::{BlockHashMap, DenseHistogram};
use cps_trace::Block;

/// Burst-sampling configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BurstConfig {
    /// Accesses profiled per burst.
    pub burst_len: usize,
    /// Accesses skipped between bursts.
    pub skip_len: usize,
}

impl BurstConfig {
    /// A burst schedule covering roughly `1/ratio` of the trace with
    /// bursts of `burst_len` accesses.
    ///
    /// # Panics
    /// Panics if `burst_len` is 0 or `ratio` < 1.
    pub fn with_ratio(burst_len: usize, ratio: usize) -> Self {
        assert!(burst_len > 0, "bursts need at least one access");
        assert!(ratio >= 1, "sampling ratio must be at least 1");
        BurstConfig {
            burst_len,
            skip_len: burst_len * (ratio - 1),
        }
    }

    /// Fraction of the trace profiled.
    pub fn coverage(&self) -> f64 {
        self.burst_len as f64 / (self.burst_len + self.skip_len) as f64
    }
}

/// Reuse statistics from burst samples, merged into a single
/// [`ReuseProfile`]-shaped summary.
///
/// Bursts are profiled independently: reuse pairs never span a skip
/// region (a datum seen in an earlier burst counts as a fresh first
/// access), which keeps every recorded gap exact for its burst.
///
/// The merged histograms are valid reuse statistics, but do **not**
/// feed them to [`Footprint::from_reuse`] directly — its window-count
/// normalization assumes one contiguous trace. Use [`sample_footprint`],
/// which normalizes per burst.
pub fn sample_reuse(trace: &[Block], config: BurstConfig) -> ReuseProfile {
    let mut gaps = DenseHistogram::new();
    let mut first_times = DenseHistogram::new();
    let mut last_times_rev = DenseHistogram::new();
    let mut accesses = 0u64;
    let mut distinct = 0u64;
    let period = config.burst_len + config.skip_len;
    let mut start = 0usize;
    while start < trace.len() {
        let end = (start + config.burst_len).min(trace.len());
        let burst = &trace[start..end];
        let n = burst.len();
        let mut last_seen: BlockHashMap<usize> = BlockHashMap::default();
        for (t, &addr) in burst.iter().enumerate() {
            match last_seen.insert(addr, t) {
                None => first_times.add(t + 1, 1),
                Some(p) => gaps.add(t - p, 1),
            }
        }
        for (_, &p) in last_seen.iter() {
            last_times_rev.add(n - p, 1);
        }
        accesses += n as u64;
        distinct += last_seen.len() as u64;
        start += period;
    }
    ReuseProfile {
        accesses,
        distinct,
        gaps,
        first_times,
        last_times_rev,
    }
}

/// Burst-sampled average footprint.
///
/// Each burst is profiled independently; the sampled `fp(w)` is the
/// window-count-weighted mean of the per-burst footprints:
///
/// ```text
/// fp(w) = Σ_b (n_b − w + 1) · fp_b(w)  /  Σ_b (n_b − w + 1)
/// ```
///
/// which is exactly the average WSS over every window that lies wholly
/// inside a burst. The curve is truncated at the shortest burst length —
/// longer windows are never observed whole.
pub fn sample_footprint(trace: &[Block], config: BurstConfig) -> Footprint {
    let period = config.burst_len + config.skip_len;
    let mut bursts: Vec<Footprint> = Vec::new();
    let mut accesses = 0u64;
    let mut start = 0usize;
    while start < trace.len() {
        let end = (start + config.burst_len).min(trace.len());
        let fp = Footprint::from_trace(&trace[start..end]);
        accesses += fp.accesses;
        bursts.push(fp);
        start += period;
    }
    if bursts.is_empty() {
        return Footprint::from_trace(&[]);
    }
    let max_w = bursts
        .iter()
        .map(|b| b.accesses as usize)
        .min()
        .expect("non-empty");
    let mut ys = Vec::with_capacity(max_w + 1);
    let mut prev = 0.0f64;
    for w in 0..=max_w {
        let mut weighted = 0.0;
        let mut windows = 0.0;
        for b in &bursts {
            let n_b = b.accesses as usize;
            let count = (n_b - w + 1) as f64;
            weighted += count * b.at(w);
            windows += count;
        }
        let v = (weighted / windows).max(prev);
        ys.push(v);
        prev = v;
    }
    // The sampled curve saturates where the bursts do; report a
    // curve-consistent distinct count (a lower bound on the program's
    // true total footprint, since no window longer than a burst was
    // observed).
    let distinct = ys.last().copied().unwrap_or(0.0).round() as u64;
    Footprint::from_parts(
        cps_dstruct::MonotoneCurve::from_samples(ys),
        accesses,
        distinct,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_trace::WorkloadSpec;

    #[test]
    fn full_coverage_equals_full_trace_profile() {
        let trace = WorkloadSpec::Zipfian {
            region: 60,
            alpha: 0.8,
        }
        .generate(5_000, 1);
        let cfg = BurstConfig {
            burst_len: trace.len(),
            skip_len: 0,
        };
        let sampled = sample_reuse(&trace.blocks, cfg);
        let full = ReuseProfile::from_trace(&trace.blocks);
        assert_eq!(sampled.accesses, full.accesses);
        assert_eq!(sampled.distinct, full.distinct);
        assert_eq!(sampled.gaps.buckets(), full.gaps.buckets());
    }

    #[test]
    fn coverage_fraction() {
        let cfg = BurstConfig::with_ratio(1_000, 10);
        assert!((cfg.coverage() - 0.1).abs() < 1e-12);
        assert_eq!(cfg.skip_len, 9_000);
    }

    #[test]
    fn sampled_footprint_tracks_full_footprint_in_range() {
        // Stationary workload: 10% bursts reproduce fp(w) for w within
        // a burst.
        let trace = WorkloadSpec::Mixture {
            parts: vec![
                (0.9, WorkloadSpec::SequentialLoop { working_set: 40 }),
                (0.1, WorkloadSpec::UniformRandom { region: 200 }),
            ],
        }
        .generate(200_000, 2);
        let cfg = BurstConfig::with_ratio(4_000, 10);
        let sampled = sample_footprint(&trace.blocks, cfg);
        let full = Footprint::from_trace(&trace.blocks);
        for w in [10usize, 50, 100, 500, 1_000, 2_000] {
            let s = sampled.eval(w as f64);
            let f = full.eval(w as f64);
            assert!(
                (s - f).abs() < 0.05 * f.max(1.0),
                "fp({w}): sampled {s} vs full {f}"
            );
        }
    }

    #[test]
    fn sampled_miss_ratio_usable_for_optimization() {
        let trace = WorkloadSpec::SequentialLoop { working_set: 50 }.generate(100_000, 3);
        let cfg = BurstConfig::with_ratio(2_000, 20); // 5% coverage
        let sampled = sample_footprint(&trace.blocks, cfg);
        // The cliff at 50 blocks survives sampling.
        assert!(sampled.miss_ratio(25.0) > 0.9);
        assert!(sampled.miss_ratio(55.0) < 0.1);
    }

    #[test]
    fn degenerate_burst_longer_than_trace() {
        let trace = WorkloadSpec::UniformRandom { region: 10 }.generate(100, 4);
        let cfg = BurstConfig {
            burst_len: 1_000,
            skip_len: 0,
        };
        let p = sample_reuse(&trace.blocks, cfg);
        assert_eq!(p.accesses, 100);
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn zero_burst_panics() {
        let _ = BurstConfig::with_ratio(0, 2);
    }
}
