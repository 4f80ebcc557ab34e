//! Direct test of the reuse-window hypothesis
//! (Section VIII, "HOTL Theory Correctness").
//!
//! "The HOTL theory assumes the reuse window hypothesis, which means
//! that the footprint distribution in reuse windows is the same as the
//! footprint distribution in all windows. When the hypothesis holds, the
//! HOTL prediction is accurate for fully associative LRU cache."
//!
//! The paper inherits the hypothesis' validation from Xiang et al.; this
//! module lets the repo check it *directly* on any trace: sample reuse
//! windows (windows bracketed by a reuse pair), measure their working-set
//! sizes, and compare per window length against the all-windows average
//! footprint `fp(w)`. Where the two diverge, the mr(c) derivation is
//! biased — which is exactly what the NPA validation experiments observe
//! on deliberately phased workloads.

use crate::footprint::Footprint;
use cps_dstruct::BlockHashMap;
use cps_trace::Trace;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// One window-length bucket of the comparison.
#[derive(Clone, Copy, Debug)]
pub struct HypothesisBucket {
    /// Window length (the reuse time, paper convention: gap + 1).
    pub window: usize,
    /// Number of reuse windows of this length in the trace.
    pub count: u64,
    /// Number of them actually measured (sampled).
    pub sampled: usize,
    /// Mean WSS over the sampled reuse windows.
    pub reuse_window_wss: f64,
    /// The all-windows average footprint `fp(window)`.
    pub all_window_fp: f64,
}

impl HypothesisBucket {
    /// Relative divergence between reuse-window and all-window
    /// footprints (positive = reuse windows are denser).
    pub fn relative_error(&self) -> f64 {
        if self.all_window_fp <= 0.0 {
            0.0
        } else {
            (self.reuse_window_wss - self.all_window_fp) / self.all_window_fp
        }
    }
}

/// Result of a hypothesis check.
#[derive(Clone, Debug)]
pub struct HypothesisReport {
    /// Buckets in ascending window length.
    pub buckets: Vec<HypothesisBucket>,
}

impl HypothesisReport {
    /// Reuse-pair-weighted mean absolute relative error — the headline
    /// "does the hypothesis hold" number.
    pub fn weighted_mean_abs_error(&self) -> f64 {
        let total: u64 = self.buckets.iter().map(|b| b.count).sum();
        if total == 0 {
            return 0.0;
        }
        self.buckets
            .iter()
            .map(|b| b.count as f64 * b.relative_error().abs())
            .sum::<f64>()
            / total as f64
    }

    /// Largest absolute relative error across buckets.
    ///
    /// Note: very short reuse windows are *systematically* sparser than
    /// average windows (their two endpoints are the same datum, so WSS
    /// ≤ w − 1 while fp(w) ≈ w for small w) — an O(1/w) boundary bias,
    /// not a hypothesis violation. Use
    /// [`HypothesisReport::max_abs_error_above`] to exclude it.
    pub fn max_abs_error(&self) -> f64 {
        self.max_abs_error_above(0)
    }

    /// Largest absolute relative error over buckets with window length
    /// at least `min_window`.
    pub fn max_abs_error_above(&self, min_window: usize) -> f64 {
        self.buckets
            .iter()
            .filter(|b| b.window >= min_window)
            .map(|b| b.relative_error().abs())
            .fold(0.0, f64::max)
    }
}

/// Checks the reuse-window hypothesis on a trace.
///
/// Reuse windows are grouped by length into log-spaced buckets (powers
/// of `2^(1/2)`); at most `samples_per_bucket` windows per bucket are
/// measured (WSS by direct scan), with deterministic sampling from
/// `seed`. Cost is `O(samples · window_length)` for the scans plus one
/// footprint pass.
pub fn check_reuse_window_hypothesis(
    trace: &Trace,
    samples_per_bucket: usize,
    seed: u64,
) -> HypothesisReport {
    assert!(
        samples_per_bucket > 0,
        "need at least one sample per bucket"
    );
    let fp = Footprint::from_trace(&trace.blocks);
    // Collect reuse pairs as (start, window_length).
    let mut last_seen: BlockHashMap<usize> = BlockHashMap::default();
    let mut buckets: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
    let mut counts: HashMap<usize, u64> = HashMap::new();
    for (t, &addr) in trace.blocks.iter().enumerate() {
        if let Some(p) = last_seen.insert(addr, t) {
            let window = t - p + 1; // paper convention: inclusive length
            let bucket = bucket_of(window);
            *counts.entry(bucket).or_insert(0) += 1;
            buckets.entry(bucket).or_default().push((p, window));
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut keys: Vec<usize> = buckets.keys().copied().collect();
    keys.sort_unstable();
    for bucket in keys {
        let pairs = buckets.get_mut(&bucket).expect("bucket exists");
        pairs.shuffle(&mut rng);
        let take = pairs.len().min(samples_per_bucket);
        let mut wss_sum = 0.0;
        let mut fp_sum = 0.0;
        for &(start, window) in pairs.iter().take(take) {
            wss_sum += trace.window_wss(start, window) as f64;
            fp_sum += fp.at(window);
        }
        out.push(HypothesisBucket {
            window: bucket,
            count: counts[&bucket],
            sampled: take,
            reuse_window_wss: wss_sum / take as f64,
            all_window_fp: fp_sum / take as f64,
        });
    }
    HypothesisReport { buckets: out }
}

/// Log-spaced bucket representative for a window length (√2 spacing).
fn bucket_of(window: usize) -> usize {
    if window <= 4 {
        return window;
    }
    // Round down to the nearest power of √2.
    let lg2 = (window as f64).log2();
    let step = (lg2 * 2.0).floor() / 2.0;
    (2f64.powf(step).round() as usize).max(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_trace::WorkloadSpec;

    #[test]
    fn bucketing_is_monotone_and_coarse() {
        let mut prev = 0;
        for w in 1..10_000 {
            let b = bucket_of(w);
            assert!(b <= w, "bucket {b} above window {w}");
            assert!(b >= prev.min(w), "buckets must not regress");
            prev = prev.max(b);
        }
    }

    #[test]
    fn hypothesis_holds_for_stationary_random_access() {
        // Uniform random access: every window of a given length looks
        // alike, so reuse windows are typical windows.
        let trace = WorkloadSpec::Zipfian {
            region: 150,
            alpha: 0.5,
        }
        .generate(60_000, 3);
        let report = check_reuse_window_hypothesis(&trace, 40, 1);
        assert!(!report.buckets.is_empty());
        let err = report.weighted_mean_abs_error();
        assert!(err < 0.1, "stationary workload should satisfy it: {err}");
    }

    #[test]
    fn hypothesis_holds_for_cyclic_loop() {
        let trace = WorkloadSpec::SequentialLoop { working_set: 64 }.generate(40_000, 1);
        let report = check_reuse_window_hypothesis(&trace, 30, 2);
        // A loop's reuse windows all have length ws+… and exactly ws
        // distinct blocks; fp agrees.
        assert!(
            report.weighted_mean_abs_error() < 0.05,
            "err {}",
            report.weighted_mean_abs_error()
        );
    }

    #[test]
    fn hypothesis_degrades_under_phases() {
        // A phased program: reuse windows concentrate inside phases
        // (dense), while long all-windows straddle both phases. The
        // divergence should be visibly larger than the stationary case.
        let phased = WorkloadSpec::Phased {
            phases: vec![
                (WorkloadSpec::SequentialLoop { working_set: 10 }, 3_000),
                (WorkloadSpec::UniformRandom { region: 500 }, 3_000),
            ],
        }
        .generate(60_000, 4);
        let stationary = WorkloadSpec::UniformRandom { region: 255 }.generate(60_000, 5);
        let rp = check_reuse_window_hypothesis(&phased, 30, 6);
        let rs = check_reuse_window_hypothesis(&stationary, 30, 6);
        // Exclude the short-window boundary bias (see max_abs_error
        // docs) so the comparison isolates the phase effect.
        let (ep, es) = (rp.max_abs_error_above(64), rs.max_abs_error_above(64));
        assert!(
            ep > 2.0 * es,
            "phased max err {ep} should exceed stationary {es}"
        );
    }

    #[test]
    fn report_handles_tiny_traces() {
        let trace = Trace::new(vec![1, 1]);
        let report = check_reuse_window_hypothesis(&trace, 5, 0);
        assert_eq!(report.buckets.len(), 1);
        assert_eq!(report.buckets[0].window, 2);
        assert_eq!(report.buckets[0].count, 1);
        // A distance-1 reuse window contains exactly 1 distinct datum.
        assert!((report.buckets[0].reuse_window_wss - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_reuse_no_buckets() {
        let trace = Trace::new(vec![1, 2, 3, 4]);
        let report = check_reuse_window_hypothesis(&trace, 5, 0);
        assert!(report.buckets.is_empty());
        assert_eq!(report.weighted_mean_abs_error(), 0.0);
        assert_eq!(report.max_abs_error(), 0.0);
    }
}
