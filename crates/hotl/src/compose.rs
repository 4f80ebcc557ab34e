//! Footprint composition and the Natural Cache Partition
//! (paper Sections IV and V-A).
//!
//! When non-data-sharing programs interleave, each program's footprint is
//! *stretched* horizontally by its share of the merged access stream
//! (Eq. 9):
//!
//! ```text
//! fp(w) = Σ_i fp_i(w · s_i),    s_i = ar_i / Σ_j ar_j
//! ```
//!
//! The **natural window** `w*` of a shared cache of size `C` satisfies
//! `fp(w*) = C`; each program's expected steady-state occupancy is then
//! `c_i = fp_i(w*·s_i)` — the **Natural Cache Partition** (Figure 4). The
//! group miss ratio of the shared cache is `fp(w*+1) − C` (Eq. 10/11),
//! and under the Natural Partition Assumption each program's miss ratio
//! in the shared cache equals its solo miss ratio at `c_i`. This is the
//! reduction that makes optimal partitioning an upper bound for all
//! partition-sharing.

use crate::metrics::SoloProfile;

/// The natural cache partition of a co-run group.
#[derive(Clone, Debug)]
pub struct NaturalPartition {
    /// Steady-state occupancy of each program, in blocks (fractional).
    /// Sums to the cache size when the cache fills, or to the group's
    /// total footprint when it does not.
    pub occupancy: Vec<f64>,
    /// The natural window `w*` (merged-trace accesses), `None` when the
    /// group's total footprint fits in the cache (the cache never fills
    /// and nobody misses in steady state).
    pub window: Option<f64>,
}

/// Composition model for one co-run group.
///
/// # Examples
///
/// ```
/// use cps_hotl::{CoRunModel, SoloProfile};
/// use cps_trace::WorkloadSpec;
///
/// let mk = |name: &str, ws: u64, seed: u64| {
///     let t = WorkloadSpec::SequentialLoop { working_set: ws }.generate(20_000, seed);
///     SoloProfile::from_trace(name, &t.blocks, 1.0, 128)
/// };
/// let (a, b) = (mk("a", 80, 1), mk("b", 80, 2));
/// let model = CoRunModel::new(vec![&a, &b]);
/// // Two identical 80-block loops split a 100-block cache evenly...
/// let np = model.natural_partition(100.0);
/// assert!((np.occupancy[0] - np.occupancy[1]).abs() < 1e-6);
/// // ...and thrash it (neither loop fits in its 50-block share).
/// assert!(model.shared_group_miss_ratio(100.0) > 0.9);
/// ```
#[derive(Clone, Debug)]
pub struct CoRunModel<'a> {
    members: Vec<&'a SoloProfile>,
    /// Normalized access-rate shares `s_i` (sum to 1).
    shares: Vec<f64>,
}

impl<'a> CoRunModel<'a> {
    /// Builds the model from solo profiles; shares are the normalized
    /// access rates.
    ///
    /// # Panics
    /// Panics if `members` is empty or any access rate is non-positive.
    pub fn new(members: Vec<&'a SoloProfile>) -> Self {
        assert!(!members.is_empty(), "co-run group needs members");
        let total: f64 = members.iter().map(|p| p.access_rate).sum();
        assert!(
            total > 0.0 && members.iter().all(|p| p.access_rate > 0.0),
            "access rates must be positive"
        );
        let shares = members.iter().map(|p| p.access_rate / total).collect();
        CoRunModel { members, shares }
    }

    /// The group members.
    pub fn members(&self) -> &[&'a SoloProfile] {
        &self.members
    }

    /// Normalized access-rate shares (sum to 1).
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// The composed footprint `Σ_i fp_i(w · s_i)` at merged window
    /// length `w` (Eq. 9, generalized to any group size).
    pub fn total_footprint(&self, w: f64) -> f64 {
        self.members
            .iter()
            .zip(&self.shares)
            .map(|(p, &s)| p.footprint.eval(w * s))
            .sum()
    }

    /// Upper bound of the meaningful window range: past this point every
    /// member's stretched footprint has saturated.
    fn window_limit(&self) -> f64 {
        self.members
            .iter()
            .zip(&self.shares)
            .map(|(p, &s)| p.accesses as f64 / s)
            .fold(1.0, f64::max)
    }

    /// Solves `total_footprint(w*) = cache_blocks` by bisection.
    ///
    /// Returns `None` when the group's total footprint never reaches the
    /// cache size (the cache does not fill).
    pub fn natural_window(&self, cache_blocks: f64) -> Option<f64> {
        let limit = self.window_limit();
        if self.total_footprint(limit) < cache_blocks {
            return None;
        }
        let (mut lo, mut hi) = (0.0f64, limit);
        // ~60 bisection steps: absolute error below 2^-60 · limit.
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.total_footprint(mid) < cache_blocks {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }

    /// The Natural Cache Partition for a shared cache of `cache_blocks`.
    pub fn natural_partition(&self, cache_blocks: f64) -> NaturalPartition {
        match self.natural_window(cache_blocks) {
            Some(w) => NaturalPartition {
                occupancy: self
                    .members
                    .iter()
                    .zip(&self.shares)
                    .map(|(p, &s)| p.footprint.eval(w * s))
                    .collect(),
                window: Some(w),
            },
            None => NaturalPartition {
                occupancy: self
                    .members
                    .iter()
                    .map(|p| p.footprint.distinct as f64)
                    .collect(),
                window: None,
            },
        }
    }

    /// Predicted miss ratio of each member in the shared cache:
    /// `(fp_i((w*+1)·s_i) − fp_i(w*·s_i)) / s_i`, which under NPA equals
    /// the member's solo miss ratio at its natural occupancy.
    pub fn member_shared_miss_ratios(&self, cache_blocks: f64) -> Vec<f64> {
        match self.natural_window(cache_blocks) {
            None => vec![0.0; self.members.len()],
            Some(w) => self
                .members
                .iter()
                .zip(&self.shares)
                .map(|(p, &s)| {
                    let delta = p.footprint.eval((w + 1.0) * s) - p.footprint.eval(w * s);
                    (delta / s).clamp(0.0, 1.0)
                })
                .collect(),
        }
    }

    /// Predicted group miss ratio of the shared cache (Eq. 11):
    /// `fp(w*+1) − C`, i.e. the access-share-weighted mean of the member
    /// miss ratios.
    pub fn shared_group_miss_ratio(&self, cache_blocks: f64) -> f64 {
        match self.natural_window(cache_blocks) {
            None => 0.0,
            Some(w) => (self.total_footprint(w + 1.0) - cache_blocks).clamp(0.0, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_trace::WorkloadSpec;

    fn profile(name: &str, ws: u64, rate: f64, len: usize) -> SoloProfile {
        let trace = WorkloadSpec::SequentialLoop { working_set: ws }.generate(len, 1);
        SoloProfile::from_trace(name, &trace.blocks, rate, 256)
    }

    #[test]
    fn identical_programs_split_evenly() {
        let a = profile("a", 100, 1.0, 20_000);
        let b = profile("b", 100, 1.0, 20_000);
        let model = CoRunModel::new(vec![&a, &b]);
        let np = model.natural_partition(120.0);
        assert!(np.window.is_some());
        assert!((np.occupancy[0] - np.occupancy[1]).abs() < 1e-6);
        assert!((np.occupancy.iter().sum::<f64>() - 120.0).abs() < 1e-6);
    }

    #[test]
    fn higher_rate_gets_more_cache_under_pressure() {
        // Two identical 100-block loops, one running 3x faster: in any
        // window the fast one touches 3x the blocks until it saturates.
        let a = profile("fast", 100, 3.0, 30_000);
        let b = profile("slow", 100, 1.0, 30_000);
        let model = CoRunModel::new(vec![&a, &b]);
        let np = model.natural_partition(80.0);
        assert!(
            np.occupancy[0] > 2.5 * np.occupancy[1],
            "occupancies {:?}",
            np.occupancy
        );
    }

    #[test]
    fn cache_bigger_than_total_footprint_never_fills() {
        let a = profile("a", 20, 1.0, 5_000);
        let b = profile("b", 30, 1.0, 5_000);
        let model = CoRunModel::new(vec![&a, &b]);
        assert_eq!(model.natural_window(100.0), None);
        let np = model.natural_partition(100.0);
        assert_eq!(np.window, None);
        assert_eq!(np.occupancy, vec![20.0, 30.0]);
        assert_eq!(model.shared_group_miss_ratio(100.0), 0.0);
        assert_eq!(model.member_shared_miss_ratios(100.0), vec![0.0, 0.0]);
    }

    #[test]
    fn group_miss_ratio_is_share_weighted_member_mean() {
        let a = profile("a", 150, 2.0, 30_000);
        let b = profile("b", 60, 1.0, 30_000);
        let model = CoRunModel::new(vec![&a, &b]);
        let cache = 120.0;
        let members = model.member_shared_miss_ratios(cache);
        let weighted: f64 = members.iter().zip(model.shares()).map(|(m, s)| m * s).sum();
        let group = model.shared_group_miss_ratio(cache);
        assert!(
            (weighted - group).abs() < 1e-6,
            "weighted {weighted} vs group {group}"
        );
    }

    #[test]
    fn natural_window_solves_fixed_point() {
        let a = profile("a", 200, 1.0, 40_000);
        let b = profile("b", 120, 1.5, 40_000);
        let model = CoRunModel::new(vec![&a, &b]);
        let cache = 180.0;
        let w = model.natural_window(cache).expect("cache fills");
        assert!(
            (model.total_footprint(w) - cache).abs() < 1e-3,
            "fp(w*) = {} should equal {cache}",
            model.total_footprint(w)
        );
    }

    #[test]
    fn thrashing_group_has_high_miss_ratio() {
        // Two 200-block loops sharing 100 blocks: everyone misses.
        let a = profile("a", 200, 1.0, 40_000);
        let b = profile("b", 200, 1.0, 40_000);
        let model = CoRunModel::new(vec![&a, &b]);
        let group = model.shared_group_miss_ratio(100.0);
        assert!(group > 0.9, "group mr {group}");
    }

    #[test]
    #[should_panic(expected = "needs members")]
    fn empty_group_panics() {
        let _ = CoRunModel::new(vec![]);
    }

    #[test]
    fn singleton_group_reduces_to_solo() {
        let a = profile("a", 100, 1.0, 30_000);
        let model = CoRunModel::new(vec![&a]);
        for cache in [25.0, 50.0, 99.0] {
            let shared = model.member_shared_miss_ratios(cache)[0];
            let solo = a.footprint.miss_ratio(cache);
            assert!(
                (shared - solo).abs() < 1e-6,
                "cache {cache}: shared {shared} vs solo {solo}"
            );
        }
    }
}
