//! Per-program allocation cost curves.
//!
//! The dynamic program minimizes an accumulated cost `Σ_i cost_i(c_i)`
//! (or `max_i`, for QoS). For throughput the natural cost is the
//! program's contribution to the group miss ratio: its access share
//! times its miss ratio at the allocation (Eq. 12/14's `f_i · mr_i(c_i)`).
//! Section VI's *baseline optimization* adds a per-program fairness cap:
//! any allocation at which the program would miss more than its baseline
//! is **forbidden** (`+∞` cost), and the DP simply never picks it.

use crate::config::CacheConfig;
use crate::objective::Objective;
use cps_hotl::MissRatioCurve;

/// Cost forbidden by a baseline constraint.
pub const FORBIDDEN: f64 = f64::INFINITY;

/// Normalizes non-negative activity weights (access counts or rates)
/// into shares `f_i` summing to 1, falling back to an equal split when
/// the total is zero — the DP's throughput weights.
///
/// # Panics
/// Panics if `weights` is empty or contains a negative/non-finite value.
pub fn access_shares(weights: &[f64]) -> Vec<f64> {
    assert!(!weights.is_empty(), "need at least one program");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and non-negative"
    );
    let total: f64 = weights.iter().sum();
    if total == 0.0 {
        vec![1.0 / weights.len() as f64; weights.len()]
    } else {
        weights.iter().map(|w| w / total).collect()
    }
}

/// Per-program baseline caps at a fixed allocation:
/// `mrcs[i].at(to_blocks(alloc[i]))` — the miss ratio each program
/// achieves under `alloc`, which the baseline-constrained DP must not
/// let it exceed.
///
/// # Panics
/// Panics if `mrcs` and `alloc` lengths differ.
pub fn caps_at_allocation(
    mrcs: &[&MissRatioCurve],
    config: &CacheConfig,
    alloc: &[usize],
) -> Vec<f64> {
    assert_eq!(mrcs.len(), alloc.len(), "one allocation per program");
    mrcs.iter()
        .zip(alloc)
        .map(|(m, &u)| m.at(config.to_blocks(u)))
        .collect()
}

/// Caps for the *equal-partition* baseline of Section VI: each program
/// must do no worse than it would in a `1/P` share of the cache.
pub fn equal_baseline_caps(mrcs: &[&MissRatioCurve], config: &CacheConfig) -> Vec<f64> {
    caps_at_allocation(mrcs, config, &config.equal_split(mrcs.len()))
}

/// Builds the DP's per-program cost-curve vector in one call.
///
/// Per-program cost construction follows the objective — see
/// [`Objective::cost_curves`], to which this delegates. Under the
/// default [`Objective::MissRatioSum`] each program is weighted by its
/// access share (summed costs equal the group miss ratio); under
/// [`Objective::MaxMissRatio`] every program weighs 1 (max-min on raw
/// miss ratios). With `caps`, allocations violating a program's
/// baseline become [`FORBIDDEN`] under every objective.
///
/// # Panics
/// Panics if `mrcs`, `shares`, and any `caps` differ in length.
pub fn build_cost_curves(
    mrcs: &[&MissRatioCurve],
    config: &CacheConfig,
    shares: &[f64],
    objective: &Objective,
    caps: Option<&[f64]>,
) -> Vec<CostCurve> {
    objective.cost_curves(mrcs, config, shares, caps)
}

/// `cost(mrc.at(config.to_blocks(u)))` for `u ∈ 0..=config.units`: the
/// samples read by stride `blocks_per_unit`, then the cost of the
/// clamped last sample for every unit past the sampled range.
fn per_unit(mrc: &MissRatioCurve, config: &CacheConfig, cost: impl Fn(f64) -> f64) -> Vec<f64> {
    let samples = mrc.samples();
    let bpu = config.blocks_per_unit;
    let sampled = ((samples.len() - 1) / bpu).min(config.units) + 1;
    let read = &samples[..(sampled - 1) * bpu + 1];
    let mut costs = Vec::with_capacity(config.units + 1);
    match bpu {
        // One block per unit: a plain map, which vectorises.
        1 => costs.extend(read.iter().map(|&mr| cost(mr))),
        _ => costs.extend(read.iter().step_by(bpu).map(|&mr| cost(mr))),
    }
    costs.resize(config.units + 1, cost(samples[samples.len() - 1]));
    costs
}

/// Cost of giving a program `0..=units` partition units.
#[derive(Clone, Debug, PartialEq)]
pub struct CostCurve {
    costs: Vec<f64>,
}

impl CostCurve {
    /// Wraps raw per-unit costs (`costs[u]` = cost at `u` units).
    ///
    /// # Panics
    /// Panics if empty or if any value is NaN or `−∞`. `+∞` is allowed —
    /// it encodes a forbidden allocation, and it is the only infinity
    /// the DP reasons about (`+∞ + −∞` would be NaN).
    pub fn from_raw(costs: Vec<f64>) -> Self {
        assert!(!costs.is_empty(), "cost curve needs at least one entry");
        // A fold, not `all`: without the early exit the check vectorises.
        assert!(
            costs
                .iter()
                .fold(true, |ok, &c| ok & (c > f64::NEG_INFINITY)),
            "costs must not be NaN or -inf (forbidden is +inf)"
        );
        CostCurve { costs }
    }

    /// Throughput cost: `weight · mr(u · blocks_per_unit)` for
    /// `u ∈ 0..=config.units`. `weight` is the program's access share
    /// `f_i` so that summed costs equal the group miss ratio.
    pub fn from_miss_ratio(mrc: &MissRatioCurve, config: &CacheConfig, weight: f64) -> Self {
        assert!(weight >= 0.0, "weight must be non-negative");
        CostCurve {
            costs: per_unit(mrc, config, |mr| weight * mr),
        }
    }

    /// Like [`CostCurve::from_miss_ratio`] but with a baseline cap:
    /// allocations where the program's own miss ratio exceeds
    /// `cap_miss_ratio` (plus numerical slack) become [`FORBIDDEN`].
    pub fn with_baseline_cap(
        mrc: &MissRatioCurve,
        config: &CacheConfig,
        weight: f64,
        cap_miss_ratio: f64,
    ) -> Self {
        assert!(weight >= 0.0, "weight must be non-negative");
        let slack = 1e-9 + cap_miss_ratio * 1e-9;
        let limit = cap_miss_ratio + slack;
        CostCurve {
            costs: per_unit(mrc, config, |mr| {
                if mr > limit {
                    FORBIDDEN
                } else {
                    weight * mr
                }
            }),
        }
    }

    /// Cost at `u` units (clamped to the last entry).
    #[inline]
    pub fn at(&self, u: usize) -> f64 {
        self.costs[u.min(self.costs.len() - 1)]
    }

    /// Largest representable allocation.
    pub fn max_units(&self) -> usize {
        self.costs.len() - 1
    }

    /// The raw values.
    pub fn raw(&self) -> &[f64] {
        &self.costs
    }

    /// Replaces the curve with its lower convex envelope (finite part) —
    /// what the convexity-assuming STTW solution effectively optimizes.
    ///
    /// # Panics
    /// Panics if any entry is infinite (STTW has no constraint support,
    /// which is one of the paper's criticisms of it).
    pub fn convex_envelope(&self) -> CostCurve {
        assert!(
            self.costs.iter().all(|c| c.is_finite()),
            "convex envelope undefined with forbidden allocations"
        );
        let curve = cps_dstruct::MonotoneCurve::from_samples(self.costs.clone());
        CostCurve {
            costs: curve.lower_convex_envelope().samples().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_hotl::Footprint;

    fn loop_mrc(ws: u64, len: usize, max_blocks: usize) -> MissRatioCurve {
        let trace: Vec<u64> = (0..len as u64).map(|i| i % ws).collect();
        MissRatioCurve::from_footprint(&Footprint::from_trace(&trace), max_blocks)
    }

    #[test]
    fn throughput_cost_is_weighted_mrc() {
        let mrc = loop_mrc(16, 2000, 32);
        let cfg = CacheConfig::new(16, 2);
        let cost = CostCurve::from_miss_ratio(&mrc, &cfg, 0.25);
        for u in 0..=16 {
            assert!((cost.at(u) - 0.25 * mrc.at(2 * u)).abs() < 1e-12);
        }
        assert_eq!(cost.max_units(), 16);
    }

    #[test]
    fn strided_build_matches_the_clamped_lookup() {
        // Sample counts below, at and above the cache's block count.
        for samples in [1, 2, 7, 33, 64, 65, 200] {
            let mrc = MissRatioCurve::from_samples(
                (0..samples).map(|b| 1.0 / (1.0 + b as f64)).collect(),
            );
            for (units, bpu) in [(1, 1), (16, 1), (16, 2), (13, 3), (40, 5), (64, 1)] {
                let cfg = CacheConfig::new(units, bpu);
                let cost = CostCurve::from_miss_ratio(&mrc, &cfg, 0.3);
                let cap = mrc.at(cfg.to_blocks(units / 2));
                let capped = CostCurve::with_baseline_cap(&mrc, &cfg, 0.3, cap);
                for u in 0..=units {
                    let mr = mrc.at(cfg.to_blocks(u));
                    assert_eq!(cost.raw()[u].to_bits(), (0.3 * mr).to_bits());
                    let limit = cap + (1e-9 + cap * 1e-9);
                    let want = if mr > limit { FORBIDDEN } else { 0.3 * mr };
                    assert_eq!(capped.raw()[u].to_bits(), want.to_bits());
                }
                assert_eq!(cost.max_units(), units);
                assert_eq!(capped.max_units(), units);
            }
        }
    }

    /// The smallest allocation with a finite cost.
    fn first_feasible(cost: &CostCurve) -> Option<usize> {
        cost.raw().iter().position(|c| c.is_finite())
    }

    #[test]
    fn baseline_cap_forbids_high_miss_allocations() {
        let mrc = loop_mrc(16, 2000, 32);
        let cfg = CacheConfig::new(32, 1);
        let cap = mrc.at(16); // baseline: the working set fits
        let cost = CostCurve::with_baseline_cap(&mrc, &cfg, 1.0, cap);
        // Below the cliff the loop thrashes (mr ≈ 1 > cap) → forbidden.
        assert_eq!(cost.at(4), FORBIDDEN);
        assert!(cost.at(16).is_finite());
        assert_eq!(first_feasible(&cost), Some(16));
    }

    #[test]
    fn permissive_cap_forbids_nothing() {
        let mrc = loop_mrc(8, 500, 16);
        let cfg = CacheConfig::new(16, 1);
        let cost = CostCurve::with_baseline_cap(&mrc, &cfg, 1.0, 1.0);
        assert_eq!(first_feasible(&cost), Some(0));
    }

    #[test]
    fn envelope_is_convex_lower_bound() {
        let cost = CostCurve::from_raw(vec![1.0, 1.0, 0.9, 0.2, 0.2, 0.1]);
        let env = cost.convex_envelope();
        for u in 0..=5 {
            assert!(env.at(u) <= cost.at(u) + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "forbidden allocations")]
    fn envelope_rejects_constraints() {
        let cost = CostCurve::from_raw(vec![FORBIDDEN, 0.5, 0.1]);
        let _ = cost.convex_envelope();
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_cost_rejected() {
        let _ = CostCurve::from_raw(vec![0.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "-inf")]
    fn negative_infinity_cost_rejected() {
        let _ = CostCurve::from_raw(vec![0.0, f64::NEG_INFINITY]);
    }

    #[test]
    fn clamping_past_end() {
        let cost = CostCurve::from_raw(vec![0.5, 0.2]);
        assert_eq!(cost.at(10), 0.2);
    }

    #[test]
    fn shares_normalize_and_fall_back_to_equal() {
        let s = access_shares(&[30.0, 10.0]);
        assert!((s[0] - 0.75).abs() < 1e-12);
        assert!((s[1] - 0.25).abs() < 1e-12);
        assert_eq!(access_shares(&[0.0, 0.0, 0.0]), vec![1.0 / 3.0; 3]);
    }

    #[test]
    #[should_panic(expected = "at least one program")]
    fn shares_reject_empty() {
        let _ = access_shares(&[]);
    }

    #[test]
    fn equal_caps_read_curves_at_equal_split() {
        let m1 = loop_mrc(16, 2000, 32);
        let m2 = loop_mrc(8, 2000, 32);
        let cfg = CacheConfig::new(16, 2);
        let caps = equal_baseline_caps(&[&m1, &m2], &cfg);
        // equal_split(2) of 16 units = [8, 8] units = 16 blocks each.
        assert_eq!(caps, vec![m1.at(16), m2.at(16)]);
    }

    #[test]
    fn built_curves_match_hand_built_ones() {
        let m1 = loop_mrc(16, 2000, 64);
        let m2 = loop_mrc(40, 2000, 64);
        let cfg = CacheConfig::new(32, 2);
        let shares = access_shares(&[300.0, 100.0]);

        let sum = build_cost_curves(&[&m1, &m2], &cfg, &shares, &Objective::MissRatioSum, None);
        assert_eq!(sum[0], CostCurve::from_miss_ratio(&m1, &cfg, shares[0]));
        assert_eq!(sum[1], CostCurve::from_miss_ratio(&m2, &cfg, shares[1]));

        // Max-min ignores shares: every program weighs 1.
        let max = build_cost_curves(&[&m1, &m2], &cfg, &shares, &Objective::MaxMissRatio, None);
        assert_eq!(max[0], CostCurve::from_miss_ratio(&m1, &cfg, 1.0));

        let caps = equal_baseline_caps(&[&m1, &m2], &cfg);
        let capped = build_cost_curves(
            &[&m1, &m2],
            &cfg,
            &shares,
            &Objective::MissRatioSum,
            Some(&caps),
        );
        assert_eq!(
            capped[0],
            CostCurve::with_baseline_cap(&m1, &cfg, shares[0], caps[0])
        );
        assert_eq!(
            capped[1],
            CostCurve::with_baseline_cap(&m2, &cfg, shares[1], caps[1])
        );
    }
}
