//! Partition-sharing configurations and the reduction theorem
//! (Sections II and V-A).
//!
//! A partition-sharing configuration groups programs and walls the cache
//! between the groups; within each partition the group shares freely.
//! Under the Natural Partition Assumption a shared partition performs
//! like its internal natural partition, so every configuration is
//! performance-equivalent to some pure partitioning — which is why the
//! optimal pure partition (searchable in `O(P·C²)`) upper-bounds the
//! entire `S2 ≈ 180 M`-point partition-sharing space.
//! [`best_partition_sharing`] verifies this numerically by exhaustive
//! search at coarse granularity.

use crate::config::CacheConfig;
use cps_hotl::{CoRunModel, SoloProfile};

/// A partition-sharing configuration over a group of programs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharingConfig {
    /// `groups[g]` lists member indices sharing partition `g`.
    pub groups: Vec<Vec<usize>>,
    /// Partition sizes in units; sums to the cache.
    pub unit_sizes: Vec<usize>,
}

impl SharingConfig {
    /// Free-for-all: one partition holding everybody.
    pub fn free_for_all(num_programs: usize, units: usize) -> Self {
        SharingConfig {
            groups: vec![(0..num_programs).collect()],
            unit_sizes: vec![units],
        }
    }

    /// Strict partitioning with the given per-program sizes.
    pub fn partitioning(unit_sizes: Vec<usize>) -> Self {
        SharingConfig {
            groups: (0..unit_sizes.len()).map(|i| vec![i]).collect(),
            unit_sizes,
        }
    }
}

/// HOTL-predicted evaluation of a partition-sharing configuration:
/// returns `(member_miss_ratios, group_miss_ratio)` where the group
/// value is weighted by the members' global access shares.
///
/// Uses the *continuous* composition model: within a shared partition,
/// member occupancies are the fractional natural occupancies. See
/// [`evaluate_sharing_quantized`] for the block-quantized variant the
/// reduction theorem is stated against.
pub fn evaluate_sharing(
    members: &[&SoloProfile],
    config: &CacheConfig,
    sharing: &SharingConfig,
) -> (Vec<f64>, f64) {
    let total_rate: f64 = members.iter().map(|m| m.access_rate).sum();
    let mut member_mrs = vec![0.0; members.len()];
    for (group, &units) in sharing.groups.iter().zip(&sharing.unit_sizes) {
        let subgroup: Vec<&SoloProfile> = group.iter().map(|&i| members[i]).collect();
        let model = CoRunModel::new(subgroup);
        let mrs = model.member_shared_miss_ratios(config.to_blocks(units) as f64);
        for (&i, mr) in group.iter().zip(mrs) {
            member_mrs[i] = mr;
        }
    }
    let group_mr = members
        .iter()
        .zip(&member_mrs)
        .map(|(m, mr)| m.access_rate / total_rate * mr)
        .sum();
    (member_mrs, group_mr)
}

/// Block-quantized evaluation of a partition-sharing configuration.
///
/// Within each shared partition the natural occupancies are rounded to
/// whole blocks (largest remainder) and each member's miss ratio is read
/// off its solo MRC at that occupancy — exactly the Natural Partition
/// Assumption applied at the granularity a physical cache can realize.
/// Every configuration evaluated this way is, by construction,
/// performance-equal to some pure block-granular partition, which is the
/// reduction theorem of Section V-A.
pub fn evaluate_sharing_quantized(
    members: &[&SoloProfile],
    config: &CacheConfig,
    sharing: &SharingConfig,
) -> (Vec<f64>, f64) {
    let total_rate: f64 = members.iter().map(|m| m.access_rate).sum();
    let mut member_mrs = vec![0.0; members.len()];
    for (group, &units) in sharing.groups.iter().zip(&sharing.unit_sizes) {
        let partition_blocks = config.to_blocks(units);
        let subgroup: Vec<&SoloProfile> = group.iter().map(|&i| members[i]).collect();
        let model = CoRunModel::new(subgroup);
        let np = model.natural_partition(partition_blocks as f64);
        let blocks = crate::natural::round_to_units(&np.occupancy, partition_blocks);
        for (&i, b) in group.iter().zip(blocks) {
            member_mrs[i] = members[i].mrc.at(b);
        }
    }
    let group_mr = members
        .iter()
        .zip(&member_mrs)
        .map(|(m, mr)| m.access_rate / total_rate * mr)
        .sum();
    (member_mrs, group_mr)
}

/// All set partitions of `{0, …, n−1}` (Bell(n) of them), each as a list
/// of groups in canonical order.
pub fn enumerate_set_partitions(n: usize) -> Vec<Vec<Vec<usize>>> {
    let mut out = Vec::new();
    let mut current: Vec<Vec<usize>> = Vec::new();
    fn recurse(i: usize, n: usize, current: &mut Vec<Vec<usize>>, out: &mut Vec<Vec<Vec<usize>>>) {
        if i == n {
            out.push(current.clone());
            return;
        }
        for g in 0..current.len() {
            current[g].push(i);
            recurse(i + 1, n, current, out);
            current[g].pop();
        }
        current.push(vec![i]);
        recurse(i + 1, n, current, out);
        current.pop();
    }
    recurse(0, n, &mut current, &mut out);
    out
}

/// Calls `f` for every composition of `total` into `parts` positive
/// summands.
pub fn for_each_composition(total: usize, parts: usize, f: &mut impl FnMut(&[usize])) {
    if parts == 0 || total < parts {
        return;
    }
    let mut buf = vec![0usize; parts];
    fn recurse(idx: usize, remaining: usize, buf: &mut Vec<usize>, f: &mut impl FnMut(&[usize])) {
        let parts_left = buf.len() - idx;
        if parts_left == 1 {
            buf[idx] = remaining;
            f(buf);
            return;
        }
        // Each remaining part needs ≥ 1.
        for v in 1..=(remaining - (parts_left - 1)) {
            buf[idx] = v;
            recurse(idx + 1, remaining - v, buf, f);
        }
    }
    recurse(0, total, &mut buf, f);
}

/// The best configuration found by exhaustive search, with its group
/// miss ratio.
#[derive(Clone, Debug)]
pub struct SharingSearchResult {
    /// The winning configuration.
    pub config: SharingConfig,
    /// Its predicted group miss ratio.
    pub group_miss_ratio: f64,
    /// Number of configurations examined (Σ over groupings of the wall
    /// placements — Eq. 2 at this granularity).
    pub examined: u64,
}

/// Exhaustively searches **all** partition-sharing configurations of the
/// group at the given (coarse) granularity — every set partition of the
/// programs times every wall placement (Eq. 2) — and returns the best
/// under the continuous composition model.
///
/// Cost grows as `S2(P, units)`; keep `units` small (≤ 64 for 4
/// programs).
pub fn best_partition_sharing(
    members: &[&SoloProfile],
    config: &CacheConfig,
) -> SharingSearchResult {
    best_partition_sharing_with(members, config, evaluate_sharing)
}

/// [`best_partition_sharing`] with the block-quantized evaluator — the
/// variant whose winner is provably matched by the DP's optimal pure
/// partition (the reduction theorem).
pub fn best_partition_sharing_quantized(
    members: &[&SoloProfile],
    config: &CacheConfig,
) -> SharingSearchResult {
    best_partition_sharing_with(members, config, evaluate_sharing_quantized)
}

fn best_partition_sharing_with(
    members: &[&SoloProfile],
    config: &CacheConfig,
    evaluate: impl Fn(&[&SoloProfile], &CacheConfig, &SharingConfig) -> (Vec<f64>, f64),
) -> SharingSearchResult {
    assert!(!members.is_empty(), "group needs members");
    let mut best: Option<(SharingConfig, f64)> = None;
    let mut examined = 0u64;
    for grouping in enumerate_set_partitions(members.len()) {
        let parts = grouping.len();
        let mut consider = |sizes: &[usize]| {
            let cand = SharingConfig {
                groups: grouping.clone(),
                unit_sizes: sizes.to_vec(),
            };
            let (_, mr) = evaluate(members, config, &cand);
            examined += 1;
            if best.as_ref().is_none_or(|(_, b)| mr < *b) {
                best = Some((cand, mr));
            }
        };
        for_each_composition(config.units, parts, &mut consider);
    }
    let (cfg, mr) = best.expect("at least free-for-all exists");
    SharingSearchResult {
        config: cfg,
        group_miss_ratio: mr,
        examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostCurve;
    use crate::dp::optimal_partition;
    use crate::objective::Objective;
    use cps_trace::WorkloadSpec;

    fn profile(name: &str, ws: u64, rate: f64, max_blocks: usize) -> SoloProfile {
        let t = WorkloadSpec::SequentialLoop { working_set: ws }.generate(30_000, ws * 3 + 1);
        SoloProfile::from_trace(name, &t.blocks, rate, max_blocks)
    }

    #[test]
    fn set_partition_counts_are_bell_numbers() {
        for (n, bell) in [(1usize, 1usize), (2, 2), (3, 5), (4, 15), (5, 52)] {
            assert_eq!(enumerate_set_partitions(n).len(), bell, "Bell({n})");
        }
    }

    #[test]
    fn set_partitions_cover_all_elements() {
        for p in enumerate_set_partitions(4) {
            let mut all: Vec<usize> = p.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn composition_count_is_stars_and_bars() {
        // Compositions of 10 into 3 positive parts: C(9, 2) = 36.
        let mut count = 0;
        for_each_composition(10, 3, &mut |c| {
            assert_eq!(c.iter().sum::<usize>(), 10);
            assert!(c.iter().all(|&v| v >= 1));
            count += 1;
        });
        assert_eq!(count, 36);
    }

    #[test]
    fn composition_degenerate_cases() {
        let mut seen = Vec::new();
        for_each_composition(3, 1, &mut |c| seen.push(c.to_vec()));
        assert_eq!(seen, vec![vec![3]]);
        let mut none = 0;
        for_each_composition(2, 3, &mut |_| none += 1);
        assert_eq!(none, 0, "cannot split 2 into 3 positive parts");
    }

    #[test]
    fn free_for_all_matches_corun_model() {
        let a = profile("a", 60, 1.0, 96);
        let b = profile("b", 80, 2.0, 96);
        let members = vec![&a, &b];
        let cfg = CacheConfig::new(96, 1);
        let ffa = SharingConfig::free_for_all(2, 96);
        let (mrs, group) = evaluate_sharing(&members, &cfg, &ffa);
        let model = CoRunModel::new(members.clone());
        let expect = model.member_shared_miss_ratios(96.0);
        for (got, exp) in mrs.iter().zip(&expect) {
            assert!((got - exp).abs() < 1e-9);
        }
        assert!((group - model.shared_group_miss_ratio(96.0)).abs() < 1e-9);
    }

    #[test]
    fn partitioning_matches_solo_curves() {
        let a = profile("a", 40, 1.0, 96);
        let b = profile("b", 70, 1.0, 96);
        let members = vec![&a, &b];
        let cfg = CacheConfig::new(96, 1);
        let part = SharingConfig::partitioning(vec![50, 46]);
        let (mrs, _) = evaluate_sharing(&members, &cfg, &part);
        // Singleton groups: shared-within-partition = solo at partition.
        assert!((mrs[0] - a.footprint.miss_ratio(50.0)).abs() < 1e-6);
        assert!((mrs[1] - b.footprint.miss_ratio(46.0)).abs() < 1e-6);
    }

    #[test]
    fn reduction_theorem_optimal_partitioning_wins() {
        // Under NPA (which our evaluator embodies), the best pure
        // partition is at least as good as the best partition-sharing.
        let a = profile("a", 30, 1.0, 48);
        let b = profile("b", 20, 1.4, 48);
        let c = profile("c", 45, 0.8, 48);
        let members = vec![&a, &b, &c];
        let cfg = CacheConfig::new(24, 2); // 48 blocks, coarse units
        let search = best_partition_sharing(&members, &cfg);
        let shares: Vec<f64> = {
            let t: f64 = members.iter().map(|m| m.access_rate).sum();
            members.iter().map(|m| m.access_rate / t).collect()
        };
        let costs: Vec<CostCurve> = members
            .iter()
            .zip(&shares)
            .map(|(m, &s)| CostCurve::from_miss_ratio(&m.mrc, &cfg, s))
            .collect();
        let dp = optimal_partition(&costs, cfg.units, &Objective::MissRatioSum).unwrap();
        assert!(
            dp.cost <= search.group_miss_ratio + 1e-6,
            "optimal partitioning {} must upper-bound partition-sharing {}",
            dp.cost,
            search.group_miss_ratio
        );
        // Sanity on the search-space size: Σ_npa S(3,npa)·C(23, npa−1)
        // = 1·1 + 3·23 + 1·253 = 323.
        assert_eq!(search.examined, 323);
    }
}
