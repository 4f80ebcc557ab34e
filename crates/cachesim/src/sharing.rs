//! General partition-sharing simulation (the paper's Figure 2, case 2).
//!
//! Programs are grouped; each group shares one LRU partition; partitions
//! do not interact. Strict partitioning (every group a singleton) and
//! free-for-all sharing (one group with the whole cache) fall out as the
//! edge cases, which the tests pin down. This simulator is what shows
//! that, for *synchronized phase* workloads like Figure 1, a mixed scheme
//! can beat both edges — the one situation where the natural-partition
//! reduction does not apply.

use crate::lru::LruCache;
use crate::metrics::AccessCounts;
use crate::shared::SharedSimResult;
use cps_trace::CoTrace;

/// A partition-sharing configuration: which programs share which
/// partition, and how big each partition is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSharingScheme {
    /// `groups[g]` lists the program indices assigned to partition `g`.
    pub groups: Vec<Vec<usize>>,
    /// `sizes[g]` is partition `g`'s capacity in blocks.
    pub sizes: Vec<usize>,
}

impl PartitionSharingScheme {
    /// Strict partitioning: program `i` alone in `sizes[i]` blocks.
    pub fn partitioning(sizes: Vec<usize>) -> Self {
        PartitionSharingScheme {
            groups: (0..sizes.len()).map(|i| vec![i]).collect(),
            sizes,
        }
    }

    /// Free-for-all: all `num_programs` share one `capacity`-block cache.
    pub fn free_for_all(num_programs: usize, capacity: usize) -> Self {
        PartitionSharingScheme {
            groups: vec![(0..num_programs).collect()],
            sizes: vec![capacity],
        }
    }

    /// Checks structural validity for `num_programs`: every program in
    /// exactly one group, one size per group.
    pub fn validate(&self, num_programs: usize) -> Result<(), String> {
        if self.groups.len() != self.sizes.len() {
            return Err(format!(
                "{} groups but {} sizes",
                self.groups.len(),
                self.sizes.len()
            ));
        }
        let mut seen = vec![false; num_programs];
        for (g, group) in self.groups.iter().enumerate() {
            if group.is_empty() {
                return Err(format!("group {g} is empty"));
            }
            for &p in group {
                if p >= num_programs {
                    return Err(format!("group {g} references program {p}"));
                }
                if seen[p] {
                    return Err(format!("program {p} appears twice"));
                }
                seen[p] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("program {missing} is in no group"));
        }
        Ok(())
    }
}

/// Simulates a merged co-run trace under a partition-sharing scheme,
/// with the first `warmup` accesses uncounted.
///
/// # Panics
/// Panics if the scheme fails [`PartitionSharingScheme::validate`].
pub fn simulate_partition_sharing(
    co: &CoTrace,
    scheme: &PartitionSharingScheme,
    num_programs: usize,
    warmup: usize,
) -> SharedSimResult {
    scheme
        .validate(num_programs)
        .unwrap_or_else(|e| panic!("invalid partition-sharing scheme: {e}"));
    // program -> partition index
    let mut owner = vec![usize::MAX; num_programs];
    for (g, group) in scheme.groups.iter().enumerate() {
        for &p in group {
            owner[p] = g;
        }
    }
    let mut caches: Vec<LruCache> = scheme.sizes.iter().map(|&c| LruCache::new(c)).collect();
    let mut per_program = vec![AccessCounts::default(); num_programs];
    let mut total = AccessCounts::default();
    for (i, acc) in co.accesses.iter().enumerate() {
        let g = owner[acc.program as usize];
        let hit = caches[g].access(acc.block);
        if i >= warmup {
            per_program[acc.program as usize].record(hit);
            total.record(hit);
        }
    }
    SharedSimResult { per_program, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::simulate_shared_warm;
    use cps_trace::{interleave_proportional, Trace, WorkloadSpec};

    fn co_run(workloads: &[WorkloadSpec], len: usize) -> CoTrace {
        let traces: Vec<Trace> = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| w.generate(len, 100 + i as u64))
            .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let rates = vec![1.0; workloads.len()];
        interleave_proportional(&refs, &rates, len * workloads.len())
    }

    fn loops(ws: &[u64]) -> Vec<WorkloadSpec> {
        ws.iter()
            .map(|&working_set| WorkloadSpec::SequentialLoop { working_set })
            .collect()
    }

    #[test]
    fn free_for_all_matches_shared_simulator() {
        let co = co_run(&loops(&[30, 70, 50]), 4_000);
        let scheme = PartitionSharingScheme::free_for_all(3, 90);
        let a = simulate_partition_sharing(&co, &scheme, 3, 500);
        let b = simulate_shared_warm(&co, 90, 3, 500);
        assert_eq!(a.total, b.total);
        assert_eq!(a.per_program, b.per_program);
    }

    #[test]
    fn strict_partitioning_matches_solo_runs() {
        let specs = loops(&[25, 60]);
        let len = 4_000;
        let co = co_run(&specs, len);
        let scheme = PartitionSharingScheme::partitioning(vec![30, 50]);
        let res = simulate_partition_sharing(&co, &scheme, 2, 0);
        // Private partitions = solo behaviour on each program's slice of
        // the interleaved trace (which is just its own trace, order
        // preserved by interleaving).
        for (i, spec) in specs.iter().enumerate() {
            let solo_trace = spec.generate(len, 100 + i as u64);
            let solo = crate::lru::simulate_solo(&solo_trace.blocks, scheme.sizes[i]);
            assert_eq!(res.per_program[i].misses, solo.misses, "program {i}");
        }
    }

    #[test]
    fn mixed_scheme_runs_and_accounts() {
        let co = co_run(&loops(&[20, 20, 90]), 6_000);
        let scheme = PartitionSharingScheme {
            groups: vec![vec![0, 1], vec![2]],
            sizes: vec![45, 95],
        };
        let res = simulate_partition_sharing(&co, &scheme, 3, 1_000);
        // Group 0: two 20-loops in 45 blocks — fits, near-zero misses.
        assert!(res.per_program[0].miss_ratio() < 0.01);
        assert!(res.per_program[1].miss_ratio() < 0.01);
        // Group 1: 90-loop in 95 blocks — fits.
        assert!(res.per_program[2].miss_ratio() < 0.01);
    }

    #[test]
    fn validate_catches_structural_errors() {
        let ok = PartitionSharingScheme {
            groups: vec![vec![0], vec![1, 2]],
            sizes: vec![10, 20],
        };
        assert!(ok.validate(3).is_ok());
        let dup = PartitionSharingScheme {
            groups: vec![vec![0], vec![0, 1]],
            sizes: vec![10, 20],
        };
        assert!(dup.validate(2).unwrap_err().contains("twice"));
        let missing = PartitionSharingScheme {
            groups: vec![vec![0]],
            sizes: vec![10],
        };
        assert!(missing.validate(2).unwrap_err().contains("no group"));
        let empty = PartitionSharingScheme {
            groups: vec![vec![0], vec![]],
            sizes: vec![10, 5],
        };
        assert!(empty.validate(1).is_err());
        let badsize = PartitionSharingScheme {
            groups: vec![vec![0]],
            sizes: vec![],
        };
        assert!(badsize.validate(1).unwrap_err().contains("sizes"));
    }

    #[test]
    fn figure1_synchronized_phases_favor_partition_sharing() {
        // Paper Figure 1: cores 1–2 stream; cores 3–4 alternate between
        // large and small working sets in *opposite* phase. Sharing one
        // partition between 3 and 4 lets each use the space when the
        // other does not — no pure partitioning can do that.
        let stream1 = WorkloadSpec::SequentialLoop { working_set: 4000 };
        let stream2 = WorkloadSpec::SequentialLoop { working_set: 4000 };
        let phase_len = 2_000u64;
        let big = 120u64;
        let small = 4u64;
        // Core 3: big then small; core 4: small then big.
        let core3 = WorkloadSpec::Phased {
            phases: vec![
                (WorkloadSpec::SequentialLoop { working_set: big }, phase_len),
                (
                    WorkloadSpec::SequentialLoop { working_set: small },
                    phase_len,
                ),
            ],
        };
        let core4 = WorkloadSpec::Phased {
            phases: vec![
                (
                    WorkloadSpec::SequentialLoop { working_set: small },
                    phase_len,
                ),
                (WorkloadSpec::SequentialLoop { working_set: big }, phase_len),
            ],
        };
        let co = co_run(&[stream1, stream2, core3, core4], 40_000);
        let cache = 160usize;
        // Partition-sharing: stream cores fenced off with 1 block each;
        // cores 3 and 4 share the rest.
        let ps = PartitionSharingScheme {
            groups: vec![vec![0], vec![1], vec![2, 3]],
            sizes: vec![1, 1, cache - 2],
        };
        // Best static partitioning must split the shared space; giving
        // each phase program ~half.
        let half = (cache - 2) / 2;
        let pp = PartitionSharingScheme::partitioning(vec![1, 1, half, cache - 2 - half]);
        let warm = 8_000;
        let ps_mr = simulate_partition_sharing(&co, &ps, 4, warm).group_miss_ratio();
        let pp_mr = simulate_partition_sharing(&co, &pp, 4, warm).group_miss_ratio();
        let ffa_mr = simulate_shared_warm(&co, cache, 4, warm).group_miss_ratio();
        assert!(
            ps_mr < pp_mr,
            "partition-sharing {ps_mr} should beat partitioning {pp_mr}"
        );
        assert!(
            ps_mr < ffa_mr,
            "partition-sharing {ps_mr} should beat free-for-all {ffa_mr}"
        );
    }
}
