//! Whole-study evaluation: every k-program co-run group (Section VII's
//! 1820-group methodology).
//!
//! The paper enumerates all `C(16, 4) = 1820` co-run groups of its
//! program set and evaluates the six schemes for each — exhaustive
//! because "a random subset … can mislead". Groups are independent, so
//! the sweep splits the enumeration into one contiguous chunk per
//! available core (the caller's thread plus `std::thread::scope`
//! workers, one reused [`DpSolver`] each) and concatenates the chunks
//! in enumeration order: the records are the same, in the same order,
//! as a one-by-one loop. Each group runs three `O(P·C²)` DPs (Optimal
//! and the two baselines) plus the cheap schemes.

use crate::config::CacheConfig;
use crate::dp::DpSolver;
use crate::objective::Objective;
use crate::schemes::{evaluate_group_on, GroupEvaluation, Scheme};
use cps_dstruct::stats::{fraction_at_least, Summary};
use cps_hotl::SoloProfile;
use cps_trace::ProgramSpec;

/// A profiled study set: the 16 programs plus the cache geometry.
#[derive(Clone, Debug)]
pub struct Study {
    /// Solo profiles, one per program.
    pub profiles: Vec<SoloProfile>,
    /// Cache geometry shared by all evaluations.
    pub config: CacheConfig,
}

impl Study {
    /// Generates and profiles every program of `specs`, in order.
    pub fn build(specs: &[ProgramSpec], config: CacheConfig) -> Study {
        let profiles = specs
            .iter()
            .map(|spec| {
                let trace = spec.trace();
                SoloProfile::from_trace(spec.name, &trace.blocks, spec.access_rate, config.blocks())
            })
            .collect();
        Study { profiles, config }
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True if the study has no programs.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Index of a program by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.profiles.iter().position(|p| p.name == name)
    }
}

/// One evaluated co-run group.
#[derive(Clone, Debug)]
pub struct GroupRecord {
    /// Indices into the study's program list.
    pub indices: Vec<usize>,
    /// The six-scheme evaluation.
    pub evaluation: GroupEvaluation,
}

/// All `C(n, k)` index subsets in lexicographic order.
pub fn all_k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut cur: Vec<usize> = (0..k).collect();
    loop {
        out.push(cur.clone());
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if cur[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        cur[i] += 1;
        for j in i + 1..k {
            cur[j] = cur[j - 1] + 1;
        }
    }
}

/// Evaluates every `k`-program group of the study under the default
/// miss-ratio-sum objective.
pub fn sweep_groups(study: &Study, k: usize) -> Vec<GroupRecord> {
    sweep_groups_with(study, k, &Objective::MissRatioSum)
}

/// Evaluates every `k`-program group of the study under `objective` —
/// one tournament leg. Records come back in [`all_k_subsets`] order
/// however many workers [`std::thread::available_parallelism`] grants.
pub fn sweep_groups_with(study: &Study, k: usize, objective: &Objective) -> Vec<GroupRecord> {
    let subsets = all_k_subsets(study.len(), k);
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let evaluate_chunk = |chunk: &[Vec<usize>]| -> Vec<GroupRecord> {
        let mut solver = DpSolver::new();
        chunk
            .iter()
            .map(|indices| {
                let members: Vec<&SoloProfile> =
                    indices.iter().map(|&i| &study.profiles[i]).collect();
                GroupRecord {
                    evaluation: evaluate_group_on(&mut solver, &members, &study.config, objective),
                    indices: indices.clone(),
                }
            })
            .collect()
    };
    // The first chunk runs here, the rest on scoped threads: one core
    // spawns nothing, and joining in spawn order keeps the records in
    // enumeration order.
    let mut chunks = subsets.chunks(subsets.len().div_ceil(workers).max(1));
    let first = chunks.next().unwrap_or_default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || evaluate_chunk(chunk)))
            .collect();
        let mut records = evaluate_chunk(first);
        for handle in handles {
            records.extend(handle.join().expect("sweep worker panicked"));
        }
        records
    })
}

/// Table I row: distribution of Optimal's improvement over one scheme.
#[derive(Clone, Copy, Debug)]
pub struct ImprovementStats {
    /// Which scheme Optimal is compared against.
    pub versus: Scheme,
    /// Distribution of per-group improvements, in percent.
    pub summary: Summary,
    /// Fraction of groups improved by ≥ 10%.
    pub improved_10pct: f64,
    /// Fraction of groups improved by ≥ 20%.
    pub improved_20pct: f64,
}

/// Computes one Table I row from swept records.
pub fn improvement_stats(records: &[GroupRecord], versus: Scheme) -> Option<ImprovementStats> {
    let improvements: Vec<f64> = records
        .iter()
        .map(|r| r.evaluation.improvement_of_optimal_over(versus))
        .collect();
    Some(ImprovementStats {
        versus,
        summary: Summary::from_samples(&improvements)?,
        improved_10pct: fraction_at_least(&improvements, 10.0),
        improved_20pct: fraction_at_least(&improvements, 20.0),
    })
}

/// Like [`improvement_stats`] but over the sign-robust
/// [`GroupEvaluation::gap_of_optimal_over`] metric — safe for
/// objectives whose group costs can be negative (utility). This is the
/// tournament's per-objective comparison row.
pub fn gap_stats(records: &[GroupRecord], versus: Scheme) -> Option<ImprovementStats> {
    let gaps: Vec<f64> = records
        .iter()
        .map(|r| r.evaluation.gap_of_optimal_over(versus))
        .collect();
    Some(ImprovementStats {
        versus,
        summary: Summary::from_samples(&gaps)?,
        improved_10pct: fraction_at_least(&gaps, 10.0),
        improved_20pct: fraction_at_least(&gaps, 20.0),
    })
}

/// All five Table I rows (every scheme except Optimal itself).
pub fn table1(records: &[GroupRecord]) -> Vec<ImprovementStats> {
    [
        Scheme::Equal,
        Scheme::EqualBaseline,
        Scheme::Natural,
        Scheme::NaturalBaseline,
        Scheme::Sttw,
    ]
    .into_iter()
    .filter_map(|s| improvement_stats(records, s))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_trace::WorkloadSpec;

    fn tiny_specs() -> Vec<ProgramSpec> {
        let mk = |name: &'static str, ws: u64, rate: f64| ProgramSpec {
            name,
            workload: WorkloadSpec::SequentialLoop { working_set: ws },
            access_rate: rate,
            trace_len: 20_000,
            seed: ws,
        };
        vec![
            mk("p0", 20, 1.0),
            mk("p1", 40, 1.5),
            mk("p2", 70, 0.8),
            mk("p3", 110, 1.2),
            mk("p4", 25, 1.0),
        ]
    }

    #[test]
    fn subsets_enumerate_binomials() {
        assert_eq!(all_k_subsets(5, 2).len(), 10);
        assert_eq!(all_k_subsets(16, 4).len(), 1820);
        assert_eq!(all_k_subsets(4, 4), vec![vec![0, 1, 2, 3]]);
        assert_eq!(all_k_subsets(3, 5), Vec::<Vec<usize>>::new());
        // Lexicographic and strictly increasing inside each subset.
        let subs = all_k_subsets(5, 3);
        assert_eq!(subs[0], vec![0, 1, 2]);
        assert_eq!(subs.last().unwrap(), &vec![2, 3, 4]);
        for s in &subs {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn study_builds_profiles() {
        let study = Study::build(&tiny_specs(), CacheConfig::new(64, 2));
        assert_eq!(study.len(), 5);
        assert_eq!(study.index_of("p2"), Some(2));
        assert_eq!(study.index_of("nope"), None);
        for p in &study.profiles {
            assert_eq!(p.mrc.max_blocks(), 128);
        }
    }

    #[test]
    fn sweep_covers_all_groups_and_is_deterministic() {
        let study = Study::build(&tiny_specs(), CacheConfig::new(32, 2));
        let records = sweep_groups(&study, 3);
        assert_eq!(records.len(), 10);
        let again = sweep_groups(&study, 3);
        for (a, b) in records.iter().zip(&again) {
            assert_eq!(a.indices, b.indices);
            for s in Scheme::ALL {
                assert_eq!(
                    a.evaluation.get(s).group_miss_ratio,
                    b.evaluation.get(s).group_miss_ratio
                );
            }
        }
    }

    /// The parallel sweep against the loop it replaced, written out
    /// here: same groups, same order, every field bit-equal.
    fn assert_matches_in_order_loop(study: &Study, k: usize, objective: &Objective) {
        let records = sweep_groups_with(study, k, objective);
        let subsets = all_k_subsets(study.len(), k);
        assert_eq!(records.len(), subsets.len());
        for (record, indices) in records.iter().zip(&subsets) {
            assert_eq!(&record.indices, indices);
            let members: Vec<&SoloProfile> = indices.iter().map(|&i| &study.profiles[i]).collect();
            let alone = crate::schemes::evaluate_group_with(&members, &study.config, objective);
            assert_eq!(record.evaluation.names, alone.names);
            assert_eq!(record.evaluation.shares, alone.shares);
            for (a, b) in record.evaluation.results.iter().zip(&alone.results) {
                assert_eq!(a.scheme, b.scheme);
                assert_eq!(
                    a.allocation,
                    b.allocation,
                    "{indices:?} {}",
                    a.scheme.name()
                );
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.member_miss_ratios), bits(&b.member_miss_ratios));
                assert_eq!(a.group_miss_ratio.to_bits(), b.group_miss_ratio.to_bits());
            }
        }
    }

    #[test]
    fn sweep_matches_an_in_order_loop_whatever_the_worker_count() {
        let specs = tiny_specs();
        let study = Study::build(&specs, CacheConfig::new(32, 2));
        for objective in [Objective::MissRatioSum, Objective::MaxMissRatio] {
            assert_matches_in_order_loop(&study, 3, &objective);
        }
        // Fewer groups than workers: one group, then none at all.
        let small = Study::build(&specs[..3], CacheConfig::new(32, 2));
        assert_matches_in_order_loop(&small, 3, &Objective::MissRatioSum);
        assert_matches_in_order_loop(&small, 4, &Objective::MissRatioSum);
    }

    #[test]
    fn table1_rows_are_nonnegative_on_average() {
        let study = Study::build(&tiny_specs(), CacheConfig::new(32, 2));
        let records = sweep_groups(&study, 3);
        let rows = table1(&records);
        assert_eq!(rows.len(), 5);
        for row in rows {
            // Optimal is optimal: improvements can be 0 but the *min*
            // must not be negative beyond numerical noise.
            assert!(
                row.summary.min > -1e-6,
                "{}: min improvement {}",
                row.versus.name(),
                row.summary.min
            );
            assert!(row.improved_10pct >= row.improved_20pct);
        }
    }
}
