//! The six cache-allocation schemes of Section VII-A.
//!
//! For every co-run group the paper models:
//!
//! | Scheme | Meaning |
//! |---|---|
//! | **Equal** | each program gets `C/P` (the "socialist" allocation) |
//! | **Natural** | free-for-all sharing, modeled by the natural partition (the "capitalist" allocation) |
//! | **Equal baseline** | group-optimal subject to nobody missing more than under Equal |
//! | **Natural baseline** | group-optimal subject to nobody missing more than under Natural |
//! | **Optimal** | unconstrained group-optimal (the DP) |
//! | **STTW** | the classic convexity-assuming solution |
//!
//! Group miss ratio is always the access-share-weighted mean of member
//! miss ratios (`Σ f_i · mr_i`, Eq. 12/14), so all six are directly
//! comparable.

use crate::config::CacheConfig;
use crate::dp::DpSolver;
use crate::natural::natural_partition_units;
use crate::objective::Objective;
use crate::sttw::sttw_partition;
use cps_hotl::{CoRunModel, MissRatioCurve, SoloProfile};

/// The six evaluated schemes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Equal partitioning: `C/P` each.
    Equal,
    /// Free-for-all sharing (≡ the natural partition under NPA).
    Natural,
    /// Baseline optimization against the Equal baseline (Section VI).
    EqualBaseline,
    /// Baseline optimization against the Natural baseline (Section VI).
    NaturalBaseline,
    /// The unconstrained optimal partition (Section V-B).
    Optimal,
    /// Stone–Thiebaut–Turek–Wolf greedy (Section VII-B).
    Sttw,
}

impl Scheme {
    /// All six schemes, in the paper's reporting order.
    pub const ALL: [Scheme; 6] = [
        Scheme::Equal,
        Scheme::Natural,
        Scheme::EqualBaseline,
        Scheme::NaturalBaseline,
        Scheme::Optimal,
        Scheme::Sttw,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Equal => "Equal",
            Scheme::Natural => "Natural",
            Scheme::EqualBaseline => "Equal baseline",
            Scheme::NaturalBaseline => "Natural baseline",
            Scheme::Optimal => "Optimal",
            Scheme::Sttw => "STTW",
        }
    }
}

/// One scheme's outcome for one group.
#[derive(Clone, Debug)]
pub struct SchemeResult {
    /// Which scheme.
    pub scheme: Scheme,
    /// The partition in units (for Natural: the rounded natural
    /// partition the sharing is equivalent to).
    pub allocation: Vec<usize>,
    /// Each member's predicted miss ratio under the scheme.
    pub member_miss_ratios: Vec<f64>,
    /// Group cost of the allocation under the evaluated objective. Under
    /// the default [`Objective::MissRatioSum`] this is the
    /// access-share-weighted group miss ratio (the field's historical
    /// meaning, kept for compatibility).
    pub group_miss_ratio: f64,
}

/// All six schemes evaluated on one co-run group.
#[derive(Clone, Debug)]
pub struct GroupEvaluation {
    /// Member program names.
    pub names: Vec<String>,
    /// Normalized access shares `f_i`.
    pub shares: Vec<f64>,
    /// Results in [`Scheme::ALL`] order.
    pub results: Vec<SchemeResult>,
}

impl GroupEvaluation {
    /// The result for one scheme.
    pub fn get(&self, scheme: Scheme) -> &SchemeResult {
        self.results
            .iter()
            .find(|r| r.scheme == scheme)
            .expect("all schemes evaluated")
    }

    /// Relative improvement (in percent) of Optimal's group miss ratio
    /// over `scheme`'s: `(mr_s / mr_opt − 1) · 100`.
    ///
    /// Two guards keep the ratio meaningful at the extremes: when both
    /// miss ratios are numerically zero the improvement is 0, and the
    /// ratio is capped at 100× (9900%) — beyond that Optimal has
    /// essentially eliminated the misses and the quotient measures only
    /// floating-point noise. (The paper's largest reported improvement
    /// is 4746%, comfortably inside the cap.)
    pub fn improvement_of_optimal_over(&self, scheme: Scheme) -> f64 {
        let opt = self.get(Scheme::Optimal).group_miss_ratio;
        let other = self.get(scheme).group_miss_ratio;
        if other <= 1e-12 && opt <= 1e-12 {
            return 0.0;
        }
        let ratio = (other / opt.max(1e-12)).min(100.0);
        (ratio - 1.0) * 100.0
    }

    /// Relative gap (in percent) between `scheme`'s group cost and
    /// Optimal's, robust to objectives whose costs can be negative
    /// (utility): `(cost_s − cost_opt) / max(|cost_opt|, 1e-12) · 100`,
    /// capped at 9900%. Coincides with
    /// [`GroupEvaluation::improvement_of_optimal_over`] up to rounding
    /// when both costs are positive.
    pub fn gap_of_optimal_over(&self, scheme: Scheme) -> f64 {
        let opt = self.get(Scheme::Optimal).group_miss_ratio;
        let other = self.get(scheme).group_miss_ratio;
        if (other - opt).abs() <= 1e-12 {
            return 0.0;
        }
        (((other - opt) / opt.abs().max(1e-12)) * 100.0).min(9900.0)
    }
}

fn members_at(members: &[&SoloProfile], config: &CacheConfig, allocation: &[usize]) -> Vec<f64> {
    members
        .iter()
        .zip(allocation)
        .map(|(p, &u)| p.mrc.at(config.to_blocks(u)))
        .collect()
}

/// Evaluates all six schemes for one co-run group under the default
/// miss-ratio-sum objective.
///
/// # Panics
/// Panics if `members` is empty or any member's MRC was sampled short of
/// the cache size.
pub fn evaluate_group(members: &[&SoloProfile], config: &CacheConfig) -> GroupEvaluation {
    evaluate_group_with(members, config, &Objective::MissRatioSum)
}

/// Evaluates all six schemes for one co-run group under `objective`.
///
/// Every scheme's allocation is costed by
/// [`Objective::group_cost`], so the six results are directly comparable
/// under the chosen objective; `member_miss_ratios` always reports raw
/// miss ratios regardless of objective. Under
/// [`Objective::MissRatioSum`] this reproduces [`evaluate_group`]'s
/// historical output bit-for-bit.
///
/// # Panics
/// Panics if `members` is empty, any member's MRC was sampled short of
/// the cache size, or the objective does not validate for the group size
/// (see [`Objective::validate_for`]).
pub fn evaluate_group_with(
    members: &[&SoloProfile],
    config: &CacheConfig,
    objective: &Objective,
) -> GroupEvaluation {
    evaluate_group_on(&mut DpSolver::new(), members, config, objective)
}

/// [`evaluate_group_with`] running its three DPs (Optimal and the two
/// baselines) through the caller's `solver`, so a sweep over many
/// groups allocates the DP tables once per worker, not three times per
/// group. The result does not depend on what the solver ran before.
pub fn evaluate_group_on(
    solver: &mut DpSolver,
    members: &[&SoloProfile],
    config: &CacheConfig,
    objective: &Objective,
) -> GroupEvaluation {
    assert!(!members.is_empty(), "group needs members");
    for p in members {
        assert!(
            p.mrc.max_blocks() >= config.blocks(),
            "{}: MRC sampled to {} blocks but cache is {}",
            p.name,
            p.mrc.max_blocks(),
            config.blocks()
        );
    }
    if let Err(e) = objective.validate_for(members.len()) {
        panic!("{e}");
    }
    let model = CoRunModel::new(members.to_vec());
    let shares = model.shares().to_vec();
    let p = members.len();
    let mrcs: Vec<&MissRatioCurve> = members.iter().map(|m| &m.mrc).collect();
    let costs = objective.cost_curves(&mrcs, config, &shares, None);

    // -- Equal ------------------------------------------------------------
    let equal_alloc = config.equal_split(p);
    let equal_mrs = members_at(members, config, &equal_alloc);
    let equal = SchemeResult {
        scheme: Scheme::Equal,
        group_miss_ratio: objective.group_cost(&costs, &equal_alloc),
        allocation: equal_alloc.clone(),
        member_miss_ratios: equal_mrs.clone(),
    };

    // -- Natural (free-for-all sharing) ------------------------------------
    let natural_alloc = natural_partition_units(&model, config);
    // Under NPA, sharing performs like the natural partition; we evaluate
    // the members at the *rounded* natural partition so that the Natural
    // baseline below is attainable by a legal unit allocation.
    let natural_mrs = members_at(members, config, &natural_alloc);
    let natural = SchemeResult {
        scheme: Scheme::Natural,
        group_miss_ratio: objective.group_cost(&costs, &natural_alloc),
        allocation: natural_alloc.clone(),
        member_miss_ratios: natural_mrs.clone(),
    };

    // -- Optimal ------------------------------------------------------------
    let opt = solver
        .solve(&costs, config.units, objective)
        .expect("unconstrained DP is always feasible");
    let optimal = SchemeResult {
        scheme: Scheme::Optimal,
        member_miss_ratios: members_at(members, config, &opt.allocation),
        group_miss_ratio: opt.cost,
        allocation: opt.allocation,
    };

    // -- STTW ----------------------------------------------------------------
    let st = sttw_partition(&costs, config.units);
    let sttw = SchemeResult {
        scheme: Scheme::Sttw,
        member_miss_ratios: members_at(members, config, &st.allocation),
        group_miss_ratio: objective.group_cost(&costs, &st.allocation),
        allocation: st.allocation,
    };

    // -- Baseline optimizations (Section VI) ----------------------------------
    let mut baseline_result = |scheme: Scheme, caps: &[f64], fallback: &SchemeResult| {
        let capped = objective.cost_curves(&mrcs, config, &shares, Some(caps));
        match solver.solve(&capped, config.units, objective) {
            Some(r) => SchemeResult {
                scheme,
                member_miss_ratios: members_at(members, config, &r.allocation),
                group_miss_ratio: r.cost,
                allocation: r.allocation,
            },
            // The baseline allocation itself is always feasible; this
            // arm only guards numerical slack pathologies.
            None => SchemeResult {
                scheme,
                ..fallback.clone()
            },
        }
    };
    let equal_baseline = baseline_result(Scheme::EqualBaseline, &equal_mrs, &equal);
    let natural_baseline = baseline_result(Scheme::NaturalBaseline, &natural_mrs, &natural);

    GroupEvaluation {
        names: members.iter().map(|m| m.name.clone()).collect(),
        shares,
        results: vec![
            equal,
            natural,
            equal_baseline,
            natural_baseline,
            optimal,
            sttw,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_trace::WorkloadSpec;

    fn profile(name: &str, spec: WorkloadSpec, rate: f64, max_blocks: usize) -> SoloProfile {
        let t = spec.generate(40_000, name.len() as u64 * 31 + 7);
        SoloProfile::from_trace(name, &t.blocks, rate, max_blocks)
    }

    fn small_group(max_blocks: usize) -> Vec<SoloProfile> {
        vec![
            profile(
                "loop-big",
                WorkloadSpec::SequentialLoop { working_set: 90 },
                1.0,
                max_blocks,
            ),
            profile(
                "loop-small",
                WorkloadSpec::SequentialLoop { working_set: 30 },
                1.5,
                max_blocks,
            ),
            profile(
                "zipf",
                WorkloadSpec::Zipfian {
                    region: 300,
                    alpha: 0.7,
                },
                0.8,
                max_blocks,
            ),
        ]
    }

    #[test]
    fn all_schemes_produce_valid_partitions() {
        let ps = small_group(128);
        let refs: Vec<&SoloProfile> = ps.iter().collect();
        let cfg = CacheConfig::new(32, 4); // 128 blocks
        let eval = evaluate_group(&refs, &cfg);
        assert_eq!(eval.results.len(), 6);
        for r in &eval.results {
            assert_eq!(
                r.allocation.iter().sum::<usize>(),
                cfg.units,
                "{}: allocation must use the whole cache",
                r.scheme.name()
            );
            assert_eq!(r.member_miss_ratios.len(), 3);
            assert!(
                (0.0..=1.0).contains(&r.group_miss_ratio),
                "{}: group mr {}",
                r.scheme.name(),
                r.group_miss_ratio
            );
        }
    }

    #[test]
    fn optimal_is_best_of_all_partitions() {
        let ps = small_group(128);
        let refs: Vec<&SoloProfile> = ps.iter().collect();
        let cfg = CacheConfig::new(32, 4);
        let eval = evaluate_group(&refs, &cfg);
        let opt = eval.get(Scheme::Optimal).group_miss_ratio;
        for s in Scheme::ALL {
            assert!(
                opt <= eval.get(s).group_miss_ratio + 1e-9,
                "Optimal must not lose to {}",
                s.name()
            );
        }
    }

    #[test]
    fn baselines_never_hurt_members() {
        let ps = small_group(128);
        let refs: Vec<&SoloProfile> = ps.iter().collect();
        let cfg = CacheConfig::new(32, 4);
        let eval = evaluate_group(&refs, &cfg);
        for (constrained, base) in [
            (Scheme::EqualBaseline, Scheme::Equal),
            (Scheme::NaturalBaseline, Scheme::Natural),
        ] {
            let con = eval.get(constrained);
            let b = eval.get(base);
            for i in 0..3 {
                assert!(
                    con.member_miss_ratios[i] <= b.member_miss_ratios[i] + 1e-6,
                    "{}: member {i} {} worse than baseline {}",
                    constrained.name(),
                    con.member_miss_ratios[i],
                    b.member_miss_ratios[i]
                );
            }
            assert!(
                con.group_miss_ratio <= b.group_miss_ratio + 1e-9,
                "{} group mr must not exceed {}",
                constrained.name(),
                base.name()
            );
        }
    }

    #[test]
    fn scheme_ordering_chain() {
        // Optimal ≤ NaturalBaseline ≤ Natural and
        // Optimal ≤ EqualBaseline ≤ Equal, for any group.
        let ps = small_group(128);
        let refs: Vec<&SoloProfile> = ps.iter().collect();
        let cfg = CacheConfig::new(32, 4);
        let e = evaluate_group(&refs, &cfg);
        let mr = |s| e.get(s).group_miss_ratio;
        assert!(mr(Scheme::Optimal) <= mr(Scheme::NaturalBaseline) + 1e-9);
        assert!(mr(Scheme::NaturalBaseline) <= mr(Scheme::Natural) + 1e-9);
        assert!(mr(Scheme::Optimal) <= mr(Scheme::EqualBaseline) + 1e-9);
        assert!(mr(Scheme::EqualBaseline) <= mr(Scheme::Equal) + 1e-9);
    }

    #[test]
    fn improvement_metric_guards_zero() {
        let ps = [
            profile(
                "tiny-a",
                WorkloadSpec::SequentialLoop { working_set: 4 },
                1.0,
                64,
            ),
            profile(
                "tiny-b",
                WorkloadSpec::SequentialLoop { working_set: 4 },
                1.0,
                64,
            ),
        ];
        let refs: Vec<&SoloProfile> = ps.iter().collect();
        let cfg = CacheConfig::new(64, 1);
        let eval = evaluate_group(&refs, &cfg);
        // Both fit trivially: everything ≈ 0, improvement defined as 0.
        assert_eq!(eval.improvement_of_optimal_over(Scheme::Equal), 0.0);
    }

    #[test]
    fn default_objective_reproduces_evaluate_group_bitwise() {
        let ps = small_group(128);
        let refs: Vec<&SoloProfile> = ps.iter().collect();
        let cfg = CacheConfig::new(32, 4);
        let legacy = evaluate_group(&refs, &cfg);
        let with = evaluate_group_with(&refs, &cfg, &Objective::MissRatioSum);
        for (a, b) in legacy.results.iter().zip(&with.results) {
            assert_eq!(a.scheme, b.scheme);
            assert_eq!(a.allocation, b.allocation);
            assert_eq!(a.member_miss_ratios, b.member_miss_ratios);
            assert_eq!(a.group_miss_ratio.to_bits(), b.group_miss_ratio.to_bits());
        }
    }

    #[test]
    fn every_objective_keeps_optimal_ahead() {
        let ps = small_group(128);
        let refs: Vec<&SoloProfile> = ps.iter().collect();
        let cfg = CacheConfig::new(32, 4);
        for objective in [
            Objective::MissRatioSum,
            Objective::MaxMissRatio,
            Objective::Utility { curvature: 0.5 },
            Objective::ValueWeighted {
                weights: vec![2.0, 1.0, 0.5],
            },
            Objective::MaxSlowdown,
        ] {
            let eval = evaluate_group_with(&refs, &cfg, &objective);
            let opt = eval.get(Scheme::Optimal).group_miss_ratio;
            for s in Scheme::ALL {
                let r = eval.get(s);
                assert_eq!(r.allocation.iter().sum::<usize>(), cfg.units);
                assert!(
                    opt <= r.group_miss_ratio + 1e-9,
                    "{objective}: Optimal must not lose to {}",
                    s.name()
                );
            }
            assert!(eval.gap_of_optimal_over(Scheme::Natural) >= -1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "value-weighted names 2 weights")]
    fn mismatched_value_weights_panic() {
        let ps = small_group(64);
        let refs: Vec<&SoloProfile> = ps.iter().collect();
        let cfg = CacheConfig::new(64, 1);
        let _ = evaluate_group_with(
            &refs,
            &cfg,
            &Objective::ValueWeighted {
                weights: vec![1.0, 2.0],
            },
        );
    }

    #[test]
    fn names_and_shares_recorded() {
        let ps = small_group(64);
        let refs: Vec<&SoloProfile> = ps.iter().collect();
        let cfg = CacheConfig::new(64, 1);
        let eval = evaluate_group(&refs, &cfg);
        assert_eq!(eval.names, vec!["loop-big", "loop-small", "zipf"]);
        assert!((eval.shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
