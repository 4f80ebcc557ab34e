//! The pipeline's **solve** stage: miss-ratio curves in, allocation out.
//!
//! [`DpPartitionSolver`] turns the profile stage's per-tenant curves
//! (plus realized access counts, for throughput weighting) into a new
//! unit allocation: the paper's `O(P·C²)` dynamic program with a
//! reusable scratch solver, optionally constrained by an equal-split or
//! natural-partition fairness baseline (Section VI).

use cps_cachesim::AccessCounts;
use cps_core::{
    access_shares, build_cost_curves, equal_baseline_caps, natural_baseline_caps, CacheConfig,
    DpCells, DpSolver, Objective,
};
use cps_hotl::{MissRatioCurve, SoloProfile};

use crate::{EngineConfig, Policy};

/// Everything a solver may consult at an epoch boundary.
pub struct SolveInput<'a> {
    /// Blended per-tenant miss-ratio curves from the profile stage.
    pub mrcs: &'a [MissRatioCurve],
    /// Realized per-tenant counts of the epoch just closed (the
    /// throughput weights — only `accesses` is consulted, so the
    /// decision is independent of how the serving cache performed).
    pub per_tenant: &'a [AccessCounts],
    /// Exact current-window solo profiles, present iff the policy needs
    /// them (natural baseline); captured before `end_window`.
    pub window_profiles: Option<&'a [SoloProfile]>,
}

/// What a solve produced.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// Predicted cost of the chosen allocation (`None` if infeasible).
    pub predicted_cost: Option<f64>,
    /// DP candidates the solve evaluated vs. a dense fold's (both zero
    /// when the solve was skipped).
    pub dp_cells: DpCells,
    /// The chosen allocation in units (`None` if infeasible under the
    /// active baseline).
    pub allocation: Option<Vec<usize>>,
}

/// The solve stage: baseline caps + weighted cost curves + the
/// optimal DP, with scratch reused across epochs.
pub struct DpPartitionSolver {
    cache: CacheConfig,
    policy: Policy,
    objective: Objective,
    solver: DpSolver,
}

impl DpPartitionSolver {
    /// Builds the stage from the engine's knobs.
    pub fn new(config: &EngineConfig) -> Self {
        DpPartitionSolver {
            cache: config.cache,
            policy: config.policy,
            objective: config.objective.clone(),
            solver: DpSolver::new(),
        }
    }

    /// Chooses a new allocation from this epoch's profile snapshot.
    pub fn solve(&mut self, input: SolveInput<'_>) -> SolveOutcome {
        let config = &self.cache;
        let accesses: Vec<f64> = input.per_tenant.iter().map(|c| c.accesses as f64).collect();
        let shares = access_shares(&accesses);
        let mrcs: Vec<&MissRatioCurve> = input.mrcs.iter().collect();

        let caps: Option<Vec<f64>> = match self.policy {
            Policy::Optimal => None,
            Policy::EqualBaseline => Some(equal_baseline_caps(&mrcs, config)),
            Policy::NaturalBaseline => {
                let profiles = input.window_profiles.expect("captured before end_window");
                let members: Vec<&SoloProfile> = profiles.iter().collect();
                Some(natural_baseline_caps(&members, &mrcs, config))
            }
        };

        let costs = build_cost_curves(&mrcs, config, &shares, &self.objective, caps.as_deref());

        let result = self.solver.solve(&costs, config.units, &self.objective);
        let (predicted_cost, allocation) = result.map(|r| (r.cost, r.allocation)).unzip();
        SolveOutcome {
            predicted_cost,
            dp_cells: self.solver.last_cells(),
            allocation,
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

    fn counts(accesses: u64) -> AccessCounts {
        AccessCounts {
            accesses,
            misses: 0,
        }
    }

    #[test]
    fn dp_stage_feeds_the_cliff() {
        // Tenant 0 has a 24-block cliff, tenant 1 a shallow ramp: the
        // optimal allocation covers the cliff.
        let cfg = EngineConfig::new(2, CacheConfig::new(64, 1), 1_000);
        let mut stage = DpPartitionSolver::new(&cfg);
        let mrcs = vec![loop_mrc(24, 5_000, 64), loop_mrc(200, 5_000, 64)];
        let out = stage.solve(SolveInput {
            mrcs: &mrcs,
            per_tenant: &[counts(500), counts(500)],
            window_profiles: None,
        });
        let alloc = out.allocation.expect("unconstrained is feasible");
        assert_eq!(alloc.iter().sum::<usize>(), 64);
        assert!(alloc[0] >= 24, "cliff covered, got {alloc:?}");
        assert!(out.predicted_cost.unwrap().is_finite());
    }

    #[test]
    fn equal_baseline_forbids_starving_a_tenant() {
        // Under the equal baseline neither tenant may do worse than at
        // 32 units, so the 40-block loop (infeasible below its cliff at
        // an equal split... which it fits) keeps >= its baseline point.
        let cfg =
            EngineConfig::new(2, CacheConfig::new(64, 1), 1_000).policy(Policy::EqualBaseline);
        let mut stage = DpPartitionSolver::new(&cfg);
        let mrcs = vec![loop_mrc(20, 5_000, 64), loop_mrc(30, 5_000, 64)];
        let out = stage.solve(SolveInput {
            mrcs: &mrcs,
            per_tenant: &[counts(900), counts(100)],
            window_profiles: None,
        });
        let alloc = out.allocation.expect("equal baseline feasible here");
        // Both working sets fit at the equal split, so neither may be
        // pushed below its cliff.
        assert!(alloc[0] >= 20 && alloc[1] >= 30, "got {alloc:?}");
    }

    #[test]
    fn zero_access_epoch_falls_back_to_equal_shares() {
        let cfg = EngineConfig::new(2, CacheConfig::new(16, 1), 1_000);
        let mut stage = DpPartitionSolver::new(&cfg);
        let mrcs = vec![loop_mrc(4, 500, 16), loop_mrc(4, 500, 16)];
        let out = stage.solve(SolveInput {
            mrcs: &mrcs,
            per_tenant: &[counts(0), counts(0)],
            window_profiles: None,
        });
        assert!(
            out.allocation.is_some(),
            "equal-share fallback still solves"
        );
    }
}
