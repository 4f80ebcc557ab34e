//! The two-level hierarchical dynamic program.
//!
//! A cluster splits one logical cache of `C` units across `N` nodes,
//! each hosting a group of tenants under a physical capacity cap. The
//! flat `O(P·C²)` DP of `cps-core` does not see node boundaries; the
//! hierarchical solve recovers them in two passes:
//!
//! 1. **Node frontiers** — one [`DpSolver::solve_frontier`] pass per
//!    node over its members' cost curves yields the node's min-cost
//!    frontier `F_n[k]`: the best accumulated cost of giving the node
//!    exactly `k` units, for every `k` up to its capacity.
//! 2. **Top-level DP** — the frontiers, padded to `C` with
//!    [`FORBIDDEN`] beyond each node's cap, are themselves cost curves;
//!    one more DP pass splits `C` into per-node budgets, and
//!    [`DpFrontier::allocation`] backtracks each node's local split at
//!    its budget without re-solving.
//!
//! **Exactness.** When every node hosts a single tenant and caps don't
//! bind, pass 1 copies each tenant's cost curve verbatim (a
//! one-program frontier *is* its curve) and pass 2 runs the flat DP on
//! exactly the same values in the same order — the result is
//! bit-for-bit the flat solve, allocation and recomputed cost alike
//! (the identity property `tests/two_level.rs` proves). With real
//! groups the hierarchy only *restricts* the flat search space (units
//! cannot straddle a node), so its cost is bounded below by the flat
//! optimum and the gap is exactly the price of the placement.

use cps_core::cost::FORBIDDEN;
use cps_core::{CostCurve, DpFrontier, DpSolver, Objective};

/// What the two-level solve produced.
#[derive(Clone, Debug, PartialEq)]
pub struct TwoLevelResult {
    /// Accumulated group cost, recomputed from the allocation by the
    /// same identity-seeded left fold the flat DP uses (which is what
    /// makes singleton-group results bit-identical to flat results).
    pub cost: f64,
    /// Units budgeted to each node; sums to the total.
    pub budgets: Vec<usize>,
    /// Per-tenant units, aligned with the input `costs`; tenant `i`'s
    /// entry lies within its node's budget. Members of an empty group
    /// never exist, so every unit lands in some group's member.
    pub allocation: Vec<usize>,
}

/// Runs the hierarchical solve: per-node frontiers, then the top-level
/// DP across nodes. `groups[n]` lists the indices into `costs` hosted
/// by node `n` and `node_caps[n]` is that node's physical capacity; an
/// empty group contributes a curve that is zero at zero units and
/// [`FORBIDDEN`] everywhere else, forcing its budget to 0 (neutral
/// under both accumulation modes for the non-negative costs miss
/// ratios produce). Both DP levels run under `objective`, so the
/// coordinator and every node provably optimize the same thing.
///
/// Returns `None` when no feasible split exists — every tenant
/// forbidden everywhere, or the occupied nodes' caps cannot absorb
/// `total_units` (the DP's exact-sum semantics: all units must land).
///
/// # Panics
/// Panics if `groups` and `node_caps` differ in length, or if the
/// groups are not a partition of `0..costs.len()` (every tenant placed
/// exactly once).
pub fn solve_two_level(
    solver: &mut DpSolver,
    costs: &[CostCurve],
    groups: &[Vec<usize>],
    node_caps: &[usize],
    total_units: usize,
    objective: &Objective,
) -> Option<TwoLevelResult> {
    assert_eq!(groups.len(), node_caps.len(), "one capacity per node");
    let mut seen = vec![false; costs.len()];
    for &i in groups.iter().flatten() {
        assert!(!seen[i], "tenant {i} placed on two nodes");
        seen[i] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "every tenant must be placed on a node"
    );
    if costs.is_empty() {
        return None;
    }

    let mut frontiers: Vec<Option<DpFrontier>> = Vec::with_capacity(groups.len());
    let mut node_curves: Vec<CostCurve> = Vec::with_capacity(groups.len());
    for (group, &cap) in groups.iter().zip(node_caps) {
        if group.is_empty() {
            let mut raw = vec![FORBIDDEN; total_units + 1];
            raw[0] = 0.0;
            frontiers.push(None);
            node_curves.push(CostCurve::from_raw(raw));
            continue;
        }
        let members: Vec<&CostCurve> = group.iter().map(|&i| &costs[i]).collect();
        let frontier = solver
            .solve_frontier(&members, cap.min(total_units), objective)
            .expect("group is non-empty");
        let mut raw = frontier.costs().to_vec();
        raw.resize(total_units + 1, FORBIDDEN);
        node_curves.push(CostCurve::from_raw(raw));
        frontiers.push(Some(frontier));
    }

    let top = solver.solve(&node_curves, total_units, objective)?;
    let budgets = top.allocation;
    let mut allocation = vec![0usize; costs.len()];
    for ((group, frontier), &budget) in groups.iter().zip(&frontiers).zip(&budgets) {
        let Some(frontier) = frontier else {
            debug_assert_eq!(budget, 0, "empty node must get a zero budget");
            continue;
        };
        let local = frontier
            .allocation(budget)
            .expect("top-level DP only picks feasible budgets");
        for (&i, &units) in group.iter().zip(&local) {
            allocation[i] = units;
        }
    }
    Some(TwoLevelResult {
        cost: top.cost,
        budgets,
        allocation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(costs: &[f64]) -> CostCurve {
        CostCurve::from_raw(costs.to_vec())
    }

    #[test]
    fn singleton_groups_reproduce_the_flat_solve() {
        let costs = vec![
            curve(&[1.0, 1.0, 1.0, 0.0, 0.0]), // cliff at 3
            curve(&[0.3, 0.2, 0.1, 0.05, 0.02]),
            curve(&[0.5, 0.4, 0.4, 0.4, 0.4]),
        ];
        let mut solver = DpSolver::new();
        let flat = solver.solve(&costs, 4, &Objective::MissRatioSum).unwrap();
        let groups = vec![vec![0], vec![1], vec![2]];
        let two = solve_two_level(
            &mut solver,
            &costs,
            &groups,
            &[4, 4, 4],
            4,
            &Objective::MissRatioSum,
        )
        .expect("feasible");
        assert_eq!(two.allocation, flat.allocation);
        assert_eq!(two.cost.to_bits(), flat.cost.to_bits());
        assert_eq!(two.budgets, flat.allocation);
    }

    #[test]
    fn node_caps_bind_and_the_gap_is_the_price_of_placement() {
        // Flat wants to feed the cliff 3 units, but its node is capped
        // at 2 — the hierarchy must settle for the runner-up split.
        let costs = vec![
            curve(&[1.0, 1.0, 1.0, 0.0]), // cliff at 3
            curve(&[0.6, 0.5, 0.4, 0.3]),
        ];
        let mut solver = DpSolver::new();
        let flat = solver.solve(&costs, 3, &Objective::MissRatioSum).unwrap();
        assert_eq!(flat.allocation, vec![3, 0]);
        let two = solve_two_level(
            &mut solver,
            &costs,
            &[vec![0], vec![1]],
            &[2, 3],
            3,
            &Objective::MissRatioSum,
        )
        .expect("still feasible");
        assert!(two.budgets[0] <= 2, "cap respected: {:?}", two.budgets);
        assert!(two.cost >= flat.cost, "hierarchy can never beat flat");
    }

    #[test]
    fn empty_nodes_are_forced_to_a_zero_budget() {
        let costs = vec![curve(&[0.9, 0.5, 0.1]), curve(&[0.8, 0.6, 0.4])];
        let mut solver = DpSolver::new();
        let two = solve_two_level(
            &mut solver,
            &costs,
            &[vec![0, 1], vec![]],
            &[2, 2],
            2,
            &Objective::MissRatioSum,
        )
        .expect("occupied node absorbs everything");
        assert_eq!(two.budgets, vec![2, 0]);
        assert_eq!(two.allocation.iter().sum::<usize>(), 2);
    }

    #[test]
    fn infeasible_when_occupied_caps_cannot_absorb_the_total() {
        // 4 units must all land, but the only occupied node holds 2.
        let costs = vec![curve(&[0.9, 0.5, 0.1, 0.1, 0.1])];
        let mut solver = DpSolver::new();
        let two = solve_two_level(
            &mut solver,
            &costs,
            &[vec![0], vec![]],
            &[2, 8],
            4,
            &Objective::MissRatioSum,
        );
        assert_eq!(two, None);
    }

    #[test]
    fn grouped_members_split_their_node_budget_optimally() {
        // One node hosts both tenants: the node frontier is a joint DP,
        // and the backtracked local split matches the flat solve at the
        // node's budget.
        let costs = vec![curve(&[1.0, 0.2, 0.1, 0.1]), curve(&[0.9, 0.8, 0.2, 0.1])];
        let mut solver = DpSolver::new();
        let two = solve_two_level(
            &mut solver,
            &costs,
            &[vec![0, 1], vec![]],
            &[3, 3],
            3,
            &Objective::MissRatioSum,
        )
        .expect("feasible");
        let flat = solver.solve(&costs, 3, &Objective::MissRatioSum).unwrap();
        assert_eq!(two.allocation, flat.allocation);
        assert_eq!(two.cost.to_bits(), flat.cost.to_bits());
    }

    #[test]
    #[should_panic(expected = "placed on two nodes")]
    fn double_placement_is_rejected() {
        let costs = vec![curve(&[0.5, 0.1])];
        solve_two_level(
            &mut DpSolver::new(),
            &costs,
            &[vec![0], vec![0]],
            &[1, 1],
            1,
            &Objective::MissRatioSum,
        );
    }
}
