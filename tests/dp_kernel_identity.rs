//! Bit-identity of the DP kernel with the scalar fold it replaced.
//!
//! `reference_fold` is that fold, kept here (and only here) as the
//! oracle: every candidate `c ≤ k`, two infinity tests and a strict
//! `total < best` per cell. The library's clipped, lane-wise kernel must
//! produce the same `dp` rows bit for bit and the same `choice` rows,
//! for `Combine::Sum` and `Combine::Max`, on every input shape the
//! clipping reasons about: ties, forbidden prefixes / holes / suffixes,
//! infeasible instances, clamped short curves, non-monotone curves. When
//! every curve is non-increasing, `solve` fills only the demand rows
//! (`dp.rs`, "Demand clip"); it must still land on the fold's
//! allocation and cost.

use cache_partition_sharing::prelude::*;
use proptest::prelude::*;

const INF: f64 = f64::INFINITY;
const OBJECTIVES: [Objective; 2] = [Objective::MissRatioSum, Objective::MaxMissRatio];

/// The seed's `DpSolver::fill_tables`: `rows[i]` is the `dp` row after
/// layer `i`, `choice[i][k]` the units program `i` gets at capacity `k`.
fn reference_fold(
    costs: &[CostCurve],
    c: usize,
    combine: Combine,
) -> (Vec<Vec<f64>>, Vec<Vec<u32>>) {
    let mut rows = vec![(0..=c).map(|k| costs[0].at(k)).collect::<Vec<f64>>()];
    let mut choice = vec![(0..=c as u32).collect::<Vec<u32>>()];
    for cost_i in &costs[1..] {
        let dp = rows.last().unwrap();
        let mut next = vec![INF; c + 1];
        let mut row = vec![0u32; c + 1];
        for k in 0..=c {
            let mut best = INF;
            let mut best_c = 0u32;
            for ci in 0..=k {
                let prev = dp[k - ci];
                if prev.is_infinite() {
                    continue;
                }
                let own = cost_i.at(ci);
                if own.is_infinite() {
                    continue;
                }
                let total = combine.apply(prev, own);
                if total < best {
                    best = total;
                    best_c = ci as u32;
                }
            }
            next[k] = best;
            row[k] = best_c;
        }
        rows.push(next);
        choice.push(row);
    }
    (rows, choice)
}

/// Backtracks the reference tables from layer `i`, capacity `k`.
fn reference_allocation(choice: &[Vec<u32>], i: usize, mut k: usize) -> Vec<usize> {
    let mut allocation = vec![0; i + 1];
    for j in (0..=i).rev() {
        allocation[j] = choice[j][k] as usize;
        k -= allocation[j];
    }
    allocation
}

fn bits(row: &[f64]) -> Vec<u64> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// Every `dp` row and every reachable `choice` cell, read through the
/// frontier of each prefix of `costs` (layer `i`'s row is the final row
/// of the DP over `costs[..=i]`).
fn assert_tables_match(
    solver: &mut DpSolver,
    costs: &[CostCurve],
    c: usize,
    objective: &Objective,
) {
    let (rows, choice) = reference_fold(costs, c, objective.combine());
    for (i, row) in rows.iter().enumerate() {
        let frontier = solver.solve_frontier(&costs[..=i], c, objective).unwrap();
        assert_eq!(bits(frontier.costs()), bits(row), "{objective} dp row {i}");
        for (k, &cost) in row.iter().enumerate() {
            let expected = (cost < INF).then(|| reference_allocation(&choice, i, k));
            assert_eq!(
                frontier.allocation(k),
                expected,
                "{objective} layer {i} k={k}"
            );
        }
    }
}

/// The tables, plus `solve` against the frontier's last cell: it fills
/// the last layer at `k = C` only and must observe the same bits.
fn assert_identical(solver: &mut DpSolver, costs: &[CostCurve], c: usize) {
    for objective in &OBJECTIVES {
        assert_tables_match(solver, costs, c, objective);
        let frontier = solver.solve_frontier(costs, c, objective).unwrap();
        match solver.solve(costs, c, objective) {
            Some(solved) => {
                assert_eq!(Some(&solved.allocation), frontier.allocation(c).as_ref());
                assert_eq!(solved.cost.to_bits(), frontier.cost(c).to_bits());
            }
            None => assert_eq!(frontier.cost(c), INF, "{objective}: solve found nothing"),
        }
    }
}

/// Values on an eighth-grid: sums are exact, so equal totals — the
/// first-minimum tie-break — are everywhere.
fn grid(len: impl Into<prop::collection::SizeRange>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0usize..=8, len).prop_map(|v| v.iter().map(|&s| s as f64 / 8.0).collect())
}

fn descending(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| b.partial_cmp(a).unwrap());
    v
}

/// `v` with the entries `[a·n/8, b·n/8)` forbidden.
fn forbid(mut v: Vec<f64>, a: usize, b: usize) -> Vec<f64> {
    let n = v.len();
    for entry in &mut v[a * n / 8..b * n / 8] {
        *entry = INF;
    }
    v
}

/// One curve of up to `max_len` entries (shorter than `C` clamps): any
/// shape, a plateau-heavy monotone one, or one with a forbidden prefix
/// (possibly everything), suffix or interior hole.
fn any_curve(max_len: usize) -> impl Strategy<Value = CostCurve> {
    let cut = || (grid(1..=max_len), 0usize..=8, 0usize..=8);
    prop_oneof![
        prop::collection::vec(0.0f64..1.0, 1..=max_len),
        grid(1..=max_len),
        grid(1..=max_len).prop_map(descending),
        cut().prop_map(|(v, a, _)| forbid(descending(v), 0, a)),
        cut().prop_map(|(v, a, _)| forbid(v, a, 8)),
        cut().prop_map(|(v, a, b)| forbid(v, a.min(b), a.max(b))),
    ]
    .prop_map(CostCurve::from_raw)
}

/// A non-increasing curve of `len` entries (shorter than `C` clamps):
/// eighth-grid ties, zeros of either sign, a `+∞` prefix of up to half
/// of it, and a saturated (flat) tail of up to all of it.
fn monotone_curve(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = CostCurve> {
    let signs = prop::collection::vec(0usize..2, *len.end());
    (grid(len), signs, 0usize..=8, 0usize..=8).prop_map(|(v, signs, prefix, flat)| {
        let mut v = descending(v);
        let n = v.len();
        for (entry, &sign) in v.iter_mut().zip(&signs) {
            if *entry == 0.0 {
                *entry = [0.0, -0.0][sign];
            }
        }
        let from = n - n * flat / 8;
        if from < n {
            let floor = v[from];
            v[from..].fill(floor);
        }
        v[..n * prefix / 16].fill(INF);
        CostCurve::from_raw(v)
    })
}

/// `solve` against the reference fold under both objectives: the same
/// allocation, a cost equal to the reference's `dp[C]`, and the cost
/// bits of that allocation's in-order accumulation — or no solution
/// where the reference's `dp[C]` is `+∞`.
fn assert_solve_matches(solver: &mut DpSolver, costs: &[CostCurve], c: usize) {
    let p = costs.len();
    for objective in &OBJECTIVES {
        let (rows, choice) = reference_fold(costs, c, objective.combine());
        match solver.solve(costs, c, objective) {
            Some(solved) => {
                let allocation = reference_allocation(&choice, p - 1, c);
                assert_eq!(solved.allocation, allocation, "{objective}");
                assert_eq!(solved.cost, rows[p - 1][c], "{objective}");
                let accumulated = objective.combine().accumulate(costs, &allocation);
                assert_eq!(solved.cost.to_bits(), accumulated.to_bits(), "{objective}");
            }
            None => assert_eq!(rows[p - 1][c], INF, "{objective}: solve found nothing"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every curve non-increasing: the demand clip is on, and each layer
    /// fills only the cells a backtrack from `dp[C]` can reach.
    #[test]
    fn demand_rows_solve_like_the_scalar_fold(
        curves in prop::collection::vec(monotone_curve(1..=48), 3..=6),
        c in 0usize..=48,
    ) {
        assert_solve_matches(&mut DpSolver::new(), &curves, c);
    }

    /// The same at a size where the demand rows span several 8-lane
    /// chunks, with every curve at least as long as the cache.
    #[test]
    fn demand_rows_solve_like_the_scalar_fold_on_long_curves(
        curves in prop::collection::vec(monotone_curve(101..=140), 3..=6),
    ) {
        assert_solve_matches(&mut DpSolver::new(), &curves, 100);
    }

    #[test]
    fn kernel_matches_the_scalar_fold(
        curves in prop::collection::vec(any_curve(40), 1..5),
        c in 0usize..=40,
    ) {
        assert_identical(&mut DpSolver::new(), &curves, c);
    }

    /// Monotone curves at a size where every cell spans several 8-lane
    /// chunks plus a remainder, and the tail clip is live from layer 1.
    #[test]
    fn kernel_matches_on_long_monotone_curves(
        curves in prop::collection::vec(grid(90..=120).prop_map(descending), 2..4),
    ) {
        let curves: Vec<CostCurve> = curves.into_iter().map(CostCurve::from_raw).collect();
        assert_identical(&mut DpSolver::new(), &curves, 100);
    }

    /// A non-monotone *first* curve makes the previous row of layer 1
    /// non-monotone: the tail clip must switch itself off.
    #[test]
    fn non_monotone_first_curve_disables_the_tail_clip(
        first in prop::collection::vec(0.0f64..1.0, 30..=31),
        rest in prop::collection::vec(grid(30..=31).prop_map(descending), 1..3),
    ) {
        let mut curves = vec![CostCurve::from_raw(first)];
        curves.extend(rest.into_iter().map(CostCurve::from_raw));
        assert_identical(&mut DpSolver::new(), &curves, 30);
    }

    /// Totals of `+0.0` and `−0.0` compare equal and the fold keeps the
    /// first one's bits. The rising start keeps the tail clip off, so
    /// every cell of layer 1 has its full candidate range.
    #[test]
    fn signed_zeros_keep_the_first_minimum_bits(
        a in prop::collection::vec(0usize..3, 24),
        b in prop::collection::vec(0usize..3, 24),
    ) {
        let zeros = |v: Vec<usize>| v.into_iter().map(|s| [0.0, -0.0, 1.0][s]);
        let a = CostCurve::from_raw([0.0, 1.0].into_iter().chain(zeros(a)).collect());
        let b = CostCurve::from_raw(zeros(b).collect());
        assert_tables_match(&mut DpSolver::new(), &[a, b], 25, &Objective::MissRatioSum);
    }

    /// Curves far shorter than `C` clamp to a constant tail, so every
    /// previous row saturates early and most cells read the saturation
    /// clip's running minimum. A tail of `+0.0` / `−0.0` is equal in
    /// value but not in bits: only the bit-equal suffix may collapse.
    #[test]
    fn saturated_rows_collapse_exactly(
        curves in prop::collection::vec(grid(1..=12), 2..5),
        zero_tails in prop::collection::vec(prop::collection::vec(0usize..2, 0..6), 2..5),
        c in 20usize..=60,
    ) {
        let curves: Vec<CostCurve> = curves
            .into_iter()
            .zip(zero_tails)
            .map(|(mut v, tail)| {
                v.extend(tail.iter().map(|&s| [0.0, -0.0][s]));
                CostCurve::from_raw(v)
            })
            .collect();
        // Tables only: `solve` recomputes its cost from a `+0.0` seed, so
        // a `−0.0` total is not its bits to keep.
        for objective in &OBJECTIVES {
            assert_tables_match(&mut DpSolver::new(), &curves, c, objective);
        }
    }
}

#[test]
fn saturated_cells_cost_one_candidate() {
    // The first curve reaches its floor at 4 units, the second keeps
    // falling until 200: the tail clip alone leaves up to 201 candidates
    // per cell, the saturation clip at most 4 unsaturated ones per cell
    // plus one running-minimum step per unit.
    let short = CostCurve::from_raw(vec![1.0, 0.5, 0.25, 0.125, 0.0]);
    let long = CostCurve::from_raw((0..=200).map(|u| (200 - u) as f64).collect());
    let curves = [short, long];
    let c = 256;
    let mut solver = DpSolver::new();
    solver
        .solve_frontier(&curves, c, &Objective::MissRatioSum)
        .unwrap();
    let cells = solver.last_cells();
    let bound = (c as u64 + 1) * 6;
    assert!(cells.visited <= bound, "{cells:?} > {bound}");
    assert_identical(&mut solver, &curves, c);
}

fn curve(v: &[f64]) -> CostCurve {
    CostCurve::from_raw(v.to_vec())
}

#[test]
fn degenerate_sizes() {
    let mut solver = DpSolver::new();
    let both = [curve(&[0.5, 0.25, 0.25, 0.0]), curve(&[0.75, 0.75, 0.125])];
    assert_identical(&mut solver, &both, 0); // C = 0
    assert_identical(&mut solver, &both[..1], 5); // P = 1, clamped
    assert_identical(&mut solver, &both, 7); // P = 2, both clamped
}

#[test]
fn empty_node_curves_have_infinite_suffixes() {
    // The two-level solver's empty-node curve is [0, ∞, ∞, …]: FORBIDDEN
    // is not always a prefix.
    let mut empty = vec![INF; 13];
    empty[0] = 0.0;
    let node = curve(&[
        INF, INF, 0.75, 0.5, 0.5, 0.25, INF, INF, INF, INF, INF, INF, INF,
    ]);
    let tail = curve(&[1.0, 0.5, 0.5, 0.5, 0.125]);
    let mut solver = DpSolver::new();
    assert_identical(
        &mut solver,
        &[curve(&empty), node.clone(), tail.clone()],
        12,
    );
    assert_identical(&mut solver, &[node, curve(&empty), tail, curve(&empty)], 12);
}

#[test]
fn infeasible_then_feasible_on_one_solver() {
    let mut solver = DpSolver::new();
    let a = curve(&[INF, INF, INF, 0.125, 0.125]);
    let b = curve(&[INF, INF, 0.25, 0.25, 0.25]);
    let nothing = curve(&[INF; 5]);
    for objective in &OBJECTIVES {
        assert_eq!(solver.solve(&[a.clone(), b.clone()], 4, objective), None);
        assert_eq!(
            solver.solve(&[b.clone(), nothing.clone(), a.clone()], 4, objective),
            None
        );
    }
    assert_identical(&mut solver, &[a.clone(), b.clone()], 4);
    assert_identical(&mut solver, &[b.clone(), nothing, a.clone()], 4);
    assert_identical(&mut solver, &[a, b], 6); // feasible: 3 + 3, 3 + 2 …
}

#[test]
fn cell_counts_repeat_and_never_exceed_the_dense_fold() {
    let curves: Vec<CostCurve> = (1..=4)
        .map(|s| CostCurve::from_raw((0..=64).map(|u| (64 - u).min(16 * s) as f64).collect()))
        .collect();
    let mut solver = DpSolver::new();
    assert_eq!(solver.last_cells(), DpCells::default());
    solver.solve(&curves, 64, &Objective::MissRatioSum).unwrap();
    let cells = solver.last_cells();
    assert_eq!(cells.dense, 3 * 65 * 66 / 2);
    assert!(
        0 < cells.visited && cells.visited < cells.dense,
        "{cells:?}"
    );
    solver.solve(&curves, 64, &Objective::MissRatioSum).unwrap();
    assert_eq!(solver.last_cells(), cells);
    // The frontier fills the whole last row, so it visits more.
    solver
        .solve_frontier(&curves, 64, &Objective::MissRatioSum)
        .unwrap();
    assert!(solver.last_cells().visited > cells.visited);
    assert_eq!(solver.last_cells().dense, cells.dense);
}

/// One curve that rises anywhere turns the demand clip off: every
/// layer but the last fills every cell again, and the visited count is
/// the one the kernel had before the clip existed (pinned here). The
/// curves reach their minima at 6, 12, 18 and 24 units.
#[test]
fn one_rising_curve_fills_every_row() {
    let curves: Vec<CostCurve> = (1..=4usize)
        .map(|s| {
            let v = (0..=64).map(|u| (6 * s).saturating_sub(u) as f64 / 8.0);
            CostCurve::from_raw(v.collect())
        })
        .collect();
    let mut solver = DpSolver::new();
    let mut visited = |curves: &[CostCurve]| {
        assert_solve_matches(&mut solver, curves, 64);
        solver.last_cells().visited
    };
    // Without the demand clip the monotone set visited 477 cells.
    assert_eq!(visited(&curves), 57);
    // A rise in the first curve also turns layer 1's tail clip off.
    for (j, whole) in [2255, 477, 477, 477].into_iter().enumerate() {
        let mut rising = curves.clone();
        let mut v = curves[j].raw().to_vec();
        v[40] = v[39] + 1.0;
        rising[j] = CostCurve::from_raw(v);
        assert_eq!(visited(&rising), whole, "curve {j} rises");
    }
}
