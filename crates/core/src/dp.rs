//! The optimal cache-partitioning dynamic program (Section V-B).
//!
//! Given per-program cost curves `cost_i(c)` over `0..=C` units, find the
//! allocation `(c_1, …, c_P)` with `Σ c_i = C` minimizing the accumulated
//! cost (Eq. 15). The recurrence (Eq. 16) adds one program at a time:
//!
//! ```text
//! dp_i[k] = min_{c ≤ k}  dp_{i−1}[k − c] ⊕ cost_i(c)
//! ```
//!
//! where `⊕` is `+` for throughput objectives or `max` for max-min /
//! QoS objectives. Unlike STTW this examines the entire solution space,
//! so the miss-ratio curves may be **any** function — cliffs, plateaus,
//! even non-monotone — and baseline constraints are just `+∞` entries.
//! Complexity `O(P·C²)` time, `O(P·C)` space (the paper's numbers; the
//! choice table for backtracking is the `O(P·C)` part).
//!
//! **The kernel.** A layer is filled candidate-major. Each cell is
//! first seeded with the saturated candidates' running minimum (see
//! below); then every `c` of the clipped span, in ascending order,
//! relaxes one contiguous run of cells — the `k` whose candidate range
//! holds `c` — taking `dp[k−c] ⊕ cost_i(c)` only when it is strictly
//! smaller. Ascending `c` with a strict `<` is a scalar `total < best`
//! fold's first-minimum tie-break, bit for bit. The range is clipped to
//! the finite span of both operands (an interior `+∞` never wins the
//! strict `<`, so it needs no test). The argmin travels beside the value
//! as an `f64` (exact for every `u32` index), so the compare and both
//! blends run at one lane width: the run loop is compiled for AVX-512
//! and for AVX2 besides the build's baseline, and each solve uses the
//! widest this CPU has — the same bits at every width.
//!
//! **Tail clip.** Let `m` be the first position of `cost_i`'s global
//! minimum. If the previous row is non-increasing (checked per layer,
//! never assumed), any `c > m` has `cost_i(c) ≥ cost_i(m)` and
//! `dp[k−c] ≥ dp[k−m]`; floating-point `+` and `max` are monotone, so
//! its total is no smaller than `m`'s and the tie-break already prefers
//! `m`. Candidates beyond `m` are skipped — exactly, not approximately.
//! Costs are finite or `+∞` ([`CostCurve`] rejects NaN and `−∞`).
//!
//! **Saturation clip.** Let `s` be the first index from which the
//! previous row carries the bits of its finite last entry `dp[C]` — the
//! programs placed so far have reached their minimum. Every `c ≤ k − s`
//! then totals `dp[C] ⊕ cost_i(c)`, whatever `k` is, so one running
//! first-minimum over `c`, extended as `k` grows, stands for all of them
//! and a cell scans only its unsaturated span `c > k − s`. Past
//! `s + m` a cell's candidates collapse to that one. No monotonicity is
//! assumed: equal bits give equal totals.
//!
//! **Demand clip.** `solve` reads one cell, `dp[C]` of the last layer.
//! If every cost curve is non-increasing over `0..=C` (one pre-pass per
//! curve decides it), then so is every row — `+` and `max` are
//! monotone, so `dp[k + 1]` is no larger than `dp[k]`'s winning total
//! moved up one cell — and the tail clip holds at every layer: program
//! `j` takes at most `hi_j` units, the first position of its minimum (a
//! non-increasing curve's finite span runs to `C`). A backtrack from
//! `dp[C]` therefore meets layer `i` at some `k ≥ a_i = C − Σ_{j>i} hi_j`,
//! and layer `i` fills only `a_i..=C`: those cells read the previous
//! row at `k − c ≥ a_i − hi_i = a_{i−1}`, the cells it filled, so they
//! carry the bits the whole row would. The row bookkeeping — finite
//! span, saturation point, choice row — reads that range too. A curve
//! that rises anywhere turns the clip off for the solve: every layer
//! fills every cell, as does [`DpSolver::solve_frontier`], which keeps
//! the whole last row.

use crate::cost::CostCurve;
use crate::objective::Objective;
use std::borrow::Borrow;

/// How per-program costs accumulate into the group objective — the
/// low-level accumulation vocabulary beneath [`Objective`]. Objectives
/// choose their `Combine` via [`Objective::combine`]; the DP only ever
/// sees this enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// Throughput: minimize the sum (access-share-weighted group miss
    /// ratio, Eq. 12).
    Sum,
    /// QoS: minimize the worst member cost (max-min fairness).
    Max,
}

impl Combine {
    /// Folds one more per-program cost into the accumulator.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Combine::Sum => a + b,
            Combine::Max => a.max(b),
        }
    }

    /// Identity element of the accumulation.
    #[inline]
    pub fn identity(self) -> f64 {
        match self {
            Combine::Sum => 0.0,
            Combine::Max => f64::NEG_INFINITY,
        }
    }

    /// Accumulated cost of a fixed allocation: the identity-seeded
    /// left fold `acc = apply(acc, costs[i].at(allocation[i]))` — the
    /// one shared accumulation path behind [`DpSolver::solve`]'s
    /// self-check, [`brute_force_partition`], and
    /// [`Objective::group_cost`]. Returns [`f64::INFINITY`] if any
    /// member's cost is forbidden.
    pub fn accumulate(self, costs: &[CostCurve], allocation: &[usize]) -> f64 {
        let mut acc = self.identity();
        for (cost, &units) in costs.iter().zip(allocation) {
            let v = cost.at(units);
            if v == f64::INFINITY {
                return f64::INFINITY;
            }
            acc = self.apply(acc, v);
        }
        acc
    }
}

/// An optimal (or heuristic) partition and its accumulated cost.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionResult {
    /// Units allocated to each program; sums to the cache size.
    pub allocation: Vec<usize>,
    /// Accumulated group cost of the allocation.
    pub cost: f64,
}

/// Candidate counts of one solve: how many `(k, c)` pairs the kernel
/// evaluated, and how many a dense fold (every `c ≤ k`, every cell of
/// every layer) would have. Both repeat exactly for the same inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DpCells {
    /// Candidates evaluated after range clipping.
    pub visited: u64,
    /// Candidates of the dense `O(P·C²)` fold: `(P−1)·(C+1)(C+2)/2`.
    pub dense: u64,
}

/// A reusable DP solver holding the `O(P·C)` scratch tables.
///
/// One-shot callers can use [`optimal_partition`]; repeated callers (an
/// epoch-driven repartitioning controller re-solving every epoch) keep a
/// `DpSolver` alive so the `dp` row, the per-layer scratch rows and
/// the backtracking table are allocated once and reused, leaving the hot
/// loop allocation-free after the first solve at a given problem size.
///
/// # Examples
///
/// ```
/// use cps_core::{CostCurve, DpSolver, Objective};
/// let mut solver = DpSolver::new();
/// let a = CostCurve::from_raw(vec![1.0, 0.9, 0.1, 0.05]);
/// let b = CostCurve::from_raw(vec![1.0, 0.2, 0.15, 0.1]);
/// let r = solver.solve(&[a, b], 3, &Objective::MissRatioSum).unwrap();
/// assert_eq!(r.allocation, vec![2, 1]);
/// // The same solver can be reused for any later instance.
/// ```
#[derive(Clone, Debug, Default)]
pub struct DpSolver {
    /// `dp[k]`: best cost of exactly `k` units over the layers so far.
    dp: Vec<f64>,
    /// The layer being filled; swapped into `dp` when it is done.
    next: Vec<f64>,
    /// `next[k]`'s argmin, as an `f64` so it blends at `next`'s width
    /// (exact for every `u32` index); swapped into `choice` when the
    /// layer is done.
    arg: Vec<f64>,
    /// The current layer's `cost_i.at(0..=hi)` when its raw values end
    /// before its last candidate `hi`.
    own: Vec<f64>,
    /// Every curve's [`Shape`] over `0..=C`, from the pre-pass.
    shapes: Vec<Shape>,
    /// `first[i]`: the first cell layer `i` fills (the demand clip).
    first: Vec<usize>,
    /// `choice[i][k]`: the units layer `i`'s best total at `k` gives
    /// program `i` — its `arg` row.
    choice: Vec<Vec<f64>>,
    cells: DpCells,
}

/// `row[from..=c] = cost.at(from..=c)`: the raw values, then the clamped
/// last entry. `row` holds `c + 1` entries; those below `from` keep
/// whatever they held.
fn materialise(cost: &CostCurve, c: usize, from: usize, row: &mut Vec<f64>) {
    let raw = cost.raw();
    row.resize(c + 1, f64::INFINITY);
    let end = raw.len().min(c + 1);
    let copied = end.max(from);
    row[from..copied].copy_from_slice(&raw[from.min(end)..end]);
    row[copied..].fill(raw[raw.len() - 1]);
}

/// What the layer loop needs of one cost curve over `0..=C`.
#[derive(Clone, Copy, Debug)]
struct Shape {
    /// Every entry is `≥` the next.
    non_increasing: bool,
    /// First and last index holding a finite value, if any does.
    span: Option<(usize, usize)>,
    /// First position of the minimum: the tail clip's last candidate.
    first_min: usize,
}

impl Shape {
    /// The pre-pass over `cost.at(0..=c)`. The clamped tail repeats the
    /// last raw entry, so it neither rises nor moves the first minimum;
    /// it only extends a finite span to `c`.
    fn of(cost: &CostCurve, c: usize) -> Shape {
        let raw = cost.raw();
        let row = &raw[..raw.len().min(c + 1)];
        let last = row[row.len() - 1];
        // One fold, without early exits, so it vectorises. A
        // non-increasing row's minimum is its last entry, and the
        // entries above it are exactly those before its first position.
        let pairs = row.iter().zip(&row[1..]);
        let (non_increasing, above) = pairs.fold((true, 0), |(ok, above), (&v, &then)| {
            (ok & (v >= then), above + usize::from(v > last))
        });
        Shape {
            non_increasing,
            span: finite_span(row).map(|(lo, hi)| (lo, if last < f64::INFINITY { c } else { hi })),
            first_min: if non_increasing {
                above
            } else {
                first_min_index(row)
            },
        }
    }
}

/// First and last index holding a finite value, if any does.
fn finite_span(row: &[f64]) -> Option<(usize, usize)> {
    let first = row.iter().position(|&v| v < f64::INFINITY)?;
    let last = row.iter().rposition(|&v| v < f64::INFINITY)?;
    Some((first, last))
}

/// Start of the row's saturated suffix: the first index from which every
/// entry carries the bits of the finite last one. `row.len()` when the
/// last entry is `+∞` (a forbidden suffix saturates nothing).
fn saturated_from(row: &[f64]) -> usize {
    let floor = row[row.len() - 1];
    if floor == f64::INFINITY {
        return row.len();
    }
    row.iter()
        .rposition(|v| v.to_bits() != floor.to_bits())
        .map_or(0, |p| p + 1)
}

/// First position of the row's minimum (its last strict prefix-minimum).
fn first_min_index(row: &[f64]) -> usize {
    let mut at = 0;
    for (j, &v) in row.iter().enumerate() {
        if v < row[at] {
            at = j;
        }
    }
    at
}

/// One layer's clips: the candidates are `own_lo..=own_hi` (the
/// current curve's clipped finite span), the cells `first_k..=c`, and
/// the previous row is finite over `prev_lo..=prev_hi` and saturated
/// from `sat` on.
#[derive(Clone, Copy, Debug)]
struct Runs {
    own_lo: usize,
    own_hi: usize,
    first_k: usize,
    prev_lo: usize,
    prev_hi: usize,
    sat: usize,
    c: usize,
}

impl Runs {
    /// The cells `k` that scan candidate `ci` unsaturated: `k − ci` in
    /// the previous row's finite span and below its saturation point.
    #[inline(always)]
    fn cells(&self, ci: usize) -> std::ops::Range<usize> {
        let end = (self.c + 1).min(ci + self.prev_hi + 1).min(ci + self.sat);
        self.first_k.max(ci + self.prev_lo)..end
    }
}

/// The lane width a layer's runs are compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lanes {
    /// The build's baseline target (SSE2's two `f64` lanes on x86-64).
    Portable,
    /// Four lanes: `avx2`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Eight lanes: `avx2`, `avx512f` and `avx512vl`.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Lanes {
    /// Whether this CPU runs the width.
    fn detected(self) -> bool {
        match self {
            Lanes::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx512 => {
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vl")
            }
        }
    }

    /// The widest width this CPU runs.
    fn widest() -> Lanes {
        #[cfg(target_arch = "x86_64")]
        for wide in [Lanes::Avx512, Lanes::Avx2] {
            if wide.detected() {
                return wide;
            }
        }
        Lanes::Portable
    }
}

/// The candidate-major pass: every candidate of `runs`' span, in
/// ascending order, relaxes its run of cells. Two neighbours share a
/// pass over the cells both reach (their runs differ by at most one
/// cell at either end), which halves the loads and stores of `next`
/// and `arg`. Returns the runs' summed length: the unsaturated pairs.
#[inline(always)]
fn relax(
    runs: Runs,
    prev: &[f64],
    own: &[f64],
    next: &mut [f64],
    arg: &mut [f64],
    op: impl Fn(f64, f64) -> f64,
) -> usize {
    let (mut ci, mut pairs) = (runs.own_lo, 0);
    while ci <= runs.own_hi {
        let this = runs.cells(ci);
        pairs += this.len();
        if ci < runs.own_hi {
            let then = runs.cells(ci + 1);
            if then.start < this.end {
                pairs += then.len();
                relax_cells::<1>(ci, this.start..then.start, prev, own, next, arg, &op);
                relax_cells::<2>(ci, then.start..this.end, prev, own, next, arg, &op);
                relax_cells::<1>(ci + 1, this.end..then.end, prev, own, next, arg, &op);
                ci += 2;
                continue;
            }
        }
        relax_cells::<1>(ci, this, prev, own, next, arg, &op);
        ci += 1;
    }
    pairs
}

/// Relaxes `cells` by the `N` candidates `ci..ci + N`, in ascending
/// order per cell: a candidate's total replaces the cell's best, and
/// the candidate its argmin, only when strictly smaller.
#[inline(always)]
fn relax_cells<const N: usize>(
    ci: usize,
    cells: std::ops::Range<usize>,
    prev: &[f64],
    own: &[f64],
    next: &mut [f64],
    arg: &mut [f64],
    op: &impl Fn(f64, f64) -> f64,
) {
    let costs: [f64; N] = std::array::from_fn(|j| own[ci + j]);
    // A forbidden candidate's totals are `+∞`: they never win.
    if cells.is_empty() || costs.iter().all(|&cost| cost == f64::INFINITY) {
        return;
    }
    let ats: [f64; N] = std::array::from_fn(|j| (ci + j) as f64);
    // Candidate `ci + j` reads `prev[k − ci − j] = window[x + N − 1 − j]`.
    let window = &prev[cells.start + 1 - ci - N..cells.end - ci];
    let slots = next[cells.clone()].iter_mut().zip(&mut arg[cells]);
    for (x, (best, by)) in slots.enumerate() {
        // Blend in locals: a select between `ats[j]` and `*by` itself
        // lowers to a gather through a select of pointers.
        let (mut b, mut a) = (*best, *by);
        for j in 0..N {
            let total = op(window[x + N - 1 - j], costs[j]);
            let less = total < b;
            b = if less { total } else { b };
            a = if less { ats[j] } else { a };
        }
        (*best, *by) = (b, a);
    }
}

/// [`relax`] at four lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn relax_avx2(
    runs: Runs,
    prev: &[f64],
    own: &[f64],
    next: &mut [f64],
    arg: &mut [f64],
    op: impl Fn(f64, f64) -> f64,
) -> usize {
    relax(runs, prev, own, next, arg, op)
}

/// [`relax`] at eight lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512vl")]
fn relax_avx512(
    runs: Runs,
    prev: &[f64],
    own: &[f64],
    next: &mut [f64],
    arg: &mut [f64],
    op: impl Fn(f64, f64) -> f64,
) -> usize {
    relax(runs, prev, own, next, arg, op)
}

impl DpSolver {
    /// Creates a solver with empty scratch tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Candidate counts of the most recent solve (zero before any).
    pub fn last_cells(&self) -> DpCells {
        self.cells
    }

    /// The DP table fill shared by [`DpSolver::solve`] and
    /// [`DpSolver::solve_frontier`]: after this, `self.dp[k]` is the
    /// best accumulated cost allocating exactly `k` units across all
    /// `costs`, and `self.choice[i][k]` the units given to program `i`
    /// in that best solution. With `whole_last_row` unset the last
    /// layer fills `k = c` only — all `solve` reads — and, under the
    /// demand clip, every other layer `i` fills `first[i]..=c` only. The
    /// float operations here are the whole identity story — both entry
    /// points must observe the same bits, at every lane width.
    fn fill_tables<T: Borrow<CostCurve>>(
        &mut self,
        costs: &[T],
        c: usize,
        combine: Combine,
        whole_last_row: bool,
        lanes: Lanes,
    ) {
        let p = costs.len();
        self.shapes.clear();
        self.shapes
            .extend(costs.iter().map(|cost| Shape::of(cost.borrow(), c)));
        let monotone = self.shapes.iter().all(|shape| shape.non_increasing);
        self.first.clear();
        self.first.resize(p, 0);
        if !whole_last_row {
            self.first[p - 1] = c;
            if monotone {
                for i in (0..p - 1).rev() {
                    self.first[i] = self.first[i + 1].saturating_sub(self.shapes[i + 1].first_min);
                }
            }
        }
        materialise(costs[0].borrow(), c, self.first[0], &mut self.dp);
        if self.choice.len() < p {
            self.choice.resize_with(p, Vec::new);
        }
        // Layers swap `arg` with their choice row, so every one of these
        // rows serves as `arg` in turn: size them all up front.
        for row in &mut self.choice[..p] {
            row.resize(c + 1, 0.0);
        }
        for (k, slot) in self.choice[0].iter_mut().enumerate().skip(self.first[0]) {
            *slot = k as f64;
        }
        self.cells = DpCells {
            visited: 0,
            dense: (p as u64 - 1) * (c as u64 + 1) * (c as u64 + 2) / 2,
        };
        for (i, cost_i) in costs.iter().enumerate().skip(1) {
            match combine {
                Combine::Sum => self.fill_layer(i, cost_i.borrow(), monotone, lanes, |a, b| a + b),
                Combine::Max => self.fill_layer(i, cost_i.borrow(), monotone, lanes, f64::max),
            }
        }
    }

    /// One layer of the recurrence: seeds `next[first_k..]` from the
    /// saturated candidates, relaxes it candidate-major, and swaps it
    /// into `dp`. `monotone` says every curve, hence every row, is
    /// non-increasing.
    fn fill_layer(
        &mut self,
        i: usize,
        cost_i: &CostCurve,
        monotone: bool,
        lanes: Lanes,
        op: impl Fn(f64, f64) -> f64 + Copy,
    ) {
        let DpSolver {
            dp,
            next,
            arg,
            own,
            shapes,
            first,
            choice,
            cells,
        } = self;
        let c = dp.len() - 1;
        // The previous layer filled `from..=c`; this one fills
        // `first_k..=c`, whose candidates read no cell below `from`.
        let (from, first_k, shape) = (first[i - 1], first[i], shapes[i]);
        let prev_span = finite_span(&dp[from..]).map(|(lo, hi)| (from + lo, from + hi));
        let (Some((own_lo, own_hi)), Some((prev_lo, prev_hi))) = (shape.span, prev_span) else {
            dp.fill(f64::INFINITY);
            choice[i][first_k..].fill(0.0);
            return;
        };
        // A fold, not `all`: without the early exit the check vectorises.
        let non_increasing = monotone
            || dp[from..]
                .windows(2)
                .fold(true, |ok, w| ok & (w[0] >= w[1]));
        let own_hi = if non_increasing {
            own_hi.min(shape.first_min)
        } else {
            own_hi
        };
        // Candidates read `own[..=own_hi]`: the raw values, unless the
        // curve clamps before `own_hi`.
        let own = match cost_i.raw() {
            raw if raw.len() > own_hi => raw,
            _ => {
                materialise(cost_i, own_hi, 0, own);
                &own[..]
            }
        };
        let (floor, sat) = (dp[c], from + saturated_from(&dp[from..]));
        let runs = Runs {
            own_lo,
            own_hi,
            first_k,
            prev_lo,
            prev_hi,
            sat,
            c,
        };
        next.resize(c + 1, f64::INFINITY);
        arg.resize(c + 1, 0.0);
        // The seeds. Cell `k ≥ sat` reads `floor` at every `ci ≤ k − sat`
        // (a finite floor makes `prev_hi == c`, and `sat ≥ prev_lo`), so
        // its saturated candidates are `own_lo..min(k + 1 − sat, own_hi + 1)`
        // and their totals `floor ⊕ own[ci]` collapse to one running first
        // minimum, extended as `k` grows. Each is evaluated once.
        let seeded = first_k.max(sat).min(c + 1);
        next[first_k..seeded].fill(f64::INFINITY);
        arg[first_k..seeded].fill(0.0);
        let (mut scan, mut flat) = (own_lo, (f64::INFINITY, 0.0));
        for k in seeded..=c {
            let split = (k + 1 - sat).min(own_hi + 1);
            while scan < split {
                let total = op(floor, own[scan]);
                let less = total < flat.0;
                flat = if less { (total, scan as f64) } else { flat };
                scan += 1;
            }
            (next[k], arg[k]) = flat;
            if split > own_hi {
                // Every later cell has the same saturated candidates.
                next[k + 1..].fill(flat.0);
                arg[k + 1..].fill(flat.1);
                break;
            }
        }
        let unsaturated = match lanes {
            #[cfg(target_arch = "x86_64")]
            wide @ (Lanes::Avx2 | Lanes::Avx512) if wide.detected() => {
                // SAFETY: `detected` — `is_x86_feature_detected!` — has
                // just found `avx2` (and, for `Avx512`, `avx512f` and
                // `avx512vl`) on this CPU, the features the called
                // `relax_*` is compiled for.
                unsafe {
                    if wide == Lanes::Avx512 {
                        relax_avx512(runs, dp, own, next, arg, op)
                    } else {
                        relax_avx2(runs, dp, own, next, arg, op)
                    }
                }
            }
            _ => relax(runs, dp, own, next, arg, op),
        };
        cells.visited += (scan - own_lo + unsaturated) as u64;
        std::mem::swap(dp, next);
        std::mem::swap(arg, &mut choice[i]);
    }

    /// Runs the DP under `objective`'s accumulation semantics. Returns
    /// `None` when no allocation satisfies every program's constraints
    /// (some cost curve forbids everything reachable), or when `costs`
    /// is empty.
    ///
    /// Exact-sum semantics: all `total_units` are distributed. Because
    /// cost curves are non-increasing in practice, using the whole cache
    /// is never worse; forbidden (infinite) regions only ever exclude
    /// *small* allocations, so exactness does not affect feasibility.
    pub fn solve(
        &mut self,
        costs: &[CostCurve],
        total_units: usize,
        objective: &Objective,
    ) -> Option<PartitionResult> {
        if costs.is_empty() {
            return None;
        }
        let p = costs.len();
        let c = total_units;
        let combine = objective.combine();
        self.fill_tables(costs, c, combine, false, Lanes::widest());
        if self.dp[c] == f64::INFINITY {
            return None;
        }
        let mut allocation = vec![0usize; p];
        let mut k = c;
        for i in (0..p).rev() {
            let ci = self.choice[i][k] as usize;
            allocation[i] = ci;
            k -= ci;
        }
        debug_assert_eq!(k, 0, "backtrack must consume the whole cache");
        // Recompute the cost from the allocation as a self-check (and to
        // normalize Max-combine identity handling).
        let acc = combine.accumulate(costs, &allocation);
        Some(PartitionResult {
            allocation,
            cost: acc,
        })
    }
}

/// The min-cost frontier of one DP instance: for every capacity
/// `k ∈ 0..=max_units`, the best accumulated cost of allocating
/// *exactly* `k` units across the programs, with backtracking at any
/// `k`.
///
/// This is the shape a hierarchical (cluster) solve needs from each
/// node: one local DP pass produces the node's whole cost-vs-budget
/// curve, the top-level DP across nodes picks each node's budget, and
/// [`DpFrontier::allocation`] recovers the node-local split at that
/// budget without re-solving. Entries are [`f64::INFINITY`] where no
/// feasible allocation of exactly `k` units exists.
#[derive(Clone, Debug, PartialEq)]
pub struct DpFrontier {
    costs: Vec<f64>,
    choice: Vec<Vec<u32>>,
}

impl DpFrontier {
    /// Largest capacity the frontier covers.
    pub fn max_units(&self) -> usize {
        self.costs.len() - 1
    }

    /// Number of programs the frontier was built over.
    pub fn programs(&self) -> usize {
        self.choice.len()
    }

    /// Best accumulated cost at exactly `k` units (`+∞` = infeasible).
    ///
    /// # Panics
    /// Panics if `k > max_units`.
    pub fn cost(&self, k: usize) -> f64 {
        self.costs[k]
    }

    /// The whole frontier, `costs()[k]` = best cost at exactly `k`.
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Backtracks the per-program allocation behind the frontier value
    /// at `k`. Returns `None` when `cost(k)` is infinite.
    ///
    /// # Panics
    /// Panics if `k > max_units`.
    pub fn allocation(&self, k: usize) -> Option<Vec<usize>> {
        if self.costs[k].is_infinite() {
            return None;
        }
        let p = self.choice.len();
        let mut allocation = vec![0usize; p];
        let mut k = k;
        for i in (0..p).rev() {
            let ci = self.choice[i][k] as usize;
            allocation[i] = ci;
            k -= ci;
        }
        debug_assert_eq!(k, 0, "backtrack must consume the whole budget");
        Some(allocation)
    }
}

impl DpSolver {
    /// Runs the same DP as [`DpSolver::solve`] but keeps the **entire**
    /// final row: the best cost at every exact capacity `0..=max_units`,
    /// together with the choice tables for backtracking at any point.
    /// Returns `None` only when `costs` is empty. Takes owned or
    /// borrowed curves (`&[CostCurve]` or `&[&CostCurve]`) — it only
    /// reads them.
    ///
    /// The scratch tables are reused across calls exactly as in
    /// `solve`; the returned frontier owns copies so several frontiers
    /// (one per cluster node) can coexist while the solver moves on.
    pub fn solve_frontier<T: Borrow<CostCurve>>(
        &mut self,
        costs: &[T],
        max_units: usize,
        objective: &Objective,
    ) -> Option<DpFrontier> {
        if costs.is_empty() {
            return None;
        }
        let p = costs.len();
        self.fill_tables(costs, max_units, objective.combine(), true, Lanes::widest());
        Some(DpFrontier {
            costs: self.dp.clone(),
            choice: self.choice[..p]
                .iter()
                .map(|row| row.iter().map(|&by| by as u32).collect())
                .collect(),
        })
    }
}

/// Runs the DP with one-shot scratch tables. See [`DpSolver::solve`].
///
/// # Examples
///
/// A cliff curve next to a smooth one — the case greedy allocation gets
/// wrong and the DP gets right:
///
/// ```
/// use cps_core::{optimal_partition, CostCurve, Objective};
/// let cliff = CostCurve::from_raw(vec![1.0, 1.0, 1.0, 0.0]); // all-or-nothing at 3 units
/// let smooth = CostCurve::from_raw(vec![0.3, 0.2, 0.1, 0.05]);
/// let best = optimal_partition(&[cliff, smooth], 3, &Objective::MissRatioSum).unwrap();
/// assert_eq!(best.allocation, vec![3, 0]); // feed the cliff
/// assert!((best.cost - 0.3).abs() < 1e-12);
/// ```
pub fn optimal_partition(
    costs: &[CostCurve],
    total_units: usize,
    objective: &Objective,
) -> Option<PartitionResult> {
    DpSolver::new().solve(costs, total_units, objective)
}

/// Exhaustive reference optimizer (`O(C^(P−1))`) — the oracle the tests
/// compare the DP against. Only sensible for tiny instances.
pub fn brute_force_partition(
    costs: &[CostCurve],
    total_units: usize,
    objective: &Objective,
) -> Option<PartitionResult> {
    // Iterative odometer over all compositions of total_units into p
    // parts: enumerate the first p−1 digits, the last is the remainder.
    if costs.is_empty() {
        return None;
    }
    let combine = objective.combine();
    let p = costs.len();
    let mut alloc = vec![0usize; p];
    let mut best: Option<PartitionResult> = None;
    loop {
        let head: usize = alloc[..p - 1].iter().sum();
        if head <= total_units {
            alloc[p - 1] = total_units - head;
            let acc = combine.accumulate(costs, &alloc);
            if acc.is_finite() && best.as_ref().is_none_or(|b| acc < b.cost) {
                best = Some(PartitionResult {
                    allocation: alloc.clone(),
                    cost: acc,
                });
            }
        }
        // Advance the odometer over the first p−1 digits.
        let mut i = 0;
        loop {
            if i == p - 1 {
                return best;
            }
            alloc[i] += 1;
            if alloc[..p - 1].iter().sum::<usize>() <= total_units {
                break;
            }
            alloc[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::FORBIDDEN;

    fn curve(v: Vec<f64>) -> CostCurve {
        CostCurve::from_raw(v)
    }

    #[test]
    fn single_program_takes_everything() {
        let c = curve(vec![1.0, 0.5, 0.2, 0.1]);
        let r = optimal_partition(&[c], 3, &Objective::MissRatioSum).unwrap();
        assert_eq!(r.allocation, vec![3]);
        assert!((r.cost - 0.1).abs() < 1e-12);
    }

    #[test]
    fn two_programs_split_optimally() {
        // Program A gains a lot from 2 units; program B from 1.
        let a = curve(vec![1.0, 0.9, 0.1, 0.05]);
        let b = curve(vec![1.0, 0.2, 0.15, 0.1]);
        let r = optimal_partition(&[a, b], 3, &Objective::MissRatioSum).unwrap();
        assert_eq!(r.allocation, vec![2, 1]);
        assert!((r.cost - 0.3).abs() < 1e-12);
    }

    #[test]
    fn handles_cliff_curves_where_greedy_fails() {
        // A: huge drop only at 3 units. B: small steady gains.
        // Greedy-by-next-unit would feed B; optimal gives A its cliff.
        let a = curve(vec![1.0, 1.0, 1.0, 0.0]);
        let b = curve(vec![0.3, 0.2, 0.1, 0.05]);
        let r = optimal_partition(&[a, b], 3, &Objective::MissRatioSum).unwrap();
        assert_eq!(r.allocation, vec![3, 0]);
        assert!((r.cost - 0.3).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_random_curves() {
        let mut x = 42u64;
        let mut rnd = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..20 {
            let p = 3;
            let c = 12;
            let costs: Vec<CostCurve> = (0..p)
                .map(|_| {
                    // Random non-increasing curve.
                    let mut v: Vec<f64> = (0..=c).map(|_| rnd()).collect();
                    v.sort_by(|a, b| b.partial_cmp(a).unwrap());
                    curve(v)
                })
                .collect();
            let dp = optimal_partition(&costs, c, &Objective::MissRatioSum).unwrap();
            let bf = brute_force_partition(&costs, c, &Objective::MissRatioSum).unwrap();
            assert!(
                (dp.cost - bf.cost).abs() < 1e-9,
                "dp {} vs brute force {}",
                dp.cost,
                bf.cost
            );
            assert_eq!(dp.allocation.iter().sum::<usize>(), c);
        }
    }

    #[test]
    fn matches_brute_force_with_non_monotone_curves() {
        // "Any function" support: costs that go *up* with more cache.
        let a = curve(vec![0.5, 0.1, 0.9, 0.2]);
        let b = curve(vec![0.3, 0.6, 0.0, 0.4]);
        let dp = optimal_partition(&[a.clone(), b.clone()], 3, &Objective::MissRatioSum).unwrap();
        let bf = brute_force_partition(&[a, b], 3, &Objective::MissRatioSum).unwrap();
        assert_eq!(dp.cost, bf.cost);
        assert_eq!(dp.allocation, vec![1, 2]);
    }

    #[test]
    fn max_combine_minimizes_worst_member() {
        // Sum-optimal would starve B (give everything to A); max-combine
        // balances.
        let a = curve(vec![0.9, 0.5, 0.3, 0.1]);
        let b = curve(vec![0.8, 0.4, 0.2, 0.05]);
        let sum = optimal_partition(&[a.clone(), b.clone()], 3, &Objective::MissRatioSum).unwrap();
        let max = optimal_partition(&[a.clone(), b.clone()], 3, &Objective::MaxMissRatio).unwrap();
        let worst = |r: &PartitionResult| {
            (0..2)
                .map(|i| [&a, &b][i].at(r.allocation[i]))
                .fold(0.0, f64::max)
        };
        assert!(worst(&max) <= worst(&sum) + 1e-12);
        let bf = brute_force_partition(&[a, b], 3, &Objective::MaxMissRatio).unwrap();
        assert!((max.cost - bf.cost).abs() < 1e-12);
    }

    #[test]
    fn constraints_are_respected() {
        // A needs at least 2 units; B at least 1; cache of 4.
        let a = curve(vec![FORBIDDEN, FORBIDDEN, 0.5, 0.4, 0.3]);
        let b = curve(vec![FORBIDDEN, 0.6, 0.5, 0.45, 0.44]);
        let r = optimal_partition(&[a, b], 4, &Objective::MissRatioSum).unwrap();
        assert!(r.allocation[0] >= 2);
        assert!(r.allocation[1] >= 1);
        assert_eq!(r.allocation.iter().sum::<usize>(), 4);
    }

    #[test]
    fn infeasible_returns_none() {
        // Together they need 5 units; only 4 exist.
        let a = curve(vec![FORBIDDEN, FORBIDDEN, FORBIDDEN, 0.1, 0.1]);
        let b = curve(vec![FORBIDDEN, FORBIDDEN, 0.2, 0.2, 0.2]);
        assert_eq!(
            optimal_partition(&[a, b], 4, &Objective::MissRatioSum),
            None
        );
    }

    #[test]
    fn empty_input_returns_none() {
        assert_eq!(optimal_partition(&[], 4, &Objective::MissRatioSum), None);
    }

    #[test]
    fn zero_cache_allocates_zeros() {
        let a = curve(vec![0.5]);
        let b = curve(vec![0.25]);
        let r = optimal_partition(&[a, b], 0, &Objective::MissRatioSum).unwrap();
        assert_eq!(r.allocation, vec![0, 0]);
        assert!((r.cost - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reused_solver_matches_fresh_solves() {
        // Shrinking and growing the instance between solves must not let
        // stale scratch data leak into results.
        let mut solver = DpSolver::new();
        let instances: Vec<(Vec<CostCurve>, usize)> = vec![
            (
                vec![
                    curve(vec![1.0, 0.5, 0.2, 0.1, 0.05]),
                    curve(vec![1.0, 0.8, 0.3, 0.2, 0.15]),
                    curve(vec![0.9, 0.6, 0.55, 0.5, 0.5]),
                ],
                4,
            ),
            (vec![curve(vec![1.0, 0.0])], 1),
            (
                vec![
                    curve(vec![1.0, 1.0, 1.0, 0.0]),
                    curve(vec![0.3, 0.2, 0.1, 0.05]),
                ],
                3,
            ),
            (
                vec![
                    curve(vec![FORBIDDEN, FORBIDDEN, 0.5, 0.4, 0.3]),
                    curve(vec![FORBIDDEN, 0.6, 0.5, 0.45, 0.44]),
                ],
                4,
            ),
        ];
        for combine in [&Objective::MissRatioSum, &Objective::MaxMissRatio] {
            for (costs, c) in &instances {
                assert_eq!(
                    solver.solve(costs, *c, combine),
                    optimal_partition(costs, *c, combine),
                    "combine {combine:?}, cache {c}"
                );
            }
        }
    }

    #[test]
    fn reused_solver_reports_infeasible_then_recovers() {
        let mut solver = DpSolver::new();
        let a = curve(vec![FORBIDDEN, FORBIDDEN, FORBIDDEN, 0.1, 0.1]);
        let b = curve(vec![FORBIDDEN, FORBIDDEN, 0.2, 0.2, 0.2]);
        assert_eq!(solver.solve(&[a, b], 4, &Objective::MissRatioSum), None);
        let c = curve(vec![1.0, 0.5]);
        let r = solver.solve(&[c], 1, &Objective::MissRatioSum).unwrap();
        assert_eq!(r.allocation, vec![1]);
    }

    #[test]
    fn frontier_at_full_capacity_matches_solve() {
        let mut solver = DpSolver::new();
        let costs = vec![
            curve(vec![1.0, 0.5, 0.2, 0.1, 0.05]),
            curve(vec![1.0, 0.8, 0.3, 0.2, 0.15]),
            curve(vec![0.9, 0.6, 0.55, 0.5, 0.5]),
        ];
        for combine in [&Objective::MissRatioSum, &Objective::MaxMissRatio] {
            let frontier = solver.solve_frontier(&costs, 4, combine).unwrap();
            for k in 0..=4 {
                let direct = solver.solve(&costs, k, combine).unwrap();
                // The DP accumulates left-to-right in both entry points,
                // so the values are bit-identical, not merely close.
                assert_eq!(frontier.cost(k), direct.cost, "k={k} {combine:?}");
                assert_eq!(
                    frontier.allocation(k).unwrap(),
                    direct.allocation,
                    "k={k} {combine:?}"
                );
            }
        }
    }

    #[test]
    fn frontier_of_one_program_is_its_cost_curve() {
        let c = curve(vec![1.0, 0.5, 0.2, 0.1]);
        let frontier = DpSolver::new()
            .solve_frontier(std::slice::from_ref(&c), 5, &Objective::MissRatioSum)
            .unwrap();
        for k in 0..=5 {
            assert_eq!(frontier.cost(k), c.at(k));
            assert_eq!(frontier.allocation(k).unwrap(), vec![k]);
        }
    }

    #[test]
    fn frontier_marks_infeasible_capacities() {
        // A needs ≥ 2 units, B needs ≥ 1: nothing below 3 is feasible.
        let a = curve(vec![FORBIDDEN, FORBIDDEN, 0.5, 0.4, 0.3]);
        let b = curve(vec![FORBIDDEN, 0.6, 0.5, 0.45, 0.44]);
        let frontier = DpSolver::new()
            .solve_frontier(&[a, b], 4, &Objective::MissRatioSum)
            .unwrap();
        for k in 0..3 {
            assert!(frontier.cost(k).is_infinite(), "k={k}");
            assert_eq!(frontier.allocation(k), None);
        }
        for k in 3..=4 {
            assert!(frontier.cost(k).is_finite(), "k={k}");
            let alloc = frontier.allocation(k).unwrap();
            assert!(alloc[0] >= 2 && alloc[1] >= 1);
            assert_eq!(alloc.iter().sum::<usize>(), k);
        }
        assert_eq!(frontier.max_units(), 4);
        assert_eq!(frontier.programs(), 2);
    }

    #[test]
    fn frontier_matches_brute_force_everywhere() {
        let mut x = 7u64;
        let mut rnd = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) as f64) / (u32::MAX as f64)
        };
        let mut solver = DpSolver::new();
        for _ in 0..10 {
            let costs: Vec<CostCurve> = (0..3)
                .map(|_| curve((0..=10).map(|_| rnd()).collect()))
                .collect();
            for combine in [&Objective::MissRatioSum, &Objective::MaxMissRatio] {
                let frontier = solver.solve_frontier(&costs, 10, combine).unwrap();
                for k in 0..=10 {
                    let bf = brute_force_partition(&costs, k, combine).unwrap();
                    assert!(
                        (frontier.cost(k) - bf.cost).abs() < 1e-9,
                        "k={k}: frontier {} vs brute force {}",
                        frontier.cost(k),
                        bf.cost
                    );
                }
            }
        }
    }

    #[test]
    fn frontier_of_empty_input_is_none() {
        assert_eq!(
            DpSolver::new().solve_frontier::<CostCurve>(&[], 4, &Objective::MissRatioSum),
            None
        );
    }

    /// The dense fold over every `c ≤ k` with a strict `total < best`
    /// (the kernel's oracle): every layer's `dp` row and `choice` row,
    /// and per layer the `(k, c)` pairs the clips admit when the layer
    /// fills every cell and when it fills the demand rows `solve`
    /// fills: `k ∈ [a_i, C]`, with `a_{P−1} = C` and, when every curve
    /// is non-increasing, `a_i = a_{i+1} − hi_{i+1}` (floored at 0) for
    /// `hi` the first position of a curve's minimum, else `a_i = 0`.
    /// The count is the clips' definition: each admitted unsaturated
    /// pair once, and each candidate that is saturated in some
    /// admitted cell once.
    #[allow(clippy::type_complexity)]
    fn scalar_fold(
        costs: &[CostCurve],
        c: usize,
        combine: Combine,
    ) -> (Vec<Vec<f64>>, Vec<Vec<u32>>, Vec<(u64, u64)>) {
        let mut rows = vec![(0..=c).map(|k| costs[0].at(k)).collect::<Vec<f64>>()];
        let mut choice = vec![(0..=c as u32).collect::<Vec<u32>>()];
        let mut visited = Vec::new();
        let first_min = |cost: &CostCurve| {
            let min = (0..=c).map(|k| cost.at(k)).fold(f64::INFINITY, f64::min);
            (0..=c).position(|k| cost.at(k) == min).unwrap()
        };
        let monotone = costs
            .iter()
            .all(|cost| (0..c).all(|k| cost.at(k) >= cost.at(k + 1)));
        let mut demand = vec![0; costs.len()];
        demand[costs.len() - 1] = c;
        for i in (0..costs.len() - 1).rev().filter(|_| monotone) {
            demand[i] = demand[i + 1].saturating_sub(first_min(&costs[i + 1]));
        }
        for (i, cost_i) in costs.iter().enumerate().skip(1) {
            let prev = rows.last().unwrap();
            let own: Vec<f64> = (0..=c).map(|ci| cost_i.at(ci)).collect();
            let (mut next, mut row) = (vec![f64::INFINITY; c + 1], vec![0u32; c + 1]);
            for k in 0..=c {
                for ci in 0..=k {
                    let total = combine.apply(prev[k - ci], own[ci]);
                    if total < next[k] {
                        (next[k], row[k]) = (total, ci as u32);
                    }
                }
            }
            // The clips, spelled out here rather than through the
            // kernel's helpers.
            let finite = |row: &[f64]| {
                let at: Vec<usize> = (0..=c).filter(|&j| row[j].is_finite()).collect();
                Some((*at.first()?, *at.last()?))
            };
            let mut counts = (0, 0);
            if let (Some((own_lo, own_hi)), Some((prev_lo, prev_hi))) = (finite(&own), finite(prev))
            {
                let min = own.iter().copied().fold(f64::INFINITY, f64::min);
                let own_hi = if (0..c).all(|k| prev[k] >= prev[k + 1]) {
                    own_hi.min(own.iter().position(|&v| v == min).unwrap())
                } else {
                    own_hi
                };
                let floor = prev[c].to_bits();
                let sat = (0..=c)
                    .find(|&k| prev[k..].iter().all(|v| v.to_bits() == floor))
                    .filter(|_| prev[c].is_finite())
                    .unwrap_or(c + 1);
                for (first_k, count) in [(0, &mut counts.0), (demand[i], &mut counts.1)] {
                    let mut saturated = std::collections::BTreeSet::new();
                    for k in first_k..=c {
                        for ci in own_lo..=own_hi.min(k) {
                            if (prev_lo..=prev_hi).contains(&(k - ci)) {
                                if k - ci < sat {
                                    *count += 1;
                                } else {
                                    saturated.insert(ci);
                                }
                            }
                        }
                    }
                    *count += saturated.len() as u64;
                }
            }
            rows.push(next);
            choice.push(row);
            visited.push(counts);
        }
        (rows, choice, visited)
    }

    /// Seeded curves over ties (six levels), `±0`, forbidden prefixes,
    /// holes and suffixes, saturated (flat-tailed) and non-increasing
    /// rows, and short curves that clamp.
    fn seeded_curve(next: &mut impl FnMut() -> usize, c: usize) -> CostCurve {
        const LEVELS: [f64; 6] = [0.0, -0.0, 0.125, 0.25, 0.5, 1.0];
        let len = if next().is_multiple_of(4) {
            1 + next() % (c + 1)
        } else {
            c + 1
        };
        let mut v: Vec<f64> = (0..len).map(|_| LEVELS[next() % LEVELS.len()]).collect();
        match next() % 3 {
            0 => v.sort_by(|a, b| b.partial_cmp(a).unwrap()),
            1 => {
                let from = next() % len;
                let floor = v[from];
                v[from..].fill(floor);
            }
            _ => {}
        }
        if next().is_multiple_of(3) {
            let prefix = next() % (len / 2 + 1);
            v[..prefix].fill(FORBIDDEN);
        }
        if next().is_multiple_of(4) {
            let hole = next() % len;
            v[hole] = FORBIDDEN;
        }
        if next().is_multiple_of(5) {
            let suffix = next() % (len / 3 + 1);
            v[len - suffix..].fill(FORBIDDEN);
        }
        curve(v)
    }

    /// Every lane width this CPU has, the build's baseline first.
    fn widths() -> Vec<Lanes> {
        let mut widths = vec![Lanes::Portable];
        #[cfg(target_arch = "x86_64")]
        widths.extend(
            [Lanes::Avx2, Lanes::Avx512]
                .into_iter()
                .filter(|w| w.detected()),
        );
        widths
    }

    fn seeded() -> impl FnMut() -> usize {
        let mut x = 11u64;
        move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        }
    }

    /// `fill_tables` against [`scalar_fold`] at every lane width and
    /// under both combines: each prefix's whole rows, choice rows and
    /// counts, then the rows `solve` fills — `dp[C]`, the choices on
    /// its backtrack and the demand count.
    fn assert_matches_scalar_fold(solver: &mut DpSolver, costs: &[CostCurve], c: usize) {
        let p = costs.len();
        for combine in [Combine::Sum, Combine::Max] {
            let (rows, choice, visited) = scalar_fold(costs, c, combine);
            for lanes in widths() {
                let at = format!("{lanes:?} {combine:?} C={c} {costs:?}");
                let mut whole = 0;
                for i in 0..p {
                    solver.fill_tables(&costs[..=i], c, combine, true, lanes);
                    assert_eq!(bits(&solver.dp), bits(&rows[i]), "dp row {i}: {at}");
                    let oracle: Vec<Vec<f64>> = choice[..=i]
                        .iter()
                        .map(|row| row.iter().map(|&by| by as f64).collect())
                        .collect();
                    assert_eq!(solver.choice[..=i], oracle, "choice {i}: {at}");
                    let dense = i as u64 * (c as u64 + 1) * (c as u64 + 2) / 2;
                    assert_eq!(solver.cells.dense, dense, "{at}");
                    assert_eq!(solver.cells.visited, whole, "{at}");
                    whole += visited.get(i).map_or(0, |v| v.0);
                }
                solver.fill_tables(costs, c, combine, false, lanes);
                assert_eq!(solver.dp[c].to_bits(), rows[p - 1][c].to_bits(), "{at}");
                let demand: u64 = visited.iter().map(|v| v.1).sum();
                assert_eq!(solver.cells.visited, demand, "{at}");
                if solver.dp[c] < f64::INFINITY {
                    let mut k = c;
                    for i in (0..p).rev() {
                        assert_eq!(solver.choice[i][k], choice[i][k] as f64, "{i} {k}: {at}");
                        k -= choice[i][k] as usize;
                    }
                }
            }
        }
    }

    #[test]
    fn every_lane_width_matches_the_scalar_fold() {
        let mut next = seeded();
        let mut solver = DpSolver::new();
        for (c, cases) in [(0, 6), (1, 6), (7, 12), (8, 12), (9, 12), (1024, 2)] {
            for _ in 0..cases {
                let p = 2 + next() % 3;
                let costs: Vec<CostCurve> = (0..p).map(|_| seeded_curve(&mut next, c)).collect();
                assert_matches_scalar_fold(&mut solver, &costs, c);
            }
        }
    }

    /// Seeded non-increasing curves: eighth-grid ties, `±0`, forbidden
    /// prefixes, saturated tails and short curves that clamp.
    fn monotone_curve(next: &mut impl FnMut() -> usize, c: usize) -> CostCurve {
        let len = 1 + next() % (c + 1 + c / 2);
        let mut v: Vec<f64> = (0..len).map(|_| (next() % 9) as f64 / 8.0).collect();
        v.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for entry in v.iter_mut().filter(|e| **e == 0.0) {
            *entry = [0.0, -0.0][next() % 2];
        }
        if next().is_multiple_of(2) {
            let from = next() % len;
            let floor = v[from];
            v[from..].fill(floor);
        }
        if next().is_multiple_of(3) {
            let prefix = next() % (len / 2 + 1);
            v[..prefix].fill(FORBIDDEN);
        }
        curve(v)
    }

    #[test]
    fn demand_rows_match_the_scalar_fold() {
        let mut next = seeded();
        let mut solver = DpSolver::new();
        let (mut clipped, mut whole) = (0, 0);
        for (c, cases) in [
            (0, 4),
            (1, 4),
            (7, 12),
            (8, 12),
            (9, 12),
            (64, 6),
            (1024, 1),
        ] {
            for _ in 0..cases {
                let p = 3 + next() % 4;
                let costs: Vec<CostCurve> = (0..p).map(|_| monotone_curve(&mut next, c)).collect();
                assert_matches_scalar_fold(&mut solver, &costs, c);
                // One rise anywhere turns the clip off; the oracle then
                // admits every cell of every layer but the last.
                for j in 0..p {
                    let mut v: Vec<f64> = (0..=c).map(|k| costs[j].at(k)).collect();
                    let Some(lo) = v[..c.max(1) - 1].iter().position(|e| e.is_finite()) else {
                        continue;
                    };
                    let at = lo.max(next() % c);
                    v[at + 1] = v[at] + 1.0;
                    let mut rising = costs.clone();
                    rising[j] = curve(v);
                    assert_matches_scalar_fold(&mut solver, &rising, c);
                }
                solver.fill_tables(&costs, c, Combine::Sum, false, Lanes::widest());
                clipped += solver.cells.visited;
                solver.fill_tables(&costs, c, Combine::Sum, true, Lanes::widest());
                whole += solver.cells.visited;
            }
        }
        // The seeded sets do exercise the clip.
        assert!(clipped * 2 < whole, "{clipped} of {whole}");
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn short_cost_curves_clamp() {
        // A curve shorter than the cache behaves as flat past its end.
        let a = curve(vec![1.0, 0.0]); // flat 0 beyond 1 unit
        let b = curve(vec![1.0, 0.4, 0.3, 0.2, 0.15]);
        let r = optimal_partition(&[a, b], 4, &Objective::MissRatioSum).unwrap();
        assert_eq!(r.allocation, vec![1, 3]);
    }
}
