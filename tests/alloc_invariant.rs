//! Heap traffic of the DP solver: the scratch-reuse contract, counted.
//!
//! A `DpSolver` keeps its rows and choice tables between solves, so
//! once it has solved an instance of a given size, a further `solve`
//! allocates only the allocation vector it returns, and every
//! `solve_frontier` only the frontier it returns. A counting global
//! allocator checks both at the paper's online shape (P = 8, C = 1024).
//! The count is per thread, so tests running in parallel do not
//! pollute each other's counts.

use cache_partition_sharing::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the thread's slot may be gone while it tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialised thread-local `Cell`, which neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const PROGRAMS: usize = 8;
const UNITS: usize = 1024;

/// Seeded non-increasing curves with cliffs and plateaus — the shapes
/// that exercise the DP's tail and saturation clips — one of them with
/// a forbidden prefix.
fn curves(seed: u64) -> Vec<CostCurve> {
    let mut x = seed;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as f64 / (1u64 << 31) as f64
    };
    (0..PROGRAMS)
        .map(|i| {
            let knee = (next() * UNITS as f64) as usize;
            let mut level = 0.2 + 0.8 * next();
            let mut v: Vec<f64> = (0..=UNITS)
                .map(|u| {
                    if u < knee && next() < 0.1 {
                        level *= next();
                    }
                    level
                })
                .collect();
            if i == 3 {
                v[..16].fill(f64::INFINITY);
            }
            CostCurve::from_raw(v)
        })
        .collect()
}

#[test]
fn a_warm_solve_allocates_only_its_result() {
    let mut solver = DpSolver::new();
    let warm_up = curves(1);
    for objective in [Objective::MissRatioSum, Objective::MaxMissRatio] {
        solver.solve(&warm_up, UNITS, &objective).unwrap();
        for seed in 2..6 {
            let costs = curves(seed);
            let (n, result) = allocations(|| solver.solve(&costs, UNITS, &objective));
            assert_eq!(result.unwrap().allocation.len(), PROGRAMS);
            assert_eq!(
                n, 1,
                "{objective:?}, seed {seed}: only the allocation vector"
            );
        }
    }
}

#[test]
fn every_warm_frontier_allocates_the_same() {
    let mut solver = DpSolver::new();
    let warm_up = curves(1);
    for objective in [Objective::MissRatioSum, Objective::MaxMissRatio] {
        solver.solve_frontier(&warm_up, UNITS, &objective).unwrap();
        for seed in 2..6 {
            let costs = curves(seed);
            let (n, frontier) = allocations(|| solver.solve_frontier(&costs, UNITS, &objective));
            assert_eq!(frontier.unwrap().programs(), PROGRAMS);
            // The frontier's cost row, its choice table and one row per
            // program.
            assert_eq!(n, PROGRAMS as u64 + 2, "{objective:?}, seed {seed}");
        }
    }
}
