//! Heap traffic of the DP solver and the engine, counted.
//!
//! A `DpSolver` keeps its rows and choice tables between solves, so
//! once it has solved an instance of a given size, a further `solve`
//! allocates only the allocation vector it returns, and every
//! `solve_frontier` only the frontier it returns. A counting global
//! allocator checks both at the paper's online shape (P = 8, C = 1024).
//! It also tracks live bytes (allocated minus freed), which pins the
//! streaming journal: neither an engine nor a cluster coordinator keeps
//! per-epoch state, so a warm run retains the same heap after N epochs
//! as after 4N — and it pins the tenant tables' reclamation, which
//! keeps a tenant that never reuses a block from growing its table.
//! The counts
//! are per thread, so tests running in parallel do not pollute each
//! other's counts.

use cache_partition_sharing::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation that grows the thread's live heap by `grown`
/// bytes.
fn count(grown: i64) {
    // `try_with`: the thread's slots may be gone while it tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    track(grown);
}

/// Moves the thread's live heap by `grown` bytes.
fn track(grown: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + grown));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters are const-initialised thread-local `Cell`s, which
// neither allocate nor re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
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

/// Records per epoch of [`stationary_epoch`].
const EPOCH: usize = 240;
/// Epochs a warm run is measured after (and again after 4N).
const N: usize = 50;

/// Tenant t cycles over 8 + 8t blocks, the tenants in turn: every
/// epoch is the same 240 records.
fn stationary_epoch(tenants: usize) -> Vec<(usize, u64)> {
    (0..EPOCH)
        .map(|i| {
            (
                i % tenants,
                ((i / tenants) % (8 + 8 * (i % tenants))) as u64,
            )
        })
        .collect()
}

/// The live-bytes half: a one-shard engine journaling to a sink keeps
/// the epoch count, the running totals and the digest, nothing per
/// epoch. On a periodic stream every epoch looks alike, so once warm
/// the thread's live heap after N epochs equals its live heap after 4N.
#[test]
fn a_warm_engine_retains_the_same_heap_after_n_and_4n_epochs() {
    let tenants = 4;
    let epoch = stationary_epoch(tenants);
    let config = EngineConfig::new(tenants, CacheConfig::new(32, 2), EPOCH);
    let mut engine = Engine::new(config);
    engine.set_journal(std::io::sink());
    let live = || LIVE.with(Cell::get);
    let mut run = |epochs: usize| {
        for _ in 0..epochs {
            engine.push_batch(&epoch).unwrap();
        }
    };
    run(N);
    let after_n = live();
    run(3 * N);
    let after_4n = live();
    assert_eq!(engine.epochs_completed(), 4 * N);
    assert_eq!(
        after_4n - after_n,
        0,
        "live heap after {N} epochs: {after_n} bytes; after {}: {after_4n}",
        4 * N
    );
    let end = engine.finish().unwrap();
    assert_eq!(end.summary.accesses, (4 * N * EPOCH) as u64);
}

/// A tenant that scans fresh blocks forever, beside one that loops:
/// every window close past the first few finds the scanner's table
/// holding more stale ids than touched and resident ones and reclaims
/// them, so its table, and the thread's live heap, stop growing.
#[test]
fn a_streaming_tenant_retains_the_same_heap_after_n_and_4n_epochs() {
    let config = EngineConfig::new(2, CacheConfig::new(32, 2), EPOCH);
    let mut engine = Engine::new(config);
    engine.set_journal(std::io::sink());
    let live = || LIVE.with(Cell::get);
    let mut epoch = Vec::with_capacity(EPOCH);
    let mut fresh = 0u64;
    let mut run = |epochs: usize| {
        for _ in 0..epochs {
            epoch.clear();
            epoch.extend((0..EPOCH).map(|i| match i % 2 {
                0 => {
                    fresh += 1;
                    (0, fresh)
                }
                _ => (1, (i / 2 % 24) as u64),
            }));
            engine.push_batch(&epoch).unwrap();
        }
    };
    run(N);
    let after_n = live();
    run(3 * N);
    let after_4n = live();
    assert_eq!(engine.epochs_completed(), 4 * N);
    assert_eq!(
        after_4n - after_n,
        0,
        "live heap after {N} epochs: {after_n} bytes; after {}: {after_4n}",
        4 * N
    );
    let end = engine.finish().unwrap();
    assert_eq!(end.summary.accesses, (4 * N * EPOCH) as u64);
}

/// The same for the cluster coordinator: two local nodes, migration
/// off, its journal streamed to a sink. It books each boundary and
/// keeps no epoch list, so its live heap after N epochs equals its
/// live heap after 4N.
#[test]
fn a_warm_coordinator_retains_the_same_heap_after_n_and_4n_epochs() {
    use cache_partition_sharing::cluster::{ClusterConfig, ClusterNode, Coordinator};
    let tenants = 4;
    let epoch = stationary_epoch(tenants);
    let nodes = (0..2)
        .map(|_| ClusterNode::local(EngineConfig::new(tenants, CacheConfig::new(32, 2), EPOCH)))
        .collect();
    let config = ClusterConfig::new(32, 2, EPOCH);
    let mut coordinator = Coordinator::new(config, nodes, vec![0, 1, 0, 1]).unwrap();
    coordinator.set_journal(std::io::sink());
    let live = || LIVE.with(Cell::get);
    let mut run = |epochs: usize| {
        for _ in 0..epochs {
            coordinator.run(epoch.iter().copied());
        }
    };
    run(N);
    let after_n = live();
    run(3 * N);
    let after_4n = live();
    assert_eq!(coordinator.epochs_completed(), 4 * N);
    assert_eq!(
        after_4n - after_n,
        0,
        "live heap after {N} epochs: {after_n} bytes; after {}: {after_4n}",
        4 * N
    );
    let report = coordinator.finish().unwrap();
    assert_eq!(report.run.summary.accesses, (4 * N * EPOCH) as u64);
}
