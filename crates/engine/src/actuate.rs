//! The pipeline's **actuate** stage: applying allocations to a live cache.
//!
//! The [`HysteresisActuator`] owns the engine's one serving cache: one
//! tenant table per tenant, each a private LRU partition sharing its
//! block table with the tenant's profile window (see `lanes`). It
//! carries each tenant's accesses during an epoch — lent out table by
//! table, so a sharded engine's workers serve disjoint tenants of the
//! same cache — hands the epoch's counts to the solver and the windows
//! to the profile stage at the boundary, and decides whether a proposed
//! allocation is worth applying: it suppresses moves smaller than the
//! configured hysteresis threshold; repartitioning is *graceful*
//! (growing partitions gain headroom, shrinking ones evict only their
//! LRU tail), so hot data survives reconfiguration.
//!
//! The apply decision is a pure function of `(current, target,
//! threshold)` — see [`units_moved`] — so it never depends on what the
//! cache holds.

use crate::lanes::TenantTable;
use crate::EngineConfig;
use cps_cachesim::AccessCounts;
use cps_core::CacheConfig;
use cps_hotl::windowed::{ProfilerMode, WindowedProfiler};

/// Units that would change hands between two allocations: the larger
/// of total growth and total shrinkage across tenants.
///
/// When both allocations partition the same capacity (the in-engine
/// case — `EpochCore` asserts every solver output does), growth equals
/// shrinkage and this is exactly half the L1 distance: every unit
/// leaving one tenant arrives at another. Unequal totals are
/// legitimate under *budgeted* actuation — a cluster coordinator may
/// push a node an allocation using less than its physical capacity,
/// and the budget itself can change between epochs — and there the
/// max counts units retired to or drawn from the node's idle slack as
/// movement too.
///
/// # Panics
/// Panics if the allocations differ in length.
pub fn units_moved(old: &[usize], new: &[usize]) -> usize {
    assert_eq!(old.len(), new.len(), "allocations must align");
    let mut grown = 0usize;
    let mut shrunk = 0usize;
    for (&o, &n) in old.iter().zip(new) {
        if n > o {
            grown += n - o;
        } else {
            shrunk += o - n;
        }
    }
    grown.max(shrunk)
}

/// What the actuator did with a proposed allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Actuation {
    /// Whether the proposal was applied to the cache.
    pub repartitioned: bool,
    /// Units the proposal would have moved (recorded even when the
    /// move was suppressed by hysteresis).
    pub units_moved: usize,
}

impl Actuation {
    /// Nothing proposed, nothing applied — a boundary that was not
    /// actuated (skipped solve, partial final epoch, abandoned
    /// external boundary).
    pub const NONE: Actuation = Actuation {
        repartitioned: false,
        units_moved: 0,
    };
}

/// The actuate stage: the tenants' live tables plus a minimum-move
/// threshold.
#[derive(Clone, Debug)]
pub struct HysteresisActuator {
    tables: Vec<TenantTable>,
    geometry: CacheConfig,
    min_units: usize,
    current_units: Vec<usize>,
}

impl HysteresisActuator {
    /// Builds the stage from the engine's knobs, starting every tenant
    /// at an equal split with an empty profile window.
    pub fn new(config: &EngineConfig) -> Self {
        let current_units = config.cache.equal_split(config.tenants);
        let mode = ProfilerMode::Windowed {
            decay: config.decay,
        };
        let profiler = WindowedProfiler::new(config.cache.blocks(), mode);
        HysteresisActuator {
            tables: current_units
                .iter()
                .map(|&u| TenantTable::new(profiler.clone(), config.cache.to_blocks(u)))
                .collect(),
            geometry: config.cache,
            min_units: config.min_repartition_units,
            current_units,
        }
    }

    /// Per-tenant partition capacities in blocks (diagnostic).
    pub fn capacities(&self) -> Vec<usize> {
        self.tables.iter().map(TenantTable::capacity).collect()
    }

    /// Allocation (units) currently in force.
    pub fn allocation_units(&self) -> &[usize] {
        &self.current_units
    }

    /// Every tenant's table, in tenant order.
    pub(crate) fn tables(&self) -> &[TenantTable] {
        &self.tables
    }

    /// Every tenant's table, each borrowable apart from the others.
    pub(crate) fn tables_mut(&mut self) -> &mut [TenantTable] {
        &mut self.tables
    }

    /// Returns the per-tenant counts accumulated since the last call
    /// and resets them, leaving cache contents warm.
    pub fn take_counts(&mut self) -> Vec<AccessCounts> {
        self.tables
            .iter_mut()
            .map(TenantTable::take_counts)
            .collect()
    }

    /// Considers a proposed allocation, applying it if it moves at
    /// least the hysteresis threshold.
    pub fn apply(&mut self, target_units: &[usize]) -> Actuation {
        let moved = units_moved(&self.current_units, target_units);
        if moved >= self.min_units && moved > 0 {
            for (table, &u) in self.tables.iter_mut().zip(target_units) {
                table.resize(self.geometry.to_blocks(u));
            }
            self.current_units = target_units.to_vec();
            Actuation {
                repartitioned: true,
                units_moved: moved,
            }
        } else {
            Actuation {
                repartitioned: false,
                units_moved: moved,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_trace::Block;

    fn config(units: usize, min: usize) -> EngineConfig {
        EngineConfig::new(2, CacheConfig::new(units, 2), 100).hysteresis(min)
    }

    /// Serves `blocks` as `tenant`'s accesses; returns the hits.
    fn serve(a: &mut HysteresisActuator, tenant: usize, blocks: &[Block]) -> u64 {
        let hits = |a: &HysteresisActuator| {
            let counts = a.tables()[tenant].clone().take_counts();
            counts.accesses - counts.misses
        };
        let before = hits(a);
        let records: Vec<_> = blocks.iter().map(|&b| (tenant, b)).collect();
        let mut slots: Vec<_> = a.tables_mut().iter_mut().map(Some).collect();
        let mut lanes = vec![Vec::new(); slots.len()];
        crate::lanes::serve_segment(&records, &mut lanes, &mut slots, None);
        hits(a) - before
    }

    #[test]
    fn moved_is_half_l1_distance() {
        assert_eq!(units_moved(&[8, 8], &[8, 8]), 0);
        assert_eq!(units_moved(&[8, 8], &[10, 6]), 2);
        assert_eq!(units_moved(&[4, 8, 4], &[8, 4, 4]), 4);
    }

    #[test]
    fn moved_handles_budget_changes_across_unequal_totals() {
        // Budgeted (sub-capacity) actuation can change the total in
        // play; movement is the larger of growth and shrinkage.
        assert_eq!(units_moved(&[8, 8], &[8, 4]), 4); // pure shrink
        assert_eq!(units_moved(&[4, 4], &[8, 6]), 6); // pure growth
        assert_eq!(units_moved(&[8, 0], &[0, 10]), 10); // handoff + growth
    }

    #[test]
    fn apply_clears_threshold_and_scales_to_blocks() {
        let mut a = HysteresisActuator::new(&config(16, 2));
        assert_eq!(a.allocation_units(), &[8, 8]);
        let act = a.apply(&[11, 5]);
        assert_eq!(
            act,
            Actuation {
                repartitioned: true,
                units_moved: 3
            }
        );
        assert_eq!(a.allocation_units(), &[11, 5]);
        // 2 blocks per unit.
        assert_eq!(a.capacities(), vec![22, 10]);
    }

    #[test]
    fn small_moves_are_suppressed_but_reported() {
        let mut a = HysteresisActuator::new(&config(16, 4));
        let act = a.apply(&[10, 6]);
        assert_eq!(
            act,
            Actuation {
                repartitioned: false,
                units_moved: 2
            }
        );
        assert_eq!(a.allocation_units(), &[8, 8], "cache untouched");
        assert_eq!(a.capacities(), vec![16, 16]);
    }

    #[test]
    fn counts_flow_through_take() {
        let mut a = HysteresisActuator::new(&config(4, 1));
        serve(&mut a, 0, &[1, 1]);
        serve(&mut a, 1, &[9]);
        let c = a.take_counts();
        assert_eq!(c[0].accesses, 2);
        assert_eq!(c[0].misses, 1);
        assert_eq!(c[1].accesses, 1);
        assert_eq!(a.take_counts()[0].accesses, 0, "taking resets");
        assert_eq!(serve(&mut a, 0, &[1]), 1, "contents stay warm");
    }

    #[test]
    fn verdicts_ignore_cache_contents() {
        // Same knobs + same proposal => same decision, whatever the
        // cache holds.
        let cfg = config(16, 3);
        let mut a = HysteresisActuator::new(&cfg);
        let mut b = HysteresisActuator::new(&cfg);
        for i in 0..50u64 {
            serve(&mut a, (i % 2) as usize, &[i]);
        }
        serve(&mut b, 0, &[999]); // very different contents
        for target in [[8usize, 8], [9, 7], [12, 4], [11, 5]] {
            assert_eq!(a.apply(&target), b.apply(&target));
            assert_eq!(a.allocation_units(), b.allocation_units());
        }
    }
}
