//! The pipeline's **profile** stage: per-tenant locality monitoring.
//!
//! One `cps_hotl` [`WindowedProfiler`] per tenant — in the tenant's
//! table, where it shares its block table with the tenant's partition
//! (see `lanes`) — watches that tenant's access subsequence (exact
//! within the epoch, EWMA-blended across epochs) and, at each epoch
//! boundary, yields a miss-ratio curve for the solver. This module adds the one thing the engine needs on top:
//! a snapshot of the still-open windows for the natural baseline.

use cps_cachesim::AccessCounts;
use cps_hotl::windowed::WindowedProfiler;
use cps_hotl::{Footprint, MissRatioCurve, SoloProfile};

/// Builds per-tenant [`SoloProfile`]s from the *current* epoch windows —
/// the natural-baseline inputs, which must be captured before
/// `end_window` folds and resets the windows. Access rates come from
/// the realized per-tenant counts (floored at 1 so an idle tenant still
/// has a well-defined rate).
pub fn window_solo_profiles<'a>(
    profilers: impl IntoIterator<Item = &'a WindowedProfiler>,
    per_tenant: &[AccessCounts],
    blocks: usize,
) -> Vec<SoloProfile> {
    profilers
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let reuse = p.window_reuse();
            let footprint = Footprint::from_reuse(&reuse);
            let mrc = MissRatioCurve::from_footprint(&footprint, blocks);
            SoloProfile {
                name: format!("tenant{i}"),
                access_rate: (per_tenant[i].accesses.max(1)) as f64,
                accesses: reuse.accesses,
                footprint,
                mrc,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_hotl::windowed::ProfilerMode;

    #[test]
    fn solo_profiles_snapshot_the_open_window() {
        let mut profilers =
            vec![WindowedProfiler::new(8, ProfilerMode::Windowed { decay: 0.5 }); 2];
        for b in 0..6u64 {
            profilers[0].observe(b % 3);
        }
        let counts = vec![
            AccessCounts {
                accesses: 6,
                misses: 3,
            },
            AccessCounts::default(),
        ];
        let solos = window_solo_profiles(&profilers, &counts, 8);
        assert_eq!(solos[0].name, "tenant0");
        assert_eq!(solos[0].accesses, 6);
        assert_eq!(solos[0].access_rate, 6.0);
        // Idle tenant: empty window, rate floored at 1.
        assert_eq!(solos[1].accesses, 0);
        assert_eq!(solos[1].access_rate, 1.0);
    }
}
