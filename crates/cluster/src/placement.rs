//! Initial tenant placement: which node hosts which tenant.
//!
//! Placement only decides *routing* — every node carries the full
//! global tenant-slot set, so moving a tenant later is a routing
//! change, not a schema change. The one initial placement is
//! footprint-balanced greedy (LPT — longest processing time first);
//! the coordinator's placement step refines it online.

/// Footprint-balanced greedy placement (LPT): tenants are assigned in
/// descending footprint order, each to the currently least-loaded
/// node. Returns `placement[t] = node`. Classic 4/3-approximation of
/// the balanced partition, which is all an *initial* guess needs —
/// the placement step owns refinement.
///
/// # Panics
/// Panics if `nodes` is zero or `footprints` is empty.
pub fn place_greedy(footprints: &[u64], nodes: usize) -> Vec<usize> {
    assert!(nodes > 0, "need at least one node");
    assert!(!footprints.is_empty(), "need at least one tenant");
    let mut order: Vec<usize> = (0..footprints.len()).collect();
    // Stable sort + index tiebreak keeps placement deterministic for
    // equal footprints.
    order.sort_by(|&a, &b| footprints[b].cmp(&footprints[a]).then(a.cmp(&b)));
    let mut load = vec![0u64; nodes];
    let mut placement = vec![0usize; footprints.len()];
    for t in order {
        let lightest = (0..nodes).min_by_key(|&n| (load[n], n)).expect("nodes > 0");
        placement[t] = lightest;
        load[lightest] += footprints[t];
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_balances_footprints() {
        // LPT on 4,3,3,2 over two nodes lands at 6 vs 6.
        let placement = place_greedy(&[4, 3, 3, 2], 2);
        let mut load = [0u64; 2];
        for (t, &n) in placement.iter().enumerate() {
            load[n] += [4, 3, 3, 2][t];
        }
        assert_eq!(load, [6, 6], "{placement:?}");
    }

    #[test]
    fn greedy_is_deterministic_under_ties() {
        assert_eq!(
            place_greedy(&[5, 5, 5, 5], 2),
            place_greedy(&[5, 5, 5, 5], 2)
        );
        // One tenant per node when counts match: every node used.
        let p = place_greedy(&[3, 3], 2);
        let mut nodes = p.clone();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1]);
    }
}
