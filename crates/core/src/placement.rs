//! Balanced assignment: LPT (longest processing time first) of
//! weighted items onto bins.
//!
//! One greedy rule serves every layer that spreads load: the cluster's
//! initial tenant placement (weights are footprints, bins are nodes)
//! and the sharded engine's per-epoch worker assignment (weights are
//! the epoch's per-tenant record counts, bins are worker threads).

/// LPT placement: items are assigned in descending weight order, each
/// to the currently least-loaded bin (lowest index on ties). Returns
/// `placement[item] = bin`. The classic 4/3-approximation of the
/// balanced partition; deterministic, because equal weights keep index
/// order.
///
/// # Panics
/// Panics if `bins` is zero or `weights` is empty.
pub fn place_greedy(weights: &[u64], bins: usize) -> Vec<usize> {
    assert!(bins > 0, "need at least one bin");
    assert!(!weights.is_empty(), "need at least one item");
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
    let mut load = vec![0u64; bins];
    let mut placement = vec![0usize; weights.len()];
    for item in order {
        let lightest = (0..bins).min_by_key(|&b| (load[b], b)).expect("bins > 0");
        placement[item] = lightest;
        load[lightest] += weights[item];
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
