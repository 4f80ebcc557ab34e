//! The objective-layer refactor's load-bearing promise: the default
//! [`Objective::MissRatioSum`] reproduces the pre-objective code paths
//! **bit-for-bit** — same cost-curve floats, same DP fold, same engine
//! trajectories.
//!
//! Three seams are pinned:
//!
//! 1. curve construction — [`build_cost_curves`] under the default
//!    objective routes through the original
//!    [`CostCurve::from_miss_ratio`] constructor, so every sampled cost
//!    is the identical f64;
//! 2. the DP fold — the solve's cost equals the legacy in-order
//!    `Iterator::sum` over the chosen allocation, to the bit;
//! 3. the engine — a default-constructed [`EngineConfig`] (which never
//!    names an objective) walks the same trajectory as one that spells
//!    out `MissRatioSum`: allocations, predicted-cost bits, realized
//!    counts, and cumulative miss ratio.
//!
//! The singleton-node **cluster** twin of guarantee 3 lives in
//! `crates/cluster/tests/identity.rs`, and the hierarchical-DP twin of
//! guarantee 2 in `crates/cluster/tests/two_level.rs`.

use cache_partition_sharing::core::build_cost_curves;
use cache_partition_sharing::prelude::*;
use proptest::prelude::*;

/// Arbitrary well-formed miss-ratio curves: non-increasing in `[0, 1]`,
/// assorted lengths so unit-to-block clamping gets exercised.
fn arb_mrcs() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec(0u32..1_000, 2..40).prop_map(|drops| {
            let total: u64 = drops.iter().map(|&d| d as u64).sum::<u64>() + 1;
            let mut mr = 1.0;
            let mut out = vec![mr];
            for d in drops {
                mr -= d as f64 / total as f64;
                out.push(mr.max(0.0));
            }
            out
        }),
        1..5,
    )
}

fn arb_shares(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1u32..1_000, n).prop_map(|v| {
        let total: u64 = v.iter().map(|&x| x as u64).sum();
        v.into_iter().map(|x| x as f64 / total as f64).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seam 1: the default objective's curve builder IS the legacy
    /// constructor — every sampled cost has the same bit pattern.
    #[test]
    fn default_cost_curves_are_bitwise_the_legacy_constructor(
        raw in arb_mrcs(),
        units in 1usize..24,
        bpu in 1usize..4,
    ) {
        let shares_strategy_inputs = raw.len();
        let shares: Vec<f64> = (1..=shares_strategy_inputs)
            .map(|i| i as f64 / (shares_strategy_inputs * (shares_strategy_inputs + 1) / 2) as f64)
            .collect();
        let mrcs: Vec<MissRatioCurve> = raw
            .iter()
            .map(|s| MissRatioCurve::from_samples(s.clone()))
            .collect();
        let refs: Vec<&MissRatioCurve> = mrcs.iter().collect();
        let config = CacheConfig::new(units, bpu);
        let built = build_cost_curves(&refs, &config, &shares, &Objective::MissRatioSum, None);
        for (i, curve) in built.iter().enumerate() {
            let legacy = CostCurve::from_miss_ratio(&mrcs[i], &config, shares[i]);
            prop_assert_eq!(curve, &legacy, "tenant {} curve drifted", i);
            for u in 0..=units {
                prop_assert_eq!(
                    curve.at(u).to_bits(),
                    legacy.at(u).to_bits(),
                    "tenant {} at {} units", i, u
                );
            }
        }
    }

    /// Seam 2: under the default objective, the DP's reported cost is
    /// the legacy in-order sum over its own allocation — bit-for-bit —
    /// and the allocation spends the whole cache.
    #[test]
    fn default_dp_cost_is_the_legacy_in_order_sum(
        raw in arb_mrcs(),
        units in 1usize..24,
        shares in arb_shares(4),
    ) {
        let mrcs: Vec<MissRatioCurve> = raw
            .iter()
            .map(|s| MissRatioCurve::from_samples(s.clone()))
            .collect();
        let refs: Vec<&MissRatioCurve> = mrcs.iter().collect();
        let config = CacheConfig::new(units, 1);
        let costs = build_cost_curves(
            &refs,
            &config,
            &shares[..refs.len()],
            &Objective::MissRatioSum,
            None,
        );
        let mut solver = DpSolver::new();
        let result = solver
            .solve(&costs, units, &Objective::MissRatioSum)
            .expect("finite curves solve");
        prop_assert_eq!(result.allocation.iter().sum::<usize>(), units);
        let legacy_sum: f64 = result
            .allocation
            .iter()
            .zip(&costs)
            .map(|(&u, c)| c.at(u))
            .sum();
        prop_assert_eq!(
            result.cost.to_bits(),
            legacy_sum.to_bits(),
            "DP fold {} != legacy sum {}", result.cost, legacy_sum
        );
    }
}

/// Interleaves `tenants` heterogeneous workloads into one stream.
fn cotrace(tenants: usize, len: usize, seed: u64) -> cache_partition_sharing::trace::CoTrace {
    let specs = [
        WorkloadSpec::SequentialLoop { working_set: 24 },
        WorkloadSpec::Zipfian {
            region: 150,
            alpha: 0.8,
        },
        WorkloadSpec::WorkingSetWalk {
            region: 300,
            window: 30,
            dwell: 400,
        },
        WorkloadSpec::SequentialLoop { working_set: 900 },
    ];
    let traces: Vec<Trace> = specs[..tenants]
        .iter()
        .enumerate()
        .map(|(i, s)| s.generate(len, seed + i as u64))
        .collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    interleave_proportional(&refs, &vec![1.0; tenants], len)
}

/// Seam 3, flat engine: a config that never names an objective and one
/// that spells out the default walk identical trajectories.
#[test]
fn default_engine_trajectory_is_identical_to_explicit_miss_ratio_sum() {
    let mut cases = 0;
    for (tenants, epoch, seed) in [(2usize, 1_500usize, 7u64), (3, 2_000, 11), (4, 2_500, 13)] {
        let co = cotrace(tenants, 30_000, seed);
        let config = CacheConfig::new(48, 2);

        let implicit_cfg = EngineConfig::new(tenants, config, epoch).hysteresis(1);
        assert_eq!(
            implicit_cfg.objective.name(),
            "miss-ratio",
            "the default objective must still be miss-ratio-sum"
        );
        let explicit_cfg = EngineConfig::new(tenants, config, epoch)
            .hysteresis(1)
            .objective(Objective::MissRatioSum);

        let journal_of = |config| {
            let sink = cache_partition_sharing::obs::MemorySink::default();
            let mut engine = Engine::new(config);
            engine.set_journal(sink.clone());
            engine.run(co.tenant_accesses());
            let end = engine.finish().expect("a memory sink never fails");
            let journal = sink.journal().expect("the journal validates");
            assert_eq!(end.digest, journal.digest());
            journal
        };
        let a = journal_of(implicit_cfg);
        let b = journal_of(explicit_cfg);

        assert_eq!(a.header.objective, "miss-ratio");
        assert_eq!(a.header, b.header);
        assert_eq!(a.epochs.len(), b.epochs.len());
        assert!(a.epochs.len() >= 10, "want a real trajectory");
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(
                ea.allocation, eb.allocation,
                "epoch {} allocation",
                ea.epoch
            );
            assert_eq!(ea.accesses, eb.accesses, "epoch {} counts", ea.epoch);
            assert_eq!(ea.misses, eb.misses, "epoch {} counts", ea.epoch);
            assert_eq!(
                ea.predicted_cost.map(f64::to_bits),
                eb.predicted_cost.map(f64::to_bits),
                "epoch {} predicted-cost bits",
                ea.epoch
            );
            assert_eq!(ea.repartitioned, eb.repartitioned);
            assert_eq!(ea.units_moved, eb.units_moved);
        }
        assert_eq!(a.summary.accesses, b.summary.accesses);
        assert_eq!(a.summary.misses, b.summary.misses);
        assert_eq!(
            a.cumulative_miss_ratio().to_bits(),
            b.cumulative_miss_ratio().to_bits()
        );
        cases += 1;
    }
    assert_eq!(cases, 3);
}
