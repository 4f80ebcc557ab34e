//! Property-based tests for the locality theory.

use cps_hotl::{CoRunModel, Footprint, MissRatioCurve, ReuseProfile, SoloProfile};
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..30, 1..400)
}

proptest! {
    #[test]
    fn footprint_identities(trace in trace_strategy()) {
        let fp = Footprint::from_trace(&trace);
        let n = trace.len();
        let m = {
            let mut s: Vec<u64> = trace.clone();
            s.sort_unstable();
            s.dedup();
            s.len() as f64
        };
        prop_assert!(fp.at(0).abs() < 1e-9, "fp(0) = {}", fp.at(0));
        prop_assert!((fp.at(1) - 1.0).abs() < 1e-9, "fp(1) = {}", fp.at(1));
        prop_assert!((fp.at(n) - m).abs() < 1e-6, "fp(n) = {} vs m = {m}", fp.at(n));
        prop_assert!(fp.curve().is_non_decreasing());
        // Growth is at most one block per access.
        for w in 0..n {
            prop_assert!(fp.at(w + 1) - fp.at(w) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn footprint_matches_bruteforce_spot_checks(trace in prop::collection::vec(0u64..12, 1..80), w in 0usize..80) {
        let w = w.min(trace.len());
        let fp = Footprint::from_trace(&trace);
        let oracle = Footprint::brute_force(&trace, w);
        prop_assert!((fp.at(w) - oracle).abs() < 1e-9, "fp({w}) = {} vs {oracle}", fp.at(w));
    }

    #[test]
    fn miss_ratio_within_bounds_everywhere(trace in trace_strategy()) {
        let fp = Footprint::from_trace(&trace);
        for c in 0..40 {
            let mr = fp.miss_ratio(c as f64);
            prop_assert!((0.0..=1.0).contains(&mr), "mr({c}) = {mr}");
        }
    }

    #[test]
    fn walked_miss_ratios_equal_a_bisection_per_size(
        trace in trace_strategy(),
        working_set in 1u64..25,
        len in 1usize..300,
        max_blocks in 0usize..70,
    ) {
        // One monotone walk of the footprint must give, bit for bit,
        // what a fill-time bisection per cache size gives: on a random
        // trace (down to a single access) and on a loop, whose
        // footprint plateaus at its working set. Sizes beyond the
        // distinct count (at most 30 here) and `max_blocks = 0` are in
        // range.
        let looped: Vec<u64> = (0..len as u64).map(|i| i % working_set).collect();
        for trace in [trace, looped] {
            let fp = Footprint::from_trace(&trace);
            let bisected: Vec<u64> = (0..=max_blocks)
                .map(|c| fp.miss_ratio(c as f64).to_bits())
                .collect();
            let walked: Vec<u64> = fp.miss_ratios(max_blocks).iter().map(|r| r.to_bits()).collect();
            prop_assert_eq!(&walked, &bisected);
            // ...and the sampled curve is that walk plus the right-to-left
            // monotone guard.
            let mut guarded: Vec<f64> = bisected.iter().map(|&b| f64::from_bits(b)).collect();
            for c in (0..max_blocks).rev() {
                guarded[c] = guarded[c].max(guarded[c + 1]);
            }
            let mrc = MissRatioCurve::from_footprint(&fp, max_blocks);
            prop_assert_eq!(
                mrc.samples().iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                guarded.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn a_reused_profiler_closes_windows_like_a_fresh_one(
        long in prop::collection::vec(0u64..60, 100..400),
        short in prop::collection::vec(0u64..8, 1..20),
        medium in prop::collection::vec(0u64..30, 20..150),
    ) {
        // `end_window` clears the window's tables in place. Over three
        // consecutive windows — a long one first, so stale buckets or
        // positions would show — the reused profiler's open window and
        // its closed curve (decay 0: the window's own curve) must equal
        // a fresh profiler's.
        use cps_hotl::windowed::{ProfilerMode, WindowedProfiler};
        let mode = ProfilerMode::Windowed { decay: 0.0 };
        let mut reused = WindowedProfiler::new(48, mode);
        for window in [&long, &short, &medium] {
            let mut fresh = WindowedProfiler::new(48, mode);
            reused.observe_all(window);
            fresh.observe_all(window);
            let (a, b) = (reused.window_reuse(), fresh.window_reuse());
            prop_assert_eq!(a.gaps.buckets(), b.gaps.buckets());
            prop_assert_eq!(a.first_times.buckets(), b.first_times.buckets());
            prop_assert_eq!(a.last_times_rev.buckets(), b.last_times_rev.buckets());
            let (a, b) = (reused.end_window().unwrap(), fresh.end_window().unwrap());
            prop_assert_eq!(
                a.samples().iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                b.samples().iter().map(|r| r.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn fill_time_round_trips(trace in trace_strategy(), q in 0.0f64..1.0) {
        let fp = Footprint::from_trace(&trace);
        let m = fp.at(trace.len());
        let target = q * m;
        if let Some(w) = fp.fill_time(target) {
            prop_assert!((fp.eval(w) - target).abs() < 1e-6);
        } else {
            prop_assert!(target > m);
        }
    }

    #[test]
    fn reuse_profile_identity(trace in trace_strategy()) {
        // Per-datum identity: Σ gaps + first + reversed-last = n + 1,
        // so totals must equal m(n + 1).
        let r = ReuseProfile::from_trace(&trace);
        let weighted = |h: &cps_dstruct::DenseHistogram| -> u64 {
            h.buckets().iter().enumerate().map(|(v, c)| v as u64 * c).sum()
        };
        let total = weighted(&r.gaps) + weighted(&r.first_times) + weighted(&r.last_times_rev);
        prop_assert_eq!(total, r.distinct * (r.accesses + 1));
        prop_assert_eq!(r.gaps.total(), r.accesses - r.distinct);
    }

    #[test]
    fn sampled_mrc_is_valid_curve(trace in prop::collection::vec(0u64..50, 50..400), burst in 10usize..60, ratio in 1usize..6) {
        let cfg = cps_hotl::BurstConfig::with_ratio(burst, ratio);
        let fp = cps_hotl::sample_footprint(&trace, cfg);
        prop_assert!(fp.curve().is_non_decreasing());
        prop_assert!(fp.at(0).abs() < 1e-9);
        let mrc = MissRatioCurve::from_footprint(&fp, 64);
        prop_assert!(mrc.to_curve().is_non_increasing());
        prop_assert!(mrc.samples().iter().all(|r| (0.0..=1.0).contains(r)));
    }

    #[test]
    fn composition_weighted_identity(
        wsa in 5u64..40, wsb in 5u64..40,
        ra in 1u32..5, rb in 1u32..5,
        cache in 10usize..60,
    ) {
        // Group miss ratio == share-weighted member miss ratios, for any
        // pair of loop programs and cache size.
        let ta: Vec<u64> = (0..4000).map(|i| i % wsa).collect();
        let tb: Vec<u64> = (0..4000).map(|i| i % wsb).collect();
        let a = SoloProfile::from_trace("a", &ta, ra as f64, 64);
        let b = SoloProfile::from_trace("b", &tb, rb as f64, 64);
        let model = CoRunModel::new(vec![&a, &b]);
        let members = model.member_shared_miss_ratios(cache as f64);
        let weighted: f64 = members.iter().zip(model.shares()).map(|(m, s)| m * s).sum();
        let group = model.shared_group_miss_ratio(cache as f64);
        prop_assert!((weighted - group).abs() < 1e-6, "weighted {weighted} vs group {group}");
    }

    #[test]
    fn natural_partition_sums_to_cache_or_footprint(
        wsa in 5u64..40, wsb in 5u64..40, cache in 10usize..100,
    ) {
        let ta: Vec<u64> = (0..4000).map(|i| i % wsa).collect();
        let tb: Vec<u64> = (0..4000).map(|i| (i * 7) % wsb).collect();
        let a = SoloProfile::from_trace("a", &ta, 1.0, 128);
        let b = SoloProfile::from_trace("b", &tb, 1.0, 128);
        let model = CoRunModel::new(vec![&a, &b]);
        let np = model.natural_partition(cache as f64);
        let total: f64 = np.occupancy.iter().sum();
        match np.window {
            Some(_) => prop_assert!((total - cache as f64).abs() < 1e-3,
                "filled cache: occupancies sum to {total} vs {cache}"),
            None => prop_assert!(total <= cache as f64 + 1e-6,
                "unfilled cache: {total} > {cache}"),
        }
        for occ in &np.occupancy {
            prop_assert!(*occ >= -1e-9);
        }
    }

    #[test]
    fn persist_reader_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        // Arbitrary input must produce Err, never a panic or a bogus Ok
        // (an Ok would require a valid magic + version + structure).
        if let Ok(p) = cps_hotl::persist::read_profile(&mut bytes.as_slice()) {
            // Astronomically unlikely, but if it parses it must be
            // structurally sound.
            prop_assert!(p.mrc.samples().iter().all(|r| (0.0..=1.0).contains(r)));
        }
    }

    #[test]
    fn persist_reader_never_panics_on_corrupted_valid_file(
        trace in prop::collection::vec(0u64..20, 10..100),
        flip in 0usize..200,
        value in any::<u8>(),
    ) {
        let p = SoloProfile::from_trace("c", &trace, 1.0, 32);
        let mut buf = Vec::new();
        cps_hotl::persist::write_profile(&mut buf, &p).unwrap();
        let idx = flip % buf.len();
        buf[idx] = value;
        // Single-byte corruption anywhere must yield Err or a
        // structurally valid Ok — never a panic (the reader validates
        // curves before handing them to the panicking constructors).
        if let Ok(q) = cps_hotl::persist::read_profile(&mut buf.as_slice()) {
            prop_assert!(q.mrc.samples().iter().all(|r| (0.0..=1.0).contains(r)));
            prop_assert!(q.footprint.curve().is_non_decreasing());
        }
    }

    #[test]
    fn windowed_snapshot_equals_batch_profile_per_tenant(
        blocks_a in prop::collection::vec(0u64..25, 2..300),
        blocks_b in prop::collection::vec(0u64..40, 2..300),
        rate_a in 1u32..5,
        rate_b in 1u32..5,
        cut_frac in 0.1f64..0.9,
    ) {
        // An interleaved two-tenant stream demultiplexed into per-tenant
        // WindowedProfilers must reproduce, tenant by tenant, the batch
        // ReuseProfile of that tenant's subsequence — both inside the
        // first window and inside the window after a boundary.
        use cps_hotl::windowed::{ProfilerMode, WindowedProfiler};
        use cps_trace::interleave::interleave_proportional;
        use cps_trace::Trace;

        let ta = Trace::new(blocks_a);
        let tb = Trace::new(blocks_b);
        let total = ta.len() + tb.len();
        let co = interleave_proportional(&[&ta, &tb], &[rate_a as f64, rate_b as f64], total);
        let cut = ((co.len() as f64 * cut_frac) as usize).max(1).min(co.len());

        let mut profs = [
            WindowedProfiler::new(32, ProfilerMode::Windowed { decay: 0.5 }),
            WindowedProfiler::new(32, ProfilerMode::Windowed { decay: 0.5 }),
        ];
        let mut subseq: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        let assert_snapshots_match = |profs: &[WindowedProfiler; 2], subseq: &[Vec<u64>; 2], at: &str|
            -> Result<(), TestCaseError> {
            for t in 0..2 {
                let snap = profs[t].window_reuse();
                let batch = ReuseProfile::from_trace(&subseq[t]);
                prop_assert_eq!(snap.accesses, batch.accesses, "{} tenant {}", at, t);
                prop_assert_eq!(snap.distinct, batch.distinct, "{} tenant {}", at, t);
                prop_assert_eq!(snap.gaps.buckets(), batch.gaps.buckets(), "{} tenant {}", at, t);
                prop_assert_eq!(
                    snap.first_times.buckets(), batch.first_times.buckets(),
                    "{} tenant {}", at, t
                );
                prop_assert_eq!(
                    snap.last_times_rev.buckets(), batch.last_times_rev.buckets(),
                    "{} tenant {}", at, t
                );
            }
            Ok(())
        };

        for acc in &co.accesses[..cut] {
            profs[acc.program as usize].observe(acc.block);
            subseq[acc.program as usize].push(acc.block);
        }
        assert_snapshots_match(&profs, &subseq, "window 1")?;

        // Cross a window boundary: windowed mode starts a fresh exact window.
        for p in &mut profs {
            p.end_window();
        }
        subseq = [Vec::new(), Vec::new()];
        for acc in &co.accesses[cut..] {
            profs[acc.program as usize].observe(acc.block);
            subseq[acc.program as usize].push(acc.block);
        }
        assert_snapshots_match(&profs, &subseq, "window 2")?;
    }

    #[test]
    fn persistence_round_trip(trace in prop::collection::vec(0u64..40, 10..300), rate in 0.1f64..4.0) {
        let p = SoloProfile::from_trace("prop", &trace, rate, 48);
        let mut buf = Vec::new();
        cps_hotl::persist::write_profile(&mut buf, &p).unwrap();
        let q = cps_hotl::persist::read_profile(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(q.accesses, p.accesses);
        prop_assert_eq!(q.mrc.samples(), p.mrc.samples());
        prop_assert_eq!(q.footprint.curve().samples(), p.footprint.curve().samples());
    }
}
