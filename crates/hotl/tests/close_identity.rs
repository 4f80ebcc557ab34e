//! The window close is pinned to the seed's.
//!
//! `WindowedProfiler::end_window` streams each window's miss-ratio curve
//! straight from the live histograms, producing footprint samples only as
//! far as its fill-time walk reads them. It must blend, bit for bit, the
//! curve the seed built by materialising every `fp(0..=n)`: merge the
//! three histograms, one backward excess-sum pass, a walked fill time per
//! size, Eq. 8, the monotone guard, then the EWMA blend. That seed path
//! lives on here, and only here, as the oracle.

use cps_dstruct::DenseHistogram;
use cps_hotl::windowed::{ProfilerMode, WindowedProfiler};
use cps_hotl::ReuseProfile;
use cps_obs::{fnv1a, FNV1A_BASIS};
use cps_trace::interleave::interleave_proportional;
use cps_trace::{Trace, WorkloadSpec};
use proptest::prelude::*;

/// The seed's excess-sum transform, one backward pass:
/// `E(w) = Σ_t max(t − w, 0)·f(t)` for every `w` in `0..=max_value+1`.
fn excess_sums(h: &DenseHistogram) -> Vec<u64> {
    let m = h.buckets().len();
    let mut excess = vec![0u64; m + 1];
    let mut tail = 0u64;
    for w in (0..m).rev() {
        tail += h.count(w + 1);
        excess[w] = excess[w + 1] + tail;
    }
    excess
}

/// The seed's footprint: every `fp(w)`, `w ∈ 0..=n`.
fn footprint(r: &ReuseProfile) -> Vec<f64> {
    let n = r.accesses as usize;
    let m = r.distinct as f64;
    let mut total = DenseHistogram::new();
    for part in [&r.gaps, &r.first_times, &r.last_times_rev] {
        total.merge(part);
    }
    let excess = excess_sums(&total);
    let mut ys = Vec::with_capacity(n + 1);
    let mut prev = 0.0f64;
    for w in 0..=n {
        let absent = excess.get(w).copied().unwrap_or(0) as f64;
        let windows = (n - w + 1) as f64;
        let fp = (m - absent / windows).max(prev);
        ys.push(fp);
        prev = fp;
    }
    ys
}

/// The seed's `MonotoneCurve::eval`.
fn eval(ys: &[f64], x: f64) -> f64 {
    if x <= 0.0 {
        return ys[0];
    }
    let max = (ys.len() - 1) as f64;
    if x >= max {
        return *ys.last().unwrap();
    }
    let i = x.floor() as usize;
    let frac = x - i as f64;
    ys[i] + frac * (ys[i + 1] - ys[i])
}

/// The seed's `MonotoneCurve::inverse_from`: the first sample `≥ y`,
/// walked on from `*cursor`, and where its segment crosses `y`.
fn inverse_from(ys: &[f64], y: f64, cursor: &mut usize) -> Option<f64> {
    if y <= ys[0] {
        return Some(0.0);
    }
    if y > *ys.last().unwrap() {
        return None;
    }
    let mut lo = (*cursor).max(1);
    while ys[lo] < y {
        lo += 1;
    }
    *cursor = lo;
    let (x0, y0, y1) = (lo - 1, ys[lo - 1], ys[lo]);
    if y1 == y0 {
        return Some(lo as f64);
    }
    Some(x0 as f64 + (y - y0) / (y1 - y0))
}

/// The seed's window curve: `MissRatioCurve::from_footprint` of the
/// window's snapshot footprint.
fn window_curve(r: &ReuseProfile, max_blocks: usize) -> Vec<f64> {
    let ys = footprint(r);
    let mut cursor = 0;
    let mut ratios: Vec<f64> = (0..=max_blocks)
        .map(|c| {
            let c = c as f64;
            match inverse_from(&ys, c, &mut cursor) {
                None => 0.0,
                Some(w) => (eval(&ys, w + 1.0) - c).clamp(0.0, 1.0),
            }
        })
        .collect();
    for c in (0..max_blocks).rev() {
        ratios[c] = ratios[c].max(ratios[c + 1]);
    }
    ratios
}

/// The seed's `end_window`, fed the closing window's reuse profile.
struct SeedClose {
    max_blocks: usize,
    decay: f64,
    blended: Option<Vec<f64>>,
}

impl SeedClose {
    fn end_window(&mut self, window: &ReuseProfile) -> Option<Vec<u64>> {
        if window.accesses > 0 {
            let current = window_curve(window, self.max_blocks);
            match &mut self.blended {
                slot @ None => *slot = Some(current),
                Some(prev) => {
                    for (p, &c) in prev.iter_mut().zip(&current) {
                        *p = self.decay * *p + (1.0 - self.decay) * c;
                    }
                }
            }
        }
        self.blended.as_deref().map(bits)
    }
}

fn bits(curve: &[f64]) -> Vec<u64> {
    curve.iter().map(|r| r.to_bits()).collect()
}

/// Closes `windows` in turn on one profiler; every close must blend
/// exactly what the seed close does.
fn check_closes(windows: &[Vec<u64>], max_blocks: usize, decay: f64) -> Result<(), TestCaseError> {
    let mut direct = WindowedProfiler::new(max_blocks, ProfilerMode::Windowed { decay });
    let mut seed = SeedClose {
        max_blocks,
        decay,
        blended: None,
    };
    for (i, window) in windows.iter().enumerate() {
        direct.observe_all(window);
        let expect = seed.end_window(&direct.window_reuse());
        let got = direct.end_window().map(|c| bits(c.samples()));
        prop_assert_eq!(
            &got,
            &expect,
            "window {} of {} accesses, B = {}, decay {}",
            i,
            window.len(),
            max_blocks,
            decay
        );
    }
    Ok(())
}

/// A random window (possibly empty: an idle tenant), a loop (its
/// footprint plateaus at the working set), or a single access.
fn window() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        prop::collection::vec(0u64..60, 0..400),
        (1u64..40, 1usize..400).prop_map(|(ws, len)| (0..len as u64).map(|i| i % ws).collect()),
        any::<u64>().prop_map(|b| vec![b]),
    ]
}

/// `B = 0`, below a window's distinct count, around it, and past every
/// window's length.
fn max_blocks() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), 1usize..8, 8usize..64, 64usize..700]
}

fn decay() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.5), Just(0.9)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_close_blends_the_seed_curve(
        windows in prop::collection::vec(window(), 1..5),
        max_blocks in max_blocks(),
        decay in decay(),
    ) {
        check_closes(&windows, max_blocks, decay)?;
    }

    #[test]
    fn a_reused_profiler_streams_long_short_medium_windows(
        long in prop::collection::vec(0u64..90, 300..900),
        short in prop::collection::vec(0u64..8, 1..10),
        medium in prop::collection::vec(0u64..40, 20..150),
        max_blocks in max_blocks(),
        decay in decay(),
    ) {
        // A long window first, so stale buckets, positions or bits left
        // behind by the close would show in the windows after it.
        check_closes(&[long, short, medium], max_blocks, decay)?;
    }
}

#[test]
fn every_cache_size_class_matches_the_seed() {
    // One window of n = 500 accesses over m = 37 blocks, closed at B = 0,
    // B < m, B = m, B = m + 1, B = n and B > n, at every decay.
    let trace = WorkloadSpec::Zipfian {
        region: 37,
        alpha: 0.6,
    }
    .generate(500, 3);
    let m = trace.distinct();
    assert_eq!((trace.len(), m), (500, 37));
    for max_blocks in [0, m / 2, m, m + 1, 500, 507] {
        for decay in [0.0, 0.5, 0.9] {
            let windows = [trace.blocks.clone(), trace.blocks[..40].to_vec()];
            check_closes(&windows, max_blocks, decay).unwrap();
        }
    }
}

/// FNV-1a over the bits of every curve a seeded four-tenant run closes.
fn mix4_digest() -> u64 {
    // The `serve-ingest` mix at rates 1 : 2 : 1 : 1.5, 200 epochs of 2,000
    // records, 128 blocks, the engine's default decay 0.5.
    const LEN: usize = 400_000;
    let specs = [
        WorkloadSpec::SequentialLoop { working_set: 24 },
        WorkloadSpec::Zipfian {
            region: 150,
            alpha: 0.8,
        },
        WorkloadSpec::WorkingSetWalk {
            region: 300,
            window: 30,
            dwell: 500,
        },
        WorkloadSpec::UniformRandom { region: 400 },
    ];
    let traces: Vec<Trace> = specs
        .iter()
        .zip(42u64..)
        .map(|(spec, seed)| spec.generate(LEN, seed))
        .collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    let co = interleave_proportional(&refs, &[1.0, 2.0, 1.0, 1.5], LEN);
    let mode = ProfilerMode::Windowed { decay: 0.5 };
    let mut profilers = vec![WindowedProfiler::new(128, mode); specs.len()];
    let mut hash = FNV1A_BASIS;
    for epoch in co.accesses.chunks(2_000) {
        for access in epoch {
            profilers[access.program as usize].observe(access.block);
        }
        for p in &mut profilers {
            let curve = p.end_window().expect("every tenant is seen in epoch 0");
            for r in curve.samples() {
                hash = fnv1a(hash, &r.to_bits().to_le_bytes());
            }
        }
    }
    hash
}

#[test]
fn seeded_mix4_closes_to_the_pinned_digest() {
    // Computed with the seed's close, which materialised every fp(w).
    assert_eq!(mix4_digest(), PINNED_MIX4_DIGEST);
}

const PINNED_MIX4_DIGEST: u64 = 0x8258_0d1e_cc83_3133;
