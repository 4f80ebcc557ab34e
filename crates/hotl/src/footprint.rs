//! The average footprint `fp(w)` in linear time (paper Eq. 5).
//!
//! `fp(w)` is the mean number of distinct blocks over *all* `n − w + 1`
//! windows of length `w`. Computing it by sliding a window is `O(n·w)`;
//! Xiang et al.'s closed form turns it into counting, for every datum,
//! the windows the datum is *absent* from. A datum is absent from a
//! window exactly when the window falls inside one of its access gaps or
//! outside its first/last access:
//!
//! ```text
//! fp(w) = m − [ Σ_pairs max(gap − w, 0)
//!             + Σ_k max(f_k − w, 0)
//!             + Σ_k max(l̄_k − w, 0) ] / (n − w + 1)
//! ```
//!
//! with `gap = j − i` per reuse pair, `f_k` the 1-indexed first access of
//! datum `k`, and `l̄_k = n − l_k + 1` its reversed last access. The three
//! excess sums are linear in the histogram counts, so they are one excess
//! sum of the bucket-wise total, and [`ExcessSums`] runs it forward: each
//! `fp(w)` costs one count read and `O(1)` work. The entire curve costs
//! `O(n)`, and a reader that needs `fp` only up to some `w` — the window
//! close, which stops at the largest cache size's fill time — stops there.

use crate::reuse::ReuseProfile;
use cps_dstruct::{DenseHistogram, ExcessSums, MonotoneCurve};
use cps_trace::Block;

/// The average footprint curve of one trace.
///
/// # Examples
///
/// A cyclic loop over `k` blocks has `fp(w) ≈ min(w, k)` and a cliff
/// miss-ratio curve at `k`:
///
/// ```
/// use cps_hotl::Footprint;
/// let trace: Vec<u64> = (0..5_000).map(|i| i % 40).collect();
/// let fp = Footprint::from_trace(&trace);
/// assert!((fp.at(20) - 20.0).abs() < 0.5);
/// assert!((fp.at(200) - 40.0).abs() < 0.5);
/// assert!(fp.miss_ratio(30.0) > 0.9); // thrashes below the working set
/// assert!(fp.miss_ratio(45.0) < 0.1); // fits above it
/// ```
#[derive(Clone, Debug)]
pub struct Footprint {
    /// `fp[w]` for `w ∈ 0..=n`, monotone non-decreasing,
    /// `fp[0] = 0`, `fp[n] = m`.
    curve: MonotoneCurve,
    /// Trace length `n`.
    pub accesses: u64,
    /// Distinct blocks `m`.
    pub distinct: u64,
}

impl Footprint {
    /// Builds the footprint curve from a reuse profile in `O(n)`.
    pub fn from_reuse(profile: &ReuseProfile) -> Self {
        Self::from_histograms(
            profile.accesses,
            profile.distinct,
            [&profile.gaps, &profile.first_times, &profile.last_times_rev],
        )
    }

    /// [`from_reuse`](Self::from_reuse) over borrowed histograms (gaps,
    /// first times, reversed last times — the order does not matter),
    /// read in place: Eq. 5 at every `w ∈ 0..=n`, produced forward from
    /// their bucket-wise total with no scratch buffer.
    pub fn from_histograms(accesses: u64, distinct: u64, parts: [&DenseHistogram; 3]) -> Self {
        let sums = parts
            .iter()
            .map(|p| p.excess_start())
            .fold(ExcessSums::default(), |a, b| a + b);
        let count = |t| parts.iter().map(|p| p.count(t)).sum();
        let ys = FootprintSamples::new(accesses as usize, distinct, sums, count).collect();
        Footprint {
            curve: MonotoneCurve::from_samples(ys),
            accesses,
            distinct,
        }
    }

    /// Convenience: profile + footprint in one call.
    pub fn from_trace(trace: &[Block]) -> Self {
        Self::from_reuse(&ReuseProfile::from_trace(trace))
    }

    /// Assembles a footprint from an existing curve and its trace
    /// statistics — used by sampled profiling and profile persistence.
    ///
    /// # Panics
    /// Panics if the curve is not non-decreasing or does not start at 0.
    pub fn from_parts(curve: MonotoneCurve, accesses: u64, distinct: u64) -> Self {
        assert!(curve.is_non_decreasing(), "footprint must be monotone");
        assert!(curve.at(0).abs() < 1e-9, "footprint must start at 0");
        Footprint {
            curve,
            accesses,
            distinct,
        }
    }

    /// `fp(w)` at real-valued window length `w` (linear interpolation,
    /// clamped to `[0, n]`).
    pub fn eval(&self, w: f64) -> f64 {
        self.curve.eval(w)
    }

    /// `fp(w)` at integer `w` (clamped).
    pub fn at(&self, w: usize) -> f64 {
        self.curve.at(w)
    }

    /// The underlying monotone curve.
    pub fn curve(&self) -> &MonotoneCurve {
        &self.curve
    }

    /// The *fill time* `ft(c) = fp⁻¹(c)` (paper Eq. 6): the expected
    /// window length needed to touch `c` distinct blocks. `None` when
    /// `c` exceeds the total footprint `m`.
    pub fn fill_time(&self, c: f64) -> Option<f64> {
        self.curve.inverse(c)
    }

    /// The *inter-miss time* at cache size `c` (paper Eq. 7):
    /// `im(c) = ft(c+1) − ft(c)`. `None` when a cache of `c + 1` blocks
    /// can never be filled (`c + 1 > m`) — the program stops missing.
    pub fn inter_miss_time(&self, c: f64) -> Option<f64> {
        let ft_c = self.fill_time(c)?;
        let ft_c1 = self.fill_time(c + 1.0)?;
        Some(ft_c1 - ft_c)
    }

    /// Miss ratio at cache size `c` blocks (paper Eq. 8/10):
    /// `mr(c) = fp(w + 1) − c` where `fp(w) = c`; equivalently
    /// `1 / im(c)`. Programs whose footprint fits (`c ≥ m`) return 0.
    pub fn miss_ratio(&self, c: f64) -> f64 {
        match self.fill_time(c) {
            None => 0.0,
            Some(w) => (self.eval(w + 1.0) - c).clamp(0.0, 1.0),
        }
    }

    /// [`miss_ratio`](Self::miss_ratio) at every integer size
    /// `0..=max_blocks`, in one monotone walk of the samples instead of
    /// a bisection per size. Bit-identical to the per-size calls on a
    /// footprint whose samples never decrease (every
    /// [`from_reuse`](Self::from_reuse) one).
    pub fn miss_ratios(&self, max_blocks: usize) -> Vec<f64> {
        let ys = self.curve.samples();
        let mut out = vec![0.0; max_blocks + 1];
        miss_ratio_walk(ys.iter().copied(), ys.len() - 1, ys[ys.len() - 1], &mut out);
        out
    }

    /// Extends the curve past its sampled range by linear extrapolation
    /// of the tail slope, until the footprint reaches `target_value` or
    /// the curve reaches `max_len` samples.
    ///
    /// Burst-sampled footprints are truncated at one burst length; for
    /// window lengths beyond that the steady tail slope (the program's
    /// end-of-burst miss rate) is the natural estimate. Without
    /// extrapolation, a cache larger than the observed footprint looks
    /// like a perfect fit (miss ratio 0), which badly misleads the
    /// optimizer — see the `ablation_sampling` experiment.
    ///
    /// The tail slope is measured over the last 10% of the curve
    /// (at least 2 samples). A flat tail (slope ≤ 0) leaves the curve
    /// unchanged.
    pub fn extrapolate_to(&self, target_value: f64, max_len: usize) -> Footprint {
        let ys = self.curve.samples();
        let n = ys.len();
        let last = ys[n - 1];
        if last >= target_value || n < 2 {
            return self.clone();
        }
        let window = (n / 10).max(2).min(n);
        let slope = (ys[n - 1] - ys[n - window]) / (window - 1) as f64;
        if slope <= 1e-12 {
            return self.clone();
        }
        let needed = ((target_value - last) / slope).ceil() as usize;
        let extra = needed.min(max_len.saturating_sub(n));
        let mut extended = ys.to_vec();
        extended.reserve(extra);
        for i in 1..=extra {
            extended.push(last + slope * i as f64);
        }
        Footprint {
            curve: MonotoneCurve::from_samples(extended),
            accesses: self.accesses,
            distinct: self.distinct.max(target_value.ceil() as u64),
        }
    }

    /// Brute-force `fp(w)` by enumerating all windows — the `O(n·w)`
    /// oracle used by tests to validate the closed form.
    pub fn brute_force(trace: &[Block], w: usize) -> f64 {
        let n = trace.len();
        if w == 0 || n == 0 || w > n {
            if w == 0 {
                return 0.0;
            }
            // Window longer than trace: single clamped window (matches
            // fp(n)).
            let t = cps_trace::Trace::new(trace.to_vec());
            return t.distinct() as f64;
        }
        let t = cps_trace::Trace::new(trace.to_vec());
        let mut sum = 0.0;
        for start in 0..=(n - w) {
            sum += t.window_wss(start, w) as f64;
        }
        sum / (n - w + 1) as f64
    }
}

/// Eq. 5 one window length at a time: `fp(0), fp(1), …, fp(n)`.
///
/// The absent-window sum runs forward as [`ExcessSums`] over `count(t)`,
/// the bucket-wise total of the three histograms at `t`, and each sample
/// is `(m − E(w) / (n − w + 1)).max(fp(w − 1))` — the monotone guard.
/// The crate's one footprint formula: [`Footprint::from_histograms`]
/// collects it; the window close reads it only as far as its walk does.
pub(crate) struct FootprintSamples<C> {
    count: C,
    n: usize,
    m: f64,
    /// The next window length to produce.
    w: usize,
    /// `E(w)`.
    sums: ExcessSums,
    prev: f64,
}

impl<C: FnMut(usize) -> u64> FootprintSamples<C> {
    /// The samples of `n` accesses to `m` distinct blocks whose
    /// histograms' excess sums start at `sums` and count `count(t)`.
    pub(crate) fn new(n: usize, m: u64, sums: ExcessSums, count: C) -> Self {
        // `E(w) ≤ E(0)` and `n − w + 1 ≤ n + 1`, so from here on both
        // convert through `i64`: the same value, in one instruction where
        // x86-64's unsigned convert takes five.
        assert!(
            sums.excess() <= i64::MAX as u64 && n < i64::MAX as usize,
            "footprint counts must stay below 2^63"
        );
        FootprintSamples {
            count,
            n,
            m: m as f64,
            w: 0,
            sums,
            prev: 0.0,
        }
    }
}

impl<C: FnMut(usize) -> u64> Iterator for FootprintSamples<C> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        let w = self.w;
        if w > self.n {
            return None;
        }
        let absent = self.sums.excess() as i64 as f64;
        let windows = (self.n - w + 1) as i64 as f64;
        // `raw.max(prev)` without the NaN arm `f64::max` adds to this
        // loop-carried chain: `raw` is finite and never -0.
        let raw = self.m - absent / windows;
        let fp = if raw > self.prev { raw } else { self.prev };
        self.prev = fp;
        self.w = w + 1;
        if w < self.n {
            self.sums.step((self.count)(w + 1));
        }
        Some(fp)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.n + 1).saturating_sub(self.w);
        (left, Some(left))
    }
}

/// Eq. 8/10 at every integer size `c ∈ 0..out.len()`, in one monotone
/// walk over the samples `fp(0..=max_x)`, the last of which is `last`.
///
/// `ft(c)` is where the segment ending at the first sample `≥ c` (walked
/// on from the previous size's) crosses `c`, and `mr(c) = fp(ft(c) + 1) − c`
/// clamped to `[0, 1]`, with `MonotoneCurve::inverse`'s and `eval`'s
/// operations in their order. The walk holds only `fp(lo − 1..=lo + 2)`
/// around the current segment end `lo`, pulling one sample per step.
/// Sizes `c ≥ last` read 0 unwalked: past `last` the footprint fits, and
/// at `c = last` (samples never decreasing) the crossing is exactly the
/// first sample equal to `last`, where Eq. 8 reads `last − last = 0`; the
/// slow tail where the last block accrues, often to `w ≈ n`, is skipped.
/// Returns how many leading sizes were walked: every later one reads 0.
pub(crate) fn miss_ratio_walk(
    mut fp: impl Iterator<Item = f64>,
    max_x: usize,
    last: f64,
    out: &mut [f64],
) -> usize {
    // Past `fp(max_x)` a slot holds NaN, which Eq. 8 never reads: at
    // `x ≥ max_x` it reads `last`.
    let mut next = || fp.next().unwrap_or(f64::NAN);
    let mut near = [next(), next(), next(), next()];
    let first = near[0];
    let mut lo = 1;
    for c in 0..out.len() {
        let y = c as f64;
        let fill = if y <= first {
            0.0
        } else if y >= last {
            out[c..].fill(0.0);
            return c;
        } else {
            while near[1] < y {
                near = [near[1], near[2], near[3], next()];
                lo += 1;
            }
            let (y0, y1) = (near[0], near[1]);
            if y1 == y0 {
                lo as f64
            } else {
                (lo - 1) as f64 + (y - y0) / (y1 - y0)
            }
        };
        // `MonotoneCurve::eval` at `x = fill + 1 ∈ [lo, lo + 1]`.
        let x = fill + 1.0;
        let at_x = if x >= max_x as f64 {
            last
        } else {
            let i = x as usize;
            let frac = x - i as f64;
            let (a, b) = if i == lo {
                (near[1], near[2])
            } else {
                (near[2], near[3])
            };
            a + frac * (b - a)
        };
        out[c] = (at_x - y).clamp(0.0, 1.0);
    }
    out.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp_all(trace: &[Block]) -> Footprint {
        Footprint::from_trace(trace)
    }

    #[test]
    fn boundary_values() {
        let trace = [0u64, 1, 0, 2, 1, 0];
        let fp = fp_all(&trace);
        assert_eq!(fp.at(0), 0.0);
        assert_eq!(fp.at(6), 3.0); // whole trace: 3 distinct
        assert_eq!(fp.at(1), 1.0); // every single access touches 1 block
    }

    #[test]
    fn matches_brute_force_small() {
        let traces: Vec<Vec<u64>> = vec![
            vec![0, 0, 1, 2, 2, 3, 0, 0, 1, 2, 2, 3], // paper Figure 3
            vec![5],
            vec![1, 1, 1, 1],
            vec![0, 1, 2, 3, 4, 5],
            (0..64).map(|i| (i * 7) % 13).collect(),
        ];
        for trace in traces {
            let fp = fp_all(&trace);
            for w in 0..=trace.len() {
                let oracle = Footprint::brute_force(&trace, w);
                assert!(
                    (fp.at(w) - oracle).abs() < 1e-9,
                    "trace {trace:?} w={w}: {} vs oracle {oracle}",
                    fp.at(w)
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_random() {
        let mut x = 123456789u64;
        for round in 0..4 {
            let mut trace = Vec::new();
            for _ in 0..200 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
                trace.push((x >> 45) % 17);
            }
            let fp = fp_all(&trace);
            for w in [0, 1, 2, 3, 5, 10, 50, 100, 199, 200] {
                let oracle = Footprint::brute_force(&trace, w);
                assert!(
                    (fp.at(w) - oracle).abs() < 1e-9,
                    "w={w}: {} vs {oracle}",
                    fp.at(w)
                );
            }
        }
    }

    #[test]
    fn curve_is_monotone_and_concave_for_loop() {
        // fp of a cyclic loop over k blocks is min(w, k) — piecewise
        // linear and concave.
        let k = 10u64;
        let trace: Vec<u64> = (0..200).map(|i| i % k).collect();
        let fp = fp_all(&trace);
        assert!(fp.curve().is_non_decreasing());
        for w in 0..=(k as usize) {
            assert!(
                (fp.at(w) - w as f64).abs() < 0.2,
                "fp({w}) = {} should be ≈ {w}",
                fp.at(w)
            );
        }
        // Beyond the working set the curve is flat at k (modulo edge
        // windows near the trace end).
        assert!((fp.at(50) - k as f64).abs() < 0.1);
    }

    #[test]
    fn fill_time_inverts_footprint() {
        let trace: Vec<u64> = (0..300).map(|i| (i * 11) % 23).collect();
        let fp = fp_all(&trace);
        for c in [0.5, 1.0, 5.0, 10.0, 20.0] {
            let w = fp.fill_time(c).expect("reachable footprint");
            assert!((fp.eval(w) - c).abs() < 1e-9, "ft({c}) round trip");
        }
        assert_eq!(fp.fill_time(24.0), None, "beyond total footprint");
    }

    #[test]
    fn miss_ratio_of_cyclic_loop_is_cliff() {
        let trace: Vec<u64> = (0..4000).map(|i| i % 40).collect();
        let fp = fp_all(&trace);
        // Below the working set: every access misses (mr ≈ 1).
        assert!(
            fp.miss_ratio(20.0) > 0.95,
            "mr(20) = {}",
            fp.miss_ratio(20.0)
        );
        // At/above the working set: no capacity misses.
        assert!(
            fp.miss_ratio(40.0) < 0.05,
            "mr(40) = {}",
            fp.miss_ratio(40.0)
        );
        assert_eq!(fp.miss_ratio(100.0), 0.0);
    }

    #[test]
    fn miss_ratio_bounded() {
        let trace: Vec<u64> = (0..500).map(|i| (i * i) % 97).collect();
        let fp = fp_all(&trace);
        for c in 0..=97 {
            let mr = fp.miss_ratio(c as f64);
            assert!((0.0..=1.0).contains(&mr), "mr({c}) = {mr}");
        }
    }

    #[test]
    fn inter_miss_is_reciprocal_of_miss_ratio() {
        let trace: Vec<u64> = (0..600).map(|i| (i * 13 + 5) % 53).collect();
        let fp = fp_all(&trace);
        for c in [5.0, 10.0, 25.0, 40.0] {
            let mr = fp.miss_ratio(c);
            if mr > 1e-6 {
                let im = fp.inter_miss_time(c).unwrap();
                // mr(c) = fp(w+1) − fp(w) is a one-step slope while
                // im(c) = ft(c+1) − ft(c) is the reciprocal slope in the
                // other axis; they agree where the curve is smooth.
                assert!(
                    (1.0 / im - mr).abs() < 0.1 * mr.max(1.0 / im),
                    "c={c}: 1/im = {} vs mr = {mr}",
                    1.0 / im
                );
            }
        }
    }

    #[test]
    fn empty_trace_footprint() {
        let fp = fp_all(&[]);
        assert_eq!(fp.at(0), 0.0);
        assert_eq!(fp.miss_ratio(1.0), 0.0);
    }

    #[test]
    fn extrapolation_extends_at_tail_slope() {
        // A steadily-growing footprint: uniform accesses over a huge
        // region grow ~linearly; truncate then extrapolate.
        let trace: Vec<u64> = (0..2000u64).map(|i| (i * 2654435761) % 100_000).collect();
        let full = fp_all(&trace);
        let truncated = Footprint::from_parts(
            MonotoneCurve::from_samples(full.curve().samples()[..500].to_vec()),
            full.accesses,
            full.distinct,
        );
        let target = full.at(1500);
        let ext = truncated.extrapolate_to(target, 4000);
        assert!(ext.eval(ext.curve().max_x()) >= target - 1e-6);
        // The extrapolated value at w=1500 tracks the true curve within
        // a few percent (the workload is stationary).
        let err = (ext.eval(1500.0) - full.at(1500)).abs() / full.at(1500);
        assert!(err < 0.05, "extrapolation error {err}");
    }

    #[test]
    fn extrapolation_is_identity_when_saturated() {
        let trace: Vec<u64> = (0..1000).map(|i| i % 20).collect();
        let fp = fp_all(&trace);
        let ext = fp.extrapolate_to(10.0, 10_000); // already above target
        assert_eq!(ext.curve().samples(), fp.curve().samples());
        // Flat tail: target above m but slope ~ 0 → unchanged.
        let ext2 = fp.extrapolate_to(100.0, 10_000);
        assert_eq!(ext2.curve().len(), fp.curve().len());
    }

    #[test]
    fn extrapolation_respects_max_len() {
        let trace: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 50_000).collect();
        let fp = fp_all(&trace);
        let ext = fp.extrapolate_to(1e9, 600);
        assert!(ext.curve().len() <= 600);
        assert!(ext.curve().is_non_decreasing());
    }
}
