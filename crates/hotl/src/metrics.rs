//! Sampled miss-ratio curves and per-program solo profiles.
//!
//! The optimizer in `cps-core` works on miss ratios sampled at every
//! candidate allocation (the paper's 1024 partition units);
//! [`MissRatioCurve`] is that dense sampling of
//! [`Footprint::miss_ratio`], and [`SoloProfile`] bundles everything the
//! six evaluation schemes need to know about one program: its name,
//! access rate, footprint curve, and sampled MRC.

use crate::footprint::Footprint;
use cps_dstruct::MonotoneCurve;
use cps_trace::Block;

/// A miss-ratio curve sampled at integer cache sizes `0..=max`.
#[derive(Clone, Debug, PartialEq)]
pub struct MissRatioCurve {
    /// `ratios[c]` = miss ratio with `c` cache blocks.
    ratios: Vec<f64>,
}

impl MissRatioCurve {
    /// Samples the HOTL miss ratio at `0..=max_blocks`.
    ///
    /// The result is forced non-increasing (the LRU inclusion property)
    /// by a single right-to-left pass; the adjustment is a numerical
    /// guard, not a model change — footprint concavity already implies
    /// monotonicity up to interpolation error.
    pub fn from_footprint(fp: &Footprint, max_blocks: usize) -> Self {
        let mut ratios = fp.miss_ratios(max_blocks);
        monotone_guard(&mut ratios);
        MissRatioCurve { ratios }
    }

    /// Wraps a raw sample vector (used by simulator-derived curves).
    ///
    /// # Panics
    /// Panics if empty or if any sample is outside `[0, 1]`.
    pub fn from_samples(ratios: Vec<f64>) -> Self {
        assert!(!ratios.is_empty(), "MRC needs at least one sample");
        // A fold, not `all`: without the early exit the check vectorises.
        assert!(
            ratios
                .iter()
                .fold(true, |ok, r| ok & (0.0..=1.0).contains(r)),
            "miss ratios must lie in [0, 1]"
        );
        MissRatioCurve { ratios }
    }

    /// Miss ratio at `c` blocks (clamped to the sampled range).
    pub fn at(&self, c: usize) -> f64 {
        self.ratios[c.min(self.ratios.len() - 1)]
    }

    /// Largest sampled cache size.
    pub fn max_blocks(&self) -> usize {
        self.ratios.len() - 1
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.ratios
    }

    /// View as a monotone curve (for convexity analysis etc.).
    pub fn to_curve(&self) -> MonotoneCurve {
        MonotoneCurve::from_samples(self.ratios.clone())
    }

    /// True if the curve fails convexity by more than `tol` anywhere —
    /// the condition under which STTW partitioning loses optimality.
    pub fn is_non_convex(&self, tol: f64) -> bool {
        !self.to_curve().is_convex(tol)
    }
}

/// The LRU inclusion guard of [`MissRatioCurve::from_footprint`]: makes
/// `ratios` non-increasing, each entry the max of itself and every entry
/// to its right.
///
/// One right-to-left running max is a chain of dependent `max`es, as
/// long as the curve. This runs [`GUARD_CHAINS`] such chains side by
/// side over equal slices of the curve's tail, then lifts each slice by
/// the max of the slices right of it, and finishes the short head with
/// one chain. The guarded curves are clamped Eq. 8 differences, never
/// NaN or −0, and the max of such values is the same value however the
/// `max`es are grouped, so this equals the single chain bit for bit.
pub(crate) fn monotone_guard(ratios: &mut [f64]) {
    let len = ratios.len() / GUARD_CHAINS;
    let (head, tail) = ratios.split_at_mut(ratios.len() % GUARD_CHAINS);
    let mut runs = [f64::NEG_INFINITY; GUARD_CHAINS];
    for j in (0..len).rev() {
        for (k, run) in runs.iter_mut().enumerate() {
            let r = &mut tail[k * len + j];
            *run = r.max(*run);
            *r = *run;
        }
    }
    let mut carry = f64::NEG_INFINITY;
    for slice in tail.chunks_exact_mut(len.max(1)).rev() {
        for r in slice.iter_mut() {
            *r = r.max(carry);
        }
        carry = slice[0];
    }
    for r in head.iter_mut().rev() {
        *r = r.max(carry);
        carry = *r;
    }
}

/// Independent running maxima [`monotone_guard`] keeps in flight.
const GUARD_CHAINS: usize = 8;

/// Everything the co-run schemes need to know about one program.
#[derive(Clone, Debug)]
pub struct SoloProfile {
    /// Program name.
    pub name: String,
    /// Relative access rate (the paper's `ar_i`).
    pub access_rate: f64,
    /// Trace length `n`.
    pub accesses: u64,
    /// Average footprint curve.
    pub footprint: Footprint,
    /// Miss-ratio curve sampled at block granularity up to the shared
    /// cache size.
    pub mrc: MissRatioCurve,
}

impl SoloProfile {
    /// Profiles one trace end-to-end: reuse → footprint → MRC.
    pub fn from_trace(
        name: impl Into<String>,
        trace: &[Block],
        access_rate: f64,
        max_cache_blocks: usize,
    ) -> Self {
        let footprint = Footprint::from_trace(trace);
        let mrc = MissRatioCurve::from_footprint(&footprint, max_cache_blocks);
        SoloProfile {
            name: name.into(),
            access_rate,
            accesses: footprint.accesses,
            footprint,
            mrc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loop_trace(ws: u64, len: usize) -> Vec<Block> {
        (0..len as u64).map(|i| i % ws).collect()
    }

    proptest::proptest! {
        /// The side-by-side chains equal one right-to-left running max,
        /// bit for bit, at every length around the chain count and at
        /// the engine's 1,025 samples with a zero tail; ties included.
        #[test]
        fn guard_chains_equal_one_running_max(
            raw in proptest::collection::vec(0u32..9, 0..80),
            zero_from in 0usize..2_050,
        ) {
            let mut ratios: Vec<f64> = raw.iter().map(|&r| f64::from(r) / 8.0).collect();
            // Half the cases stretch the curve to 1,025 samples.
            if zero_from < 1_025 && !raw.is_empty() {
                ratios = ratios.iter().copied().cycle().take(1_025).collect();
                ratios[zero_from..].fill(0.0);
            }
            let mut want = ratios.clone();
            for c in (0..want.len().saturating_sub(1)).rev() {
                want[c] = want[c].max(want[c + 1]);
            }
            monotone_guard(&mut ratios);
            let bits = |v: &[f64]| v.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&ratios), bits(&want));
        }
    }

    #[test]
    fn sampled_curve_is_monotone_and_bounded() {
        let fp = Footprint::from_trace(&loop_trace(32, 2000));
        let mrc = MissRatioCurve::from_footprint(&fp, 64);
        assert!(mrc.to_curve().is_non_increasing());
        assert!(mrc.samples().iter().all(|r| (0.0..=1.0).contains(r)));
        assert_eq!(mrc.max_blocks(), 64);
        assert!((mrc.at(0) - 1.0).abs() < 1e-9, "mr(0) must be 1");
    }

    #[test]
    fn cliff_curve_flagged_non_convex() {
        let fp = Footprint::from_trace(&loop_trace(32, 4000));
        let mrc = MissRatioCurve::from_footprint(&fp, 64);
        assert!(mrc.is_non_convex(1e-3), "loop MRC must be a cliff");
    }

    #[test]
    fn clamping_beyond_max() {
        let fp = Footprint::from_trace(&loop_trace(8, 500));
        let mrc = MissRatioCurve::from_footprint(&fp, 16);
        assert_eq!(mrc.at(1000), mrc.at(16));
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn rejects_out_of_range_samples() {
        let _ = MissRatioCurve::from_samples(vec![0.5, 1.2]);
    }

    #[test]
    fn solo_profile_bundles_consistently() {
        let trace = loop_trace(16, 1000);
        let p = SoloProfile::from_trace("toy", &trace, 1.5, 32);
        assert_eq!(p.name, "toy");
        assert_eq!(p.accesses, 1000);
        assert_eq!(p.access_rate, 1.5);
        assert_eq!(p.mrc.max_blocks(), 32);
        assert_eq!(p.footprint.distinct, 16);
    }
}
