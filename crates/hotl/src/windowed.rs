//! Epoch-windowed, exponentially decayed locality profiling.
//!
//! An online repartitioning controller needs a per-tenant miss-ratio
//! curve that tracks *recent* behaviour: a cumulative profile reacts too
//! slowly once a tenant changes phase, while a single-epoch profile is
//! noisy. [`WindowedProfiler`] sits between the two. It wraps an
//! [`OnlineProfiler`] for the current epoch window and, at each window
//! boundary, folds the window's miss-ratio curve into an exponentially
//! weighted moving average:
//!
//! ```text
//! blended = decay * blended_prev + (1 - decay) * window_mrc
//! ```
//!
//! With `decay = 0` only the latest window matters; as `decay → 1`
//! history dominates.
//!
//! Within a window the profiler is exact: [`WindowedProfiler::window_reuse`]
//! equals the batch [`ReuseProfile`] of the accesses observed since the
//! last boundary (property-tested against interleaved streams). A
//! boundary keeps the window's block table (see [`OnlineProfiler`]), so
//! a caller that keys its own per-block state by the table's ids —
//! [`observe_indexed`](WindowedProfiler::observe_indexed) returns them —
//! closes the window with
//! [`end_window_keeping`](WindowedProfiler::end_window_keeping), naming
//! the ids it still holds.

use crate::metrics::{monotone_guard, MissRatioCurve};
use crate::online::OnlineProfiler;
use crate::reuse::ReuseProfile;
use cps_trace::Block;

/// How a [`WindowedProfiler`] weighs history at window boundaries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProfilerMode {
    /// Reset each window and EWMA-blend curves with weight `decay` on
    /// history (`0.0..1.0`).
    Windowed {
        /// Weight on the previous blended curve; `0` forgets instantly.
        decay: f64,
    },
}

/// Streaming per-tenant profiler with epoch windows and decay.
///
/// # Examples
///
/// ```
/// use cps_hotl::windowed::{ProfilerMode, WindowedProfiler};
/// let mut p = WindowedProfiler::new(64, ProfilerMode::Windowed { decay: 0.5 });
/// for i in 0..5_000u64 {
///     p.observe(i % 20);
/// }
/// let mrc = p.end_window().expect("non-empty window");
/// assert!(mrc.at(20) < 0.05, "20-block loop fits in 20 blocks");
/// assert!(mrc.at(10) > 0.9, "and thrashes below it");
/// ```
#[derive(Clone, Debug)]
pub struct WindowedProfiler {
    mode: ProfilerMode,
    max_blocks: usize,
    window: OnlineProfiler,
    blended: Option<Vec<f64>>,
    /// `blended` reads 0 from here on.
    blended_len: usize,
    windows_ended: usize,
}

impl WindowedProfiler {
    /// Creates a profiler whose curves are sampled at `0..=max_blocks`.
    ///
    /// # Panics
    /// Panics if a windowed `decay` is outside `[0, 1)`.
    pub fn new(max_blocks: usize, mode: ProfilerMode) -> Self {
        let ProfilerMode::Windowed { decay } = mode;
        assert!(
            (0.0..1.0).contains(&decay),
            "decay must lie in [0, 1), got {decay}"
        );
        WindowedProfiler {
            mode,
            max_blocks,
            window: OnlineProfiler::new(),
            blended: None,
            blended_len: 0,
            windows_ended: 0,
        }
    }

    /// The profiler's mode.
    pub fn mode(&self) -> ProfilerMode {
        self.mode
    }

    /// Largest sampled cache size.
    pub fn max_blocks(&self) -> usize {
        self.max_blocks
    }

    /// Consumes one access. `O(1)` amortized.
    #[inline]
    pub fn observe(&mut self, block: Block) {
        self.window.observe(block);
    }

    /// Consumes one access and returns the block's id in the window's
    /// table (see [`OnlineProfiler::observe`]).
    #[inline]
    pub fn observe_indexed(&mut self, block: Block) -> u32 {
        self.window.observe(block)
    }

    /// The window's block table: every block that holds an id, with the
    /// id (see [`OnlineProfiler::block_ids`]).
    pub fn block_ids(&self) -> impl Iterator<Item = (Block, u32)> + '_ {
        self.window.block_ids()
    }

    /// Consumes a slice of accesses.
    pub fn observe_all(&mut self, blocks: &[Block]) {
        self.window.observe_all(blocks);
    }

    /// Windows ended so far.
    pub fn windows_ended(&self) -> usize {
        self.windows_ended
    }

    /// Exact reuse statistics of the current window — equal to the batch
    /// [`ReuseProfile`] of the accesses observed since the last boundary.
    pub fn window_reuse(&self) -> ReuseProfile {
        self.window.snapshot_reuse()
    }

    /// Ends the current window: folds its miss-ratio curve into the
    /// blended estimate and opens the next window.
    ///
    /// The window's curve is streamed from the live histograms: footprint
    /// samples are produced only up to the fill time of `max_blocks`, and
    /// no window-sized buffer outlives the call. The sizes past the
    /// walk read 0, and the monotone guard and the blend leave them so.
    ///
    /// Returns the updated blended curve, or `None` if nothing has ever
    /// been observed. An *empty* window leaves the previous blend
    /// untouched — an idle tenant keeps its last known curve rather than
    /// decaying toward a vacuous one.
    pub fn end_window(&mut self) -> Option<MissRatioCurve> {
        self.end_window_keeping(0, |_| false)
    }

    /// [`end_window`](Self::end_window) for a caller whose own state
    /// holds `resident` of the table's ids (`is_resident` names them):
    /// those ids survive the close's reclamation (see
    /// [`OnlineProfiler::close_window`]).
    pub fn end_window_keeping(
        &mut self,
        resident: usize,
        is_resident: impl Fn(u32) -> bool,
    ) -> Option<MissRatioCurve> {
        self.windows_ended += 1;
        if self.window.accesses() == 0 {
            return self.mrc();
        }
        let mut curve = vec![0.0; self.max_blocks + 1];
        let walked = self.window.miss_ratios_into(&mut curve);
        self.window.close_window(resident, is_resident);
        let ProfilerMode::Windowed { decay } = self.mode;
        // Past `walked` the curve reads 0, and so does the blend past
        // `blended_len`: the guard's maxes over values in `[0, 1]` and
        // the blend's weighted sum of two zeros leave those entries 0.
        monotone_guard(&mut curve[..walked]);
        match &mut self.blended {
            None => self.blended = Some(curve.clone()),
            Some(prev) => {
                // `curve` leaves holding the blend.
                let live = walked.max(self.blended_len);
                for (p, c) in prev[..live].iter_mut().zip(&mut curve[..live]) {
                    *p = decay * *p + (1.0 - decay) * *c;
                    *c = *p;
                }
            }
        }
        self.blended_len = self.blended_len.max(walked);
        Some(MissRatioCurve::from_samples(curve))
    }

    /// The current blended miss-ratio curve, if any window has closed
    /// with data (or `None` before the first non-empty `end_window`).
    pub fn mrc(&self) -> Option<MissRatioCurve> {
        self.blended
            .as_ref()
            .map(|s| MissRatioCurve::from_samples(s.clone()))
    }

    /// Forgets everything: window, blend, and window count.
    pub fn reset(&mut self) {
        self.window.reset();
        self.blended = None;
        self.blended_len = 0;
        self.windows_ended = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_trace::WorkloadSpec;

    #[test]
    fn zero_decay_tracks_only_latest_window() {
        let small = WorkloadSpec::SequentialLoop { working_set: 10 }.generate(3_000, 1);
        let large = WorkloadSpec::SequentialLoop { working_set: 100 }.generate(3_000, 2);
        let mut p = WindowedProfiler::new(128, ProfilerMode::Windowed { decay: 0.0 });
        p.observe_all(&small.blocks);
        let m1 = p.end_window().unwrap();
        assert!(m1.at(64) < 0.05, "phase 1 fits in 64");
        p.observe_all(&large.blocks);
        let m2 = p.end_window().unwrap();
        assert!(m2.at(64) > 0.9, "decay 0 forgets phase 1 immediately");
    }

    #[test]
    fn high_decay_remembers_history() {
        let small = WorkloadSpec::SequentialLoop { working_set: 10 }.generate(3_000, 1);
        let large = WorkloadSpec::SequentialLoop { working_set: 100 }.generate(3_000, 2);
        let mut p = WindowedProfiler::new(128, ProfilerMode::Windowed { decay: 0.9 });
        p.observe_all(&small.blocks);
        p.end_window();
        p.observe_all(&large.blocks);
        let m = p.end_window().unwrap();
        // 0.9 * ~0 + 0.1 * ~1 stays far from the pure phase-2 curve.
        assert!(m.at(64) < 0.2, "history dominates at decay 0.9");
        assert!(m.at(64) > 0.05, "but the new phase is visible");
    }

    #[test]
    fn empty_window_preserves_blend() {
        let trace = WorkloadSpec::SequentialLoop { working_set: 10 }.generate(1_000, 1);
        let mut p = WindowedProfiler::new(32, ProfilerMode::Windowed { decay: 0.5 });
        p.observe_all(&trace.blocks);
        let before = p.end_window().unwrap();
        let after = p.end_window().expect("blend survives an idle window");
        assert_eq!(before.samples(), after.samples());
    }

    #[test]
    fn no_curve_before_first_data() {
        let mut p = WindowedProfiler::new(16, ProfilerMode::Windowed { decay: 0.3 });
        assert!(p.mrc().is_none());
        assert!(p.end_window().is_none(), "empty first window yields None");
        p.observe(1);
        assert!(p.end_window().is_some());
    }

    #[test]
    fn blended_curve_stays_valid() {
        // Convex combinations of monotone [0,1] curves remain so.
        let a = WorkloadSpec::UniformRandom { region: 50 }.generate(2_000, 4);
        let b = WorkloadSpec::SequentialLoop { working_set: 25 }.generate(2_000, 5);
        let mut p = WindowedProfiler::new(64, ProfilerMode::Windowed { decay: 0.6 });
        p.observe_all(&a.blocks);
        p.end_window();
        p.observe_all(&b.blocks);
        let m = p.end_window().unwrap();
        assert!(m.samples().iter().all(|r| (0.0..=1.0).contains(r)));
        for c in 0..m.max_blocks() {
            assert!(m.at(c) + 1e-12 >= m.at(c + 1), "monotone at {c}");
        }
    }

    #[test]
    #[should_panic(expected = "decay must lie in [0, 1)")]
    fn decay_of_one_rejected() {
        let _ = WindowedProfiler::new(8, ProfilerMode::Windowed { decay: 1.0 });
    }
}
