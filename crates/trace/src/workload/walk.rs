//! Drifting-working-set workload.
//!
//! A window of `window` blocks sits inside a larger `region`; the stream
//! draws uniform accesses from the window for `dwell` accesses, then
//! slides the window forward by half its size (wrapping around the
//! region). The short-term working set is `window`, the long-term
//! footprint is `region`, giving a soft knee between the two — the shape
//! of iterative solvers whose active block drifts (`dealII`-like).

use super::AccessStream;
use crate::model::Block;
use crate::rng::Rng;

/// Stream for [`super::WorkloadSpec::WorkingSetWalk`].
#[derive(Clone, Debug)]
pub struct WalkStream {
    region: u64,
    window: u64,
    dwell: u64,
    base: u64,
    in_phase: u64,
    rng: Rng,
}

impl WalkStream {
    /// Creates the walk; `window` is clamped to `region`, all parameters
    /// to at least 1.
    pub fn new(region: u64, window: u64, dwell: u64, rng: Rng) -> Self {
        let region = region.max(1);
        WalkStream {
            region,
            window: window.clamp(1, region),
            dwell: dwell.max(1),
            base: 0,
            in_phase: 0,
            rng,
        }
    }
}

impl AccessStream for WalkStream {
    fn next_block(&mut self) -> Block {
        if self.in_phase == self.dwell {
            self.in_phase = 0;
            self.base = (self.base + (self.window / 2).max(1)) % self.region;
        }
        self.in_phase += 1;
        let off = self.rng.below(self.window);
        (self.base + off) % self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dwell_confines_accesses_to_window() {
        let mut s = WalkStream::new(1000, 50, 200, Rng::seed_from_u64(5));
        for _ in 0..200 {
            let b = s.next_block();
            assert!(b < 50, "first dwell must stay in initial window, got {b}");
        }
        // After the dwell the window has moved.
        let mut seen_outside = false;
        for _ in 0..200 {
            if s.next_block() >= 50 {
                seen_outside = true;
            }
        }
        assert!(seen_outside);
    }

    #[test]
    fn long_run_covers_region() {
        let mut s = WalkStream::new(64, 16, 32, Rng::seed_from_u64(6));
        let mut seen = [false; 64];
        for _ in 0..64 * 64 {
            seen[s.next_block() as usize] = true;
        }
        assert!(
            seen.iter().all(|&x| x),
            "walk should eventually cover region"
        );
    }

    #[test]
    fn degenerate_parameters_clamped() {
        let mut s = WalkStream::new(0, 0, 0, Rng::seed_from_u64(7));
        assert_eq!(s.next_block(), 0);
    }
}
